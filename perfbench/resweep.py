"""``edit-resweep``: the self-stabilization re-check after a register fault.

Set-up certifies a ``spanning-tree-ptr`` member configuration on a
random tree, freezes it into a :class:`FrozenCertifiedProtocol`, and
opens an incremental :class:`DetectionSession` on the detector's
default backend.  Ops alternate between injecting one of 32 fixed
faults (``cold``) and repairing it (``hot``); each op is one sweep over
the changed register.  The sweep is issued as its two public calls,
``update`` then ``verify`` — exactly ``sweep(states, changed=[v],
check_membership=False)`` — so the traced run can time them apart.
"""

from __future__ import annotations

import time

from harness import Workload, check, layer_ms, median
from repro.core import catalog
from repro.core.batch import batch_prove
from repro.graphs.generators import random_tree
from repro.local.network import Network
from repro.obs import metrics as obs_metrics
from repro.selfstab.campaign import FrozenCertifiedProtocol
from repro.selfstab.detector import PlsDetector
from repro.util.rng import make_rng

N = 50_000
FAULTS = 32


class EditResweep(Workload):
    name = "edit-resweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: fault index -> reject set its first sweep saw.
        self.observed: dict[int, frozenset[int]] = {}
        self.counts: dict[str, list[float]] = {}

    def setup(self) -> None:
        rng = make_rng(self.seed)
        graph = random_tree(N, rng)
        scheme = catalog.get("spanning-tree-ptr").build(graph=graph, rng=rng)
        config = scheme.language.member_configuration(graph, rng=rng)
        certificates = batch_prove(scheme, config)
        protocol = FrozenCertifiedProtocol(scheme, config, certificates)
        network = Network(graph, ids=config.ids)
        contexts = network.contexts()
        self.states = {v: protocol.initial_state(contexts[v]) for v in graph.nodes}
        self.session = PlsDetector(scheme, protocol).session(network, self.states)
        self.scheme, self.config, self.certificates = scheme, config, certificates
        self.faults = []
        victims = rng.sample(range(N), FAULTS)
        for v in victims:
            bad = protocol.random_state(contexts[v], rng)
            while bad == self.states[v]:
                bad = protocol.random_state(contexts[v], rng)
            self.faults.append((v, bad, self.states[v]))
        super().setup()

    def op(self, i: int, span) -> dict[str, float]:
        fault = (i // 2) % FAULTS
        v, bad, good = self.faults[fault]
        inject = i % 2 == 0
        self.states[v] = bad if inject else good
        views, reads, nodes = (
            obs_metrics.view_build_total(),
            obs_metrics.counter_total("registers.read"),
            obs_metrics.counter_total("decide.batch.nodes"),
        )
        t0 = time.perf_counter()
        with span("selfstab.update"):
            self.session.update(self.states, changed=[v])
        with span("selfstab.verify"):
            verdict = self.session.verify()
        elapsed = time.perf_counter() - t0
        for name, value in (
            ("views", obs_metrics.view_build_total() - views),
            ("reads", obs_metrics.counter_total("registers.read") - reads),
            ("nodes", obs_metrics.counter_total("decide.batch.nodes") - nodes),
        ):
            self.counts.setdefault(name, []).append(value)
        if not inject:
            check(
                not verdict.rejects,
                f"repair of fault {fault} left {len(verdict.rejects)} rejections",
            )
            return {"hot": elapsed}
        seen = self.observed.setdefault(fault, verdict.rejects)
        check(
            verdict.rejects == seen,
            f"fault {fault}: reject set changed between sweeps",
        )
        return {"cold": elapsed}

    def finish(self) -> list[str]:
        """Each observed fault's reject set against a fresh full decide."""
        failures = []
        outputs = {v: self.config.state(v) for v in self.config.graph.nodes}
        certificates = dict(self.certificates)
        for fault, seen in sorted(self.observed.items()):
            v, bad, good = self.faults[fault]
            outputs[v], certificates[v] = bad
            fresh = self.scheme.run(
                self.config.with_labeling(outputs), certificates=certificates
            )
            if fresh.rejects != seen:
                failures.append(
                    f"fault {fault}: session rejected {sorted(seen)[:8]}, "
                    f"fresh decide {sorted(fresh.rejects)[:8]}"
                )
            outputs[v], certificates[v] = good
        return failures

    def layer_metrics(self, tracer) -> dict[str, float]:
        return {
            "selfstab.update_ms": layer_ms(tracer, "selfstab.update"),
            "selfstab.verify_ms": layer_ms(tracer, "selfstab.verify"),
            "selfstab.views_built_per_op": median(self.counts["views"]),
            "selfstab.registers_read_per_op": median(self.counts["reads"]),
            "core.decide_batch_nodes_per_op": median(self.counts["nodes"]),
        }
