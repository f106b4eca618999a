"""``pipeline``: the in-process generate-and-certify loop.

Each op samples a fresh random tree, builds its CSR mirror, fits a
scheme, marks a member configuration, proves it and decides it — graph
in, verdict out — with a seed derived from the run seed and the op
index.  The scheme rotates through three that have batch kernels at
every stage.  ``cold`` is the marking half of an op (sample → CSR →
build → marker → prove: the labels are made once), ``hot`` the
verifying half (``scheme.run``: the one-round check re-run forever).
"""

from __future__ import annotations

import random
import time

from harness import Workload, check, layer_ms
from repro.core import catalog
from repro.core.batch import batch_prove
from repro.graphs.generators import random_tree
from repro.obs import metrics as obs_metrics
from repro.util.rng import make_rng

N = 20_000
SCHEMES = ("spanning-tree-ptr", "bfs-tree", "leader")
FALLBACK_COUNTERS = (
    "generate.batch.fallbacks",
    "prove.batch.fallbacks",
    "decide.batch.fallbacks",
)


def _fallbacks() -> float:
    return sum(obs_metrics.counter_total(name) for name in FALLBACK_COUNTERS)


class Pipeline(Workload):
    name = "pipeline"
    warmup_ops = 2 * len(SCHEMES)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = [catalog.get(name) for name in SCHEMES]
        self.fallbacks: list[float] = []

    def op(self, i: int, span) -> dict[str, float]:
        rng = make_rng(random.Random(f"{self.seed}/{i}").getrandbits(64))
        spec = self.specs[i % len(self.specs)]
        fallbacks = _fallbacks()
        t0 = time.perf_counter()
        with span("graphs.random_tree"):
            graph = random_tree(N, rng)
        with span("graphs.csr"):
            graph.csr()
        with span("core.build"):
            scheme = spec.build(graph=graph, rng=rng)
        with span("core.marker"):
            config = scheme.language.member_configuration(graph, rng=rng)
        with span("core.prove"):
            certificates = batch_prove(scheme, config)
        t1 = time.perf_counter()
        with span("core.decide"):
            verdict = scheme.run(config, certificates=certificates)
        t2 = time.perf_counter()
        self.fallbacks.append(_fallbacks() - fallbacks)
        check(
            not verdict.rejects and len(verdict.accepts) == N,
            f"{spec.name} op {i}: honest instance rejected at "
            f"{len(verdict.rejects)} nodes",
        )
        return {"cold": t1 - t0, "hot": t2 - t1}

    def layer_metrics(self, tracer) -> dict[str, float]:
        layers = {
            f"{name}_ms": layer_ms(tracer, name)
            for name in (
                "graphs.random_tree",
                "graphs.csr",
                "core.build",
                "core.marker",
                "core.prove",
                "core.decide",
            )
        }
        layers["core.batch_fallbacks"] = sum(self.fallbacks) / len(self.fallbacks)
        return layers
