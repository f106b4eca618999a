"""Fault-injection campaigns over the incremental detection engine.

The F4 experiment watches one protocol/scheme pair.  This module opens
the scenario family up to a *grid*: network size × fault burst size ×
detector scheme, with every sweep running through an incremental
:class:`~repro.selfstab.detector.DetectionSession` and its cost measured
in :func:`~repro.core.verifier.view_build_count` units against the
non-incremental full rebuild.

Detectors come in two flavours:

* **live protocols** — a real self-stabilizing protocol whose registers
  embed the scheme's certificates (``max-root-bfs`` for the
  spanning-tree and BFS schemes, ``silent-leader`` for the leader
  scheme);
* **frozen certified states** — :class:`FrozenCertifiedProtocol` wraps
  *any* proof-labeling scheme and a legitimate certified configuration
  in a protocol whose step rule is the identity.  This is the paper's
  "silent states double as certified states" reading made literal, and
  it is what lets the approximate (gap) schemes of :mod:`repro.approx`
  — whose certificates no live protocol of this repository computes —
  act as detectors in the campaign: their one-round verifiers watch a
  certified register file for corruption exactly like the exact
  schemes do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core import catalog
from repro.core.labeling import Configuration
from repro.core.scheme import ProofLabelingScheme
from repro.errors import SimulationError
from repro.graphs.generators import connected_gnp
from repro.graphs.graph import Graph
from repro.graphs.weighted import weighted_copy
from repro.local.algorithm import NodeContext
from repro.local.network import Network
from repro.obs import metrics as _obs
from repro.selfstab.detector import PlsDetector
from repro.selfstab.model import SelfStabProtocol, run_until_silent
from repro.selfstab.reset import run_guarded
from repro.util.rng import make_rng, spawn

__all__ = [
    "CampaignInstance",
    "FrozenCertifiedProtocol",
    "SWEEP_DETECTORS",
    "SweepRecord",
    "build_campaign_instance",
    "classify_truth",
    "fault_sweep_campaign",
]


class FrozenCertifiedProtocol(SelfStabProtocol):
    """A silent protocol frozen at a certified configuration.

    Registers are ``(output_state, certificate)`` pairs taken from a
    legitimate configuration and its honest certificate assignment; the
    step rule is the identity (the wrapped algorithm has converged —
    silence is the point), so recovery happens purely through the
    guarded runs' local reset to :meth:`initial_state`.  Fault injection
    corrupts the output, the certificate, or both, drawing output
    corruption from the scheme's language so that the corrupted register
    stays *plausible* — the detector has to catch it by verification,
    not by parsing.
    """

    def __init__(
        self,
        scheme: ProofLabelingScheme,
        config: Configuration,
        certificates: Mapping[int, Any] | None = None,
    ) -> None:
        self.scheme = scheme
        self.config = config
        self.name = f"frozen<{scheme.name}>"
        certs = dict(certificates) if certificates is not None else scheme.prove(config)
        self._registers = {
            v: (config.state(v), certs[v]) for v in config.graph.nodes
        }

    def initial_state(self, ctx: NodeContext) -> Any:
        return self._registers[ctx.node]

    def random_state(self, ctx: NodeContext, rng: random.Random) -> Any:
        state, cert = self._registers[ctx.node]
        roll = rng.random()
        corrupt_output = roll < 0.6
        corrupt_cert = roll >= 0.3
        if corrupt_output:
            state = self.scheme.language.random_corruption(ctx.node, state, rng)
        if corrupt_cert:
            cert = ("corrupt", rng.randrange(1 << 16))
        return (state, cert)

    def step(
        self, ctx: NodeContext, state: Any, neighbor_states: Mapping[int, Any]
    ) -> Any:
        return state  # converged: the identity rule is what "silent" means

    def output(self, ctx: NodeContext, state: Any) -> Any:
        if isinstance(state, tuple) and len(state) == 2:
            return state[0]
        return None

    def certificate(self, ctx: NodeContext, state: Any) -> Any:
        if isinstance(state, tuple) and len(state) == 2:
            return state[1]
        return None


@dataclass(frozen=True)
class CampaignInstance:
    """One ready-to-corrupt certified system: network + protocol + detector."""

    network: Network
    protocol: SelfStabProtocol
    detector: PlsDetector


def _live_instance(
    graph: Graph, protocol: SelfStabProtocol, scheme: ProofLabelingScheme
) -> CampaignInstance:
    network = Network(graph)
    return CampaignInstance(
        network=network,
        protocol=protocol,
        detector=PlsDetector(scheme, protocol),
    )


def _build_st_pointer(
    graph: Graph, rng: random.Random, params: Mapping[str, Any] | None = None
) -> CampaignInstance:
    from repro.selfstab.protocol import MaxRootBfsProtocol

    return _live_instance(
        graph,
        MaxRootBfsProtocol(),
        catalog.build("spanning-tree-ptr", **dict(params or {})),
    )


def _build_bfs_tree(
    graph: Graph, rng: random.Random, params: Mapping[str, Any] | None = None
) -> CampaignInstance:
    from repro.selfstab.protocol import MaxRootBfsProtocol

    return _live_instance(
        graph, MaxRootBfsProtocol(), catalog.build("bfs-tree", **dict(params or {}))
    )


def _build_leader(
    graph: Graph, rng: random.Random, params: Mapping[str, Any] | None = None
) -> CampaignInstance:
    from repro.selfstab.leader_protocol import SilentLeaderProtocol

    return _live_instance(
        graph, SilentLeaderProtocol(), catalog.build("leader", **dict(params or {}))
    )


def _frozen_instance(
    graph: Graph, scheme: ProofLabelingScheme, rng: random.Random
) -> CampaignInstance:
    network = Network(graph)
    config = scheme.language.member_configuration(graph, rng=rng)
    protocol = FrozenCertifiedProtocol(scheme, config)
    return CampaignInstance(
        network=network,
        protocol=protocol,
        detector=PlsDetector(scheme, protocol),
    )


def _build_approx_tree_weight(
    graph: Graph, rng: random.Random, params: Mapping[str, Any] | None = None
) -> CampaignInstance:
    weighted = weighted_copy(graph, spawn(rng, 11))
    scheme = catalog.build(
        "approx-tree-weight", graph=weighted, rng=rng, **dict(params or {})
    )
    return _frozen_instance(weighted, scheme, rng)


def _build_approx_dominating_set(
    graph: Graph, rng: random.Random, params: Mapping[str, Any] | None = None
) -> CampaignInstance:
    scheme = catalog.build(
        "approx-dominating-set", graph=graph, rng=rng, **dict(params or {})
    )
    return _frozen_instance(graph, scheme, rng)


def _build_es_spanning_tree(
    graph: Graph, rng: random.Random, params: Mapping[str, Any] | None = None
) -> CampaignInstance:
    scheme = catalog.build("es-spanning-tree", **dict(params or {}))
    return _frozen_instance(graph, scheme, rng)


#: name -> (graph, rng, params=None) -> CampaignInstance.  Live protocols
#: first, then frozen certified states for the approximate and
#: error-sensitive detectors.  ``params`` are catalog parameter overrides
#: (e.g. ``epsilon`` for the ES detector) forwarded verbatim to
#: :func:`repro.core.catalog.build`.
SWEEP_DETECTORS: dict[str, Callable[..., CampaignInstance]] = {
    "st-pointer": _build_st_pointer,
    "bfs-tree": _build_bfs_tree,
    "leader": _build_leader,
    "approx-tree-weight": _build_approx_tree_weight,
    "approx-dominating-set": _build_approx_dominating_set,
    "es-spanning-tree": _build_es_spanning_tree,
}


def build_campaign_instance(
    name: str,
    graph: Graph,
    rng: random.Random,
    params: Mapping[str, Any] | None = None,
) -> CampaignInstance:
    """Materialise one named detector on the given graph.

    ``params`` are catalog parameter overrides (``--param`` on the CLI),
    validated and applied by :func:`repro.core.catalog.build`.
    """
    try:
        builder = SWEEP_DETECTORS[name]
    except KeyError:
        raise SimulationError(
            f"unknown sweep detector {name!r}; known: {sorted(SWEEP_DETECTORS)}"
        ) from None
    if params:
        # Only parameterised calls require the three-argument builder
        # signature; plain builds keep working with legacy (graph, rng)
        # builders registered by callers.
        return builder(graph, rng, params=params)
    return builder(graph, rng)


def classify_truth(language, config: Configuration) -> str:
    """Ground truth of a configuration: ``"legal"``/``"illegal"``/``"gap"``.

    Gap semantics are honoured: under a
    :class:`~repro.approx.gap.GapLanguage` only a genuine no-instance
    (α-far from the predicate) is *illegal* — detection owed; a
    configuration inside the gap owes nothing and classifies as
    ``"gap"``.  Exact languages never produce ``"gap"``.
    """
    from repro.approx.gap import GapLanguage

    if isinstance(language, GapLanguage):
        return {"no": "illegal", "yes": "legal"}.get(language.classify(config), "gap")
    return "legal" if language.is_member(config) else "illegal"


@dataclass(frozen=True)
class SweepRecord:
    """Aggregate of one (detector, n, fault count) campaign cell."""

    detector: str
    n: int
    faults: int
    #: Fault bursts whose output labeling landed where soundness demands
    #: an alarm: outside the language for exact detectors, in the
    #: *no*-region (α-far) for gap detectors.
    illegal_runs: int
    #: Bursts that landed in a gap detector's don't-care region (neither
    #: yes nor α-far).  An α-APLS verifier owes nothing there, so these
    #: carry no detection requirement and are tallied separately.
    gap_runs: int
    #: ... of ``illegal_runs`` that the first incremental sweep alarmed
    #: on (must equal ``illegal_runs``: the one-round detection
    #: guarantee).
    detected: int
    false_negatives: int
    #: Bursts that stayed legal but alarmed anyway (stale certificates).
    false_positives: int
    mean_rejects: float
    #: LocalView constructions per faulted sweep, incremental session.
    incremental_views: float
    #: LocalView constructions per faulted sweep, from-scratch rebuild.
    full_views: float
    #: Guarded recovery cost over the illegal runs.
    mean_recovery_rounds: float
    mean_recovery_moves: float

    @property
    def view_ratio(self) -> float:
        """Full-rebuild views per incremental view (>= 1 is the win)."""
        return self.full_views / max(1.0, self.incremental_views)


def fault_sweep_campaign(
    sizes=(32, 64),
    fault_counts=(1, 2, 4),
    detectors=tuple(SWEEP_DETECTORS),
    seeds_per_cell: int = 5,
    rng: random.Random | None = None,
    adversary=None,
    params: Mapping[str, Any] | None = None,
) -> list[SweepRecord]:
    """Run the detection campaign over the full grid.

    For every cell and seed: stabilize (or freeze) a certified system,
    inject a fault burst of exactly ``k`` register changes — placed by
    ``adversary`` (any :class:`~repro.selfstab.adversary.Adversary`;
    default :class:`~repro.selfstab.adversary.RandomAdversary`, which is
    bit-compatible with the historical uniform-random injection) —
    sweep once incrementally and once from scratch — verdicts must
    agree; the view-construction counter measures the saving — and run
    guarded recovery on the corrupted registers.

    Ground truth honours gap semantics (see :func:`classify_truth`): a
    burst watched by an approximate detector counts as *illegal*
    (detection required) only when the corrupted configuration is a
    genuine no-instance — α-far from the predicate.  A burst that lands
    in the gap, where the verifier owes nothing, is recorded as a
    ``gap_run`` with no detection requirement.

    ``params`` are catalog parameter overrides applied to *every*
    detector in the grid (the CLI's ``--param``); combine with a
    restricted ``detectors`` tuple when an override only exists on some
    schemes.  The chosen overrides are recorded on each cell's
    ``campaign.cell`` trace event.
    """
    from repro.selfstab.adversary import RandomAdversary

    adversary = adversary if adversary is not None else RandomAdversary()
    rng = rng or make_rng(4242)
    records: list[SweepRecord] = []
    for detector_index, name in enumerate(detectors):
        for n in sizes:
            for k in fault_counts:
                _obs.event(
                    "campaign.cell",
                    detector=name,
                    n=n,
                    faults=k,
                    params=dict(params or {}),
                )
                illegal = gap_runs = detected = false_neg = false_pos = 0
                rejects: list[int] = []
                incr_views: list[int] = []
                full_views: list[int] = []
                recovery_rounds: list[int] = []
                recovery_moves: list[int] = []
                for seed in range(seeds_per_cell):
                    # Deterministic salt: tuple hash() is process-
                    # randomized and would break reproducibility.
                    salt = (
                        detector_index * 10_000_000
                        + n * 10_000
                        + k * 100
                        + seed
                    )
                    cell_rng = spawn(rng, salt)
                    graph = connected_gnp(n, 3.0 / n, cell_rng)
                    instance = build_campaign_instance(
                        name, graph, cell_rng, params=params
                    )
                    silent = run_until_silent(
                        instance.network, instance.protocol
                    ).states
                    session = instance.detector.session(instance.network, silent)
                    if not session.verify().all_accept:
                        raise SimulationError(
                            f"{name}: certified silent state already alarmed"
                        )
                    injection = adversary.corrupt(instance, silent, k, cell_rng)
                    with _obs.collect(
                        "sweep.incremental", detector=name, n=n, faults=k
                    ) as incr_metrics:
                        report = session.sweep(
                            injection.states,
                            changed=injection.victims,
                            check_membership=False,
                        )
                    incr_views.append(int(incr_metrics.counter("views.built")))
                    # Verdict-only from-scratch baseline: same n view
                    # builds as PlsDetector.sweep, without the global
                    # membership check (done once, below).
                    with _obs.collect(
                        "sweep.full", detector=name, n=n, faults=k
                    ) as full_metrics:
                        fresh_config = instance.detector.configuration(
                            instance.network, injection.states
                        )
                        fresh_certs = instance.detector.certificates(
                            instance.network, injection.states
                        )
                        # Views built explicitly: the cell measures the
                        # per-node path's n-views-per-sweep cost even
                        # for schemes with a batched decider.
                        fresh_views = instance.detector.scheme.build_views(
                            fresh_config, fresh_certs
                        )
                        fresh_verdict = instance.detector.scheme.run(
                            fresh_config,
                            certificates=fresh_certs,
                            views=fresh_views,
                        )
                    full_views.append(int(full_metrics.counter("views.built")))
                    if fresh_verdict != report.verdict:
                        raise SimulationError(
                            f"{name}: incremental sweep diverged from full sweep"
                        )
                    # Ground truth with gap awareness: only a genuine
                    # no-instance obliges an α-APLS verifier to alarm.
                    truth = classify_truth(
                        instance.detector.scheme.language, session.config
                    )
                    if truth == "legal":
                        false_pos += report.alarmed
                        continue
                    if truth == "gap":
                        gap_runs += 1
                        continue
                    illegal += 1
                    detected += report.alarmed
                    false_neg += not report.alarmed
                    rejects.append(report.verdict.reject_count)
                    # The campaign's session is already at the corrupted
                    # registers, so recovery inherits it (and its verdict)
                    # instead of rebuilding.
                    recovery = run_guarded(
                        instance.network,
                        instance.protocol,
                        instance.detector,
                        injection.states,
                        session=session,
                    )
                    recovery_rounds.append(recovery.rounds)
                    recovery_moves.append(recovery.total_moves)
                mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
                records.append(
                    SweepRecord(
                        detector=name,
                        n=n,
                        faults=k,
                        illegal_runs=illegal,
                        gap_runs=gap_runs,
                        detected=detected,
                        false_negatives=false_neg,
                        false_positives=false_pos,
                        mean_rejects=mean(rejects),
                        incremental_views=mean(incr_views),
                        full_views=mean(full_views),
                        mean_recovery_rounds=mean(recovery_rounds),
                        mean_recovery_moves=mean(recovery_moves),
                    )
                )
    return records
