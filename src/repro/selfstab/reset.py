"""Detection-gated correction and reset experiments.

Two recovery disciplines built on PLS detection, echoing the local
checking and correction literature the paper connects to:

* :func:`run_guarded` — **local correction**: every round each node
  evaluates the one-round verifier on its own view; nodes whose verifier
  *accepts* stay frozen (certified silence costs zero work), nodes whose
  verifier *rejects* execute one protocol move.  Recovery work is
  therefore proportional to how much of the network actually looks
  wrong.
* :func:`run_with_global_reset` — the **global reset** baseline: any
  alarm anywhere resets *every* register to the clean initial state and
  reruns the protocol to silence.  Always correct, maximally expensive.

Both report rounds and total moves, which is what the self-stabilization
benchmark (F4) compares.  **A "move" is a register change**, everywhere:
guarded correction counts the registers it rewrites, and the global
reset charges both the reset write itself (every register it actually
changes) and each protocol round's changed registers.

:func:`inject_faults` / :func:`inject_faults_report` produce the
transient faults.  The recovery loops run on the incremental machinery:
one :class:`~repro.selfstab.detector.DetectionSession` per run (sweeps
cost O(ball(moved)) view rebuilds) and active-set protocol rounds that
step only the alarmed nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SimulationError
from repro.local.network import Network
from repro.selfstab.detector import DetectionSession, PlsDetector
from repro.selfstab.model import SelfStabProtocol, run_until_silent, synchronous_round
from repro.util.rng import make_rng

__all__ = [
    "FaultInjection",
    "RecoveryTrace",
    "inject_faults",
    "inject_faults_report",
    "run_guarded",
    "run_with_global_reset",
]


@dataclass
class RecoveryTrace:
    """History of a detection-driven recovery run."""

    rounds: int
    stabilized: bool
    states: dict[int, Any]
    #: ``(round, rejecting_node_count)`` for every round with alarms.
    detections: list[tuple[int, int]] = field(default_factory=list)
    #: Number of register changes (moves) executed per round.
    moves_per_round: list[int] = field(default_factory=list)
    #: True when local correction ran out of patience and fell back to a
    #: global reset (see :func:`run_guarded`).
    escalated: bool = False

    @property
    def first_detection_round(self) -> int | None:
        return self.detections[0][0] if self.detections else None

    @property
    def total_moves(self) -> int:
        return sum(self.moves_per_round)


@dataclass(frozen=True)
class FaultInjection:
    """Outcome of one fault injection: the registers and who was hit."""

    states: dict[int, Any]
    #: The nodes whose registers actually changed, sorted.
    victims: tuple[int, ...]


def inject_faults_report(
    network: Network,
    protocol: SelfStabProtocol,
    states: Mapping[int, Any],
    count: int,
    rng: random.Random | None = None,
    max_resamples: int = 16,
) -> FaultInjection:
    """Corrupt exactly ``count`` distinct registers; report the victims.

    ``protocol.random_state`` draws from the protocol's *whole* state
    space and may therefore return a state equal to the current one —
    which would silently yield fewer real faults than requested (and
    skew every per-``k`` statistic downstream).  Each victim's draw is
    resampled up to ``max_resamples`` times until it differs; a node
    whose draws never differ (a near-degenerate state space) is skipped
    in favour of a fresh victim.  Raises
    :class:`~repro.errors.SimulationError` when ``count`` changed
    registers cannot be produced at all.
    """
    rng = rng or make_rng()
    if count > len(states):
        raise SimulationError(
            f"cannot corrupt {count} of {len(states)} registers"
        )
    contexts = network.contexts()
    candidates = sorted(states)
    rng.shuffle(candidates)
    faulted = dict(states)
    victims: list[int] = []
    for node in candidates:
        if len(victims) == count:
            break
        for _ in range(max_resamples):
            drawn = protocol.random_state(contexts[node], rng)
            if drawn != states[node]:
                faulted[node] = drawn
                victims.append(node)
                break
    if len(victims) < count:
        raise SimulationError(
            f"{protocol.name}: only {len(victims)} of {count} requested "
            f"registers could be made to differ"
        )
    return FaultInjection(states=faulted, victims=tuple(sorted(victims)))


def inject_faults(
    network: Network,
    protocol: SelfStabProtocol,
    states: Mapping[int, Any],
    count: int,
    rng: random.Random | None = None,
) -> dict[int, Any]:
    """Corrupt exactly ``count`` distinct random registers.

    Convenience wrapper around :func:`inject_faults_report` for callers
    that do not need the victim set.
    """
    return inject_faults_report(network, protocol, states, count, rng).states


def run_guarded(
    network: Network,
    protocol: SelfStabProtocol,
    detector: PlsDetector,
    states: Mapping[int, Any],
    patience: int | None = None,
    max_rounds: int = 10_000,
    session: DetectionSession | None = None,
) -> RecoveryTrace:
    """Local correction with bounded patience, then global reset.

    Every round, nodes whose verifier accepts stay frozen; rejecting
    nodes execute one protocol move (or a local reset when the move is a
    no-op).  This contains small faults: the work stays proportional to
    the alarmed region.  Local correction alone, however, cannot always
    make global progress — a consistently-certified region can keep a
    bogus claim alive while only its boundary is alarmed — so after
    ``patience`` rounds (default ``4n + 16``) the run *escalates* to the
    always-correct global reset, the classic escalation discipline of the
    local-checking literature.

    A *wedged* round — every rejecting node's move and local reset are
    both no-ops — escalates immediately; since no register changed, that
    round consumes no daemon round and is not counted (its alarm is
    re-recorded by the reset's own sweep at the same round index).

    Terminates at certified silence: the verifier accepts everywhere, so
    no node is enabled and, by soundness, the configuration is
    legitimate.

    Implementation notes: one incremental
    :class:`~repro.selfstab.detector.DetectionSession` serves all sweeps
    (each costs O(ball(moved)) view rebuilds) *including the escalation
    fallback's* — the global reset inherits the session instead of
    re-deciding from scratch — and the protocol round is
    restricted to the rejecting nodes, the only ones whose step can be
    applied.  Callers that already hold a session at ``states`` (the
    campaigns sweep before recovering) can pass it in; the default
    opens a fresh one.
    """
    contexts = network.contexts()
    patience = patience if patience is not None else 4 * network.graph.n + 16
    current = dict(states)
    if session is None:
        session = detector.session(network, current)
    else:
        session.update(current)
    detections: list[tuple[int, int]] = []
    moves: list[int] = []
    wedged = False
    for round_index in range(min(patience, max_rounds)):
        verdict = session.verify()
        if verdict.all_accept:
            return RecoveryTrace(
                rounds=round_index,
                stabilized=True,
                states=current,
                detections=detections,
                moves_per_round=moves,
            )
        detections.append((round_index, verdict.reject_count))
        rejects = verdict.rejects
        stepped = synchronous_round(network, protocol, current, active=rejects)
        moved: list[int] = []
        nxt = dict(current)
        for v in rejects:
            if stepped[v] != current[v]:
                nxt[v] = stepped[v]
                moved.append(v)
            else:
                reset = protocol.initial_state(contexts[v])
                if reset != current[v]:
                    nxt[v] = reset
                    moved.append(v)
        current = nxt
        if not moved:
            wedged = True
            detections.pop()  # re-recorded by the fallback's own sweep
            break
        moves.append(len(moved))
        session.update(current, changed=moved)
    # Patience exhausted (or wedged): escalate, handing the fallback the
    # session (already at ``current``) instead of rebuilding one.
    fallback = run_with_global_reset(
        network, protocol, detector, current, max_rounds=max_rounds,
        session=session,
    )
    offset = len(moves)
    return RecoveryTrace(
        rounds=offset + fallback.rounds,
        stabilized=fallback.stabilized,
        states=fallback.states,
        detections=detections + [
            (offset + r, c) for r, c in fallback.detections
        ],
        moves_per_round=moves + fallback.moves_per_round,
        escalated=True,
    )


def run_with_global_reset(
    network: Network,
    protocol: SelfStabProtocol,
    detector: PlsDetector,
    states: Mapping[int, Any],
    max_rounds: int = 10_000,
    session: DetectionSession | None = None,
) -> RecoveryTrace:
    """Global reset baseline: one alarm anywhere restarts everything.

    Accounting (kept consistent with :func:`run_guarded`'s
    register-change metric): round 0 is the detection sweep plus the
    reset write, charged with every register the reset actually rewrites;
    rounds 1.. are the clean protocol run, each charged with its changed
    registers.  The old implementation charged nothing for the reset
    write itself, understating the baseline's cost in the F4
    guarded-vs-reset comparison.

    ``session`` lets a caller that already verified ``states`` — most
    importantly :func:`run_guarded`'s escalation path — share its
    incremental :class:`~repro.selfstab.detector.DetectionSession`
    instead of paying a fresh O(n) view build here.
    """
    if session is None:
        session = detector.session(network, states)
        report = session.sweep(check_membership=False)
    else:
        report = session.sweep(states, check_membership=False)
    if not report.alarmed:
        return RecoveryTrace(
            rounds=0,
            stabilized=True,
            states=dict(states),
            detections=[],
            moves_per_round=[],
        )
    contexts = network.contexts()
    clean = {v: protocol.initial_state(contexts[v]) for v in network.graph.nodes}
    reset_moves = sum(1 for v in network.graph.nodes if clean[v] != states[v])
    trace = run_until_silent(network, protocol, clean, max_rounds=max_rounds)
    final_report = session.sweep(trace.states, check_membership=False)
    if final_report.alarmed:
        raise SimulationError(
            f"{protocol.name}: still alarmed after a global reset"
        )
    return RecoveryTrace(
        rounds=1 + trace.rounds,
        stabilized=True,
        states=trace.states,
        detections=[(0, report.verdict.reject_count)],
        moves_per_round=[reset_moves] + list(trace.changes_per_round),
    )
