"""Configurations: graphs with identities and per-node input states.

A *labeling* assigns every node its input state — the node's part of the
global configuration a distributed language talks about (a parent
pointer, a color, an adjacency list, ...).  States reference neighbors by
**port number** (position in the node's ordered neighbor list), which
keeps them identifier-independent, exactly as in the LOCAL model.

The *Hamming distance* between two labelings of the same graph is the
number of nodes whose states differ — the configuration-space metric used
in corruption experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import LabelingError
from repro.graphs.graph import Graph
from repro.util.bits import obj_bit_size
from repro.util.idspace import contiguous_ids, validate_ids

__all__ = ["Configuration", "Labeling"]


class Labeling(Mapping[int, Any]):
    """Immutable mapping from node index to input state."""

    __slots__ = ("_states",)

    def __init__(self, states: Mapping[int, Any]) -> None:
        self._states = dict(states)

    @classmethod
    def uniform(cls, nodes: range | list[int], state: Any) -> "Labeling":
        """The labeling giving every node the same state."""
        return cls({v: state for v in nodes})

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, node: int) -> Any:
        try:
            return self._states[node]
        except KeyError:
            raise LabelingError(f"no state for node {node}") from None

    def __iter__(self) -> Iterator[int]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        from repro.core.verifier import same_value

        return self._states.keys() == other._states.keys() and all(
            same_value(state, other._states[v]) for v, state in self._states.items()
        )

    def __repr__(self) -> str:
        return f"Labeling({len(self._states)} nodes)"

    # -- derived labelings ----------------------------------------------------

    def with_state(self, node: int, state: Any) -> "Labeling":
        """Copy with one node's state replaced."""
        if node not in self._states:
            raise LabelingError(f"no state for node {node}")
        states = dict(self._states)
        states[node] = state
        return Labeling(states)

    def with_states(self, replacements: Mapping[int, Any]) -> "Labeling":
        """Copy with several nodes' states replaced."""
        states = dict(self._states)
        for node, state in replacements.items():
            if node not in states:
                raise LabelingError(f"no state for node {node}")
            states[node] = state
        return Labeling(states)

    def corrupted(
        self,
        rng: random.Random,
        count: int,
        mutator: Callable[[int, Any, random.Random], Any],
    ) -> "Labeling":
        """Corrupt ``count`` distinct random nodes through ``mutator``.

        ``mutator(node, old_state, rng)`` returns the replacement state;
        it should return something different from ``old_state`` for the
        Hamming distance to actually grow.
        """
        if count > len(self._states):
            raise LabelingError(f"cannot corrupt {count} of {len(self)} nodes")
        victims = rng.sample(sorted(self._states), count)
        return self.with_states(
            {v: mutator(v, self._states[v], rng) for v in victims}
        )

    # -- canonical serialization ----------------------------------------------

    def to_obj(self) -> list:
        """The labeling as a deterministic JSON-able object.

        A node-sorted ``[[node, encoded_state], ...]`` list under the
        tagged canonical encoding (:mod:`repro.util.canonical`), so equal
        labelings serialize to equal bytes — the property the service
        layer's content hashes require.  States with no canonical form
        raise :class:`~repro.errors.CanonicalError`.
        """
        from repro.util.canonical import encode_assignment

        return encode_assignment(self._states)

    @classmethod
    def from_obj(cls, obj: Any) -> "Labeling":
        """Rebuild a labeling from :meth:`to_obj` output (exact round trip).

        Canonical form only (see
        :func:`~repro.util.canonical.decode_assignment`): nodes strictly
        ascending, states under the strict ``decode_value``.
        """
        from repro.util.canonical import decode_assignment

        return cls(decode_assignment(obj, "labeling"))

    # -- metrics --------------------------------------------------------------

    def hamming_distance(self, other: "Labeling") -> int:
        """Number of nodes whose states differ (type-strictly: ``True``
        and ``1`` are different states, as verifiers may tell them apart)."""
        from repro.core.verifier import same_value

        if self._states.keys() != other._states.keys():
            raise LabelingError("labelings cover different node sets")
        return sum(
            1
            for v, state in self._states.items()
            if not same_value(other._states[v], state)
        )

    def max_state_bits(self) -> int:
        """Size of the largest state under the canonical codec."""
        return max((obj_bit_size(s) for s in self._states.values()), default=0)


@dataclass(frozen=True)
class Configuration:
    """A labeled, identified network: the object languages judge.

    Build with :meth:`Configuration.build` for defaulted ids and loose
    state mappings.
    """

    graph: Graph
    labeling: Labeling
    ids: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.labeling) != set(self.graph.nodes):
            raise LabelingError("labeling does not cover the graph's nodes")
        if not self.ids:
            object.__setattr__(self, "ids", contiguous_ids(list(self.graph.nodes)))
        validate_ids(list(self.graph.nodes), self.ids)

    @classmethod
    def build(
        cls,
        graph: Graph,
        states: Mapping[int, Any] | Labeling | None = None,
        ids: Mapping[int, int] | None = None,
    ) -> "Configuration":
        if states is None:
            labeling = Labeling.uniform(graph.nodes, None)
        elif isinstance(states, Labeling):
            labeling = states
        else:
            labeling = Labeling(states)
        return cls(graph=graph, labeling=labeling, ids=dict(ids) if ids else {})

    @property
    def n(self) -> int:
        return self.graph.n

    def uid(self, node: int) -> int:
        return self.ids[node]

    def node_of_uid(self, uid: int) -> int:
        for node, candidate in self.ids.items():
            if candidate == uid:
                return node
        raise LabelingError(f"no node has uid {uid}")

    def state(self, node: int) -> Any:
        return self.labeling[node]

    def with_labeling(self, labeling: Labeling | Mapping[int, Any]) -> "Configuration":
        if not isinstance(labeling, Labeling):
            labeling = Labeling(labeling)
        config = Configuration(graph=self.graph, labeling=labeling, ids=dict(self.ids))
        # The verifier's cached view scaffold depends only on the graph
        # and ids, both shared with the derived configuration; handing it
        # down keeps incremental re-verification (detection sessions,
        # soundness adversaries) free of per-round O(n) rebuilds.
        scaffold = self.__dict__.get("_view_scaffold")
        if scaffold is not None:
            object.__setattr__(config, "_view_scaffold", scaffold)
        return config

    def with_ids(self, ids: Mapping[int, int]) -> "Configuration":
        return Configuration(graph=self.graph, labeling=self.labeling, ids=dict(ids))
