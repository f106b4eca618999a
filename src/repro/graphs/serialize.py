"""Canonical graph serialization: deterministic, version-tagged codecs.

A :class:`~repro.graphs.graph.Graph` is immutable and stores its edges
in canonical sorted order, so it already *has* one obvious byte form —
this module pins it down and version-tags it so serialized graphs are
durable objects: two equal graphs (same node count, edge set, and
weights) produce identical bytes in any process, which is what lets a
content hash key the certification service's result cache and shard
affinity.

The object form is JSON-able and stdlib-only::

    {"format": "pls-graph/v1", "n": 7,
     "edges": [[0, 1], [1, 2], ...],
     "weights": [0.25, 1.5, ...] | None}

``weights`` aligns index-for-index with ``edges`` (a graph weights every
edge or none).  :func:`graph_hash` is the domain-separated content hash
(``PLS_GRAPH/v1``) used throughout :mod:`repro.service`.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import CanonicalError
from repro.graphs.graph import Graph
from repro.util.canonical import canonical_bytes, domain_hash

__all__ = [
    "GRAPH_FORMAT",
    "GRAPH_HASH_DOMAIN",
    "graph_canonical_bytes",
    "graph_from_obj",
    "graph_hash",
    "graph_to_obj",
]

#: Version tag carried inside every serialized graph.
GRAPH_FORMAT = "pls-graph/v1"

#: Domain tag under which graph content hashes are computed.
GRAPH_HASH_DOMAIN = "PLS_GRAPH/v1"

_GRAPH_KEYS = frozenset({"format", "n", "edges", "weights"})


def graph_to_obj(graph: Graph) -> dict[str, Any]:
    """``graph`` as a deterministic, version-tagged JSON-able object."""
    edges = graph.edges()
    weights: list[float] | None = None
    if graph.is_weighted:
        table = graph.weights()
        weights = [table[edge] for edge in edges]
    return {
        "format": GRAPH_FORMAT,
        "n": graph.n,
        "edges": [[u, v] for u, v in edges],
        "weights": weights,
    }


def graph_from_obj(obj: Any) -> Graph:
    """Rebuild a :class:`Graph` from :func:`graph_to_obj` output.

    Validation is strict — a malformed object raises
    :class:`~repro.errors.CanonicalError` rather than producing a graph
    that hashes differently from the one serialized.  Only the canonical
    form is accepted: exactly the four keys, and edges as ``[u, v]``
    with ``u < v`` in strictly ascending order (``Graph``'s own order),
    so ``canonical_bytes(obj)`` is the graph's canonical byte form.
    """
    if not isinstance(obj, dict):
        raise CanonicalError(f"graph object must be a dict, got {type(obj).__name__}")
    if obj.keys() != _GRAPH_KEYS:
        raise CanonicalError(
            f"graph object must have exactly the keys {sorted(_GRAPH_KEYS)}, "
            f"got {sorted(map(str, obj))}"
        )
    if obj["format"] != GRAPH_FORMAT:
        raise CanonicalError(
            f"unsupported graph format {obj['format']!r} "
            f"(expected {GRAPH_FORMAT!r})"
        )
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CanonicalError(f"graph node count {n!r} is not a non-negative int")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise CanonicalError("graph edges must be a list of [u, v] pairs")
    edges: list[tuple[int, int]] = []
    previous = (-1, -1)
    for pair in raw_edges:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in pair)
        ):
            raise CanonicalError(f"malformed edge entry {pair!r}")
        edge = (pair[0], pair[1])
        if not (edge[0] < edge[1] and edge > previous):
            raise CanonicalError(
                f"edge {pair!r} is out of canonical order "
                f"(u < v, edges strictly ascending)"
            )
        edges.append(edge)
        previous = edge
    raw_weights = obj["weights"]
    weights = None
    if raw_weights is not None:
        if not isinstance(raw_weights, list) or len(raw_weights) != len(edges):
            raise CanonicalError(
                "graph weights must align index-for-index with edges"
            )
        for w in raw_weights:
            if (
                isinstance(w, bool)
                or not isinstance(w, (int, float))
                or (isinstance(w, float) and not math.isfinite(w))
            ):
                raise CanonicalError(f"non-numeric edge weight {w!r}")
        weights = dict(zip(edges, raw_weights))
    try:
        return Graph(n, edges, weights)
    except Exception as error:
        raise CanonicalError(
            f"graph object does not describe a graph: {error}"
        ) from None


def graph_canonical_bytes(graph: Graph) -> bytes:
    """The graph's canonical byte form (see :func:`graph_to_obj`)."""
    return canonical_bytes(graph_to_obj(graph))


def graph_hash(graph: Graph) -> str:
    """Domain-separated content hash of ``graph`` (hex SHA-256)."""
    return domain_hash(GRAPH_HASH_DOMAIN, graph_canonical_bytes(graph))
