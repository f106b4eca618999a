"""Canonical proof envelopes and the anti-replay nullifier registry.

A :class:`ProofEnvelope` is the durable form of one certification
request: *scheme name + coerced params + graph + labeling [+
certificates] + client nonce*, all under the deterministic tagged
encoding of :mod:`repro.util.canonical`.  Its canonical byte form
round-trips exactly (``from_bytes(env.to_bytes()) == env``), which gives
three derived identities, each in its own hash domain:

``body_hash`` (domain ``PLS_ENVELOPE/v1``)
    Content identity *excluding the nonce*: two envelopes asking for the
    same verification of the same configuration share a body hash, which
    is the service's cache key and the seed for deterministic scheme
    builds.  Computed over the *part hashes* (graph, labeling,
    certificates) rather than the payloads, so a resubmission under a
    fresh nonce re-hashes O(1) data, not O(n).

``nullifier`` (domain ``PLS_NULLIFIER/v1``)
    Anti-replay identity *including the nonce*: the
    :class:`NullifierRegistry` spends each nullifier once, so replaying
    a captured envelope verbatim is rejected while honest resubmission
    under a fresh nonce is served (from cache, after the first time).

``graph_hash`` (domain ``PLS_GRAPH/v1``)
    The graph payload travels with its own content hash binding; a
    mismatch (payload tampered after hashing) fails envelope parsing.

**Canonical only.**  A part's hash is taken over the canonical bytes of
its wire object, and the parts are accepted only in canonical form:
set members and dict keys in canonical order without repeats, lowercase
even-length hex, bare ``{"__pls__", "v"}`` wrappers, strictly ascending
labeling and certificate nodes, and edges in ``Graph``'s order.  So
every accepted wire object *is* the encoding of the value it decodes
to, and the hash of the raw part equals the hash of the decoded value.
That is what lets :class:`WireEnvelope` derive the identities without
decoding anything, and it keeps anti-replay sound: no re-encoding of a
captured envelope (a permuted set, say) can mint a fresh nullifier for
the same content.  Whitespace and object key order are free, since
``canonical_bytes`` re-renders the parsed JSON.

Both ends of the wire work on bytes.  A :class:`ProofEnvelope` memoises
the canonical bytes of each part, shared across :meth:`~ProofEnvelope.
with_nonce` copies, and :meth:`~ProofEnvelope.to_bytes` splices them
around the fresh nonce.  The service parses every input into a
:class:`WireEnvelope` (identity from bytes → nullifier → LRU) and
decodes the payloads only on a cache miss.

Certificates are optional: an envelope without them asks the service to
run the scheme's own marker (honest prover) before deciding; an envelope
with them asks for verification of exactly that assignment — the
corrupted-labeling and adversarial workflows.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.graph import Graph
from repro.graphs.serialize import (
    GRAPH_HASH_DOMAIN,
    graph_from_obj,
    graph_to_obj,
)
from repro.util.canonical import (
    canonical_bytes,
    decode_assignment,
    decode_value,
    domain_hash,
    encode_assignment,
    encode_value,
)

__all__ = [
    "ENVELOPE_FORMAT",
    "ENVELOPE_HASH_DOMAIN",
    "NULLIFIER_DOMAIN",
    "NullifierRegistry",
    "ProofEnvelope",
    "WireEnvelope",
]

#: Version tag carried inside every serialized envelope.
ENVELOPE_FORMAT = "pls-envelope/v1"

#: Domain tag for envelope body (content) hashes — the cache key domain.
ENVELOPE_HASH_DOMAIN = "PLS_ENVELOPE/v1"

#: Domain tag for labeling part hashes inside the body hash.
LABELING_HASH_DOMAIN = "PLS_LABELING/v1"

#: Domain tag for certificate-assignment part hashes inside the body hash.
CERTS_HASH_DOMAIN = "PLS_CERTS/v1"

#: Domain tag for anti-replay nullifiers (body hash + nonce).
NULLIFIER_DOMAIN = "PLS_NULLIFIER/v1"

#: Refusal for bodies whose nesting exhausts the decoder's recursion
#: (JSON parse or canonical decode) — malformed input, not a crash.
_TOO_DEEP = "envelope nests too deeply to decode"

#: Hash domain of each payload part.
_PART_DOMAINS = {
    "graph": GRAPH_HASH_DOMAIN,
    "labeling": LABELING_HASH_DOMAIN,
    "certificates": CERTS_HASH_DOMAIN,
}


def _part_hash(part: str, rendered: bytes) -> str:
    """Hash of one payload part's canonical bytes; absent certificates
    (``null``) hash to ``-``."""
    if part == "certificates" and rendered == b"null":
        return "-"
    return domain_hash(_PART_DOMAINS[part], rendered)


def _body_hash(
    version: str,
    scheme: str,
    params: Any,
    graph_hash: str,
    labeling_hash: str,
    certificates_hash: str,
) -> str:
    """The body hash over the encoded ``params`` and the part hashes."""
    body = {
        "format": version,
        "scheme": scheme,
        "params": params,
        "graph_hash": graph_hash,
        "labeling_hash": labeling_hash,
        "certificates_hash": certificates_hash,
    }
    return domain_hash(ENVELOPE_HASH_DOMAIN, canonical_bytes(body))


def _nullifier(body_hash: str, nonce: str) -> str:
    payload = f"{body_hash}:{nonce}".encode("utf-8")
    return domain_hash(NULLIFIER_DOMAIN, payload)


@dataclass(frozen=True)
class ProofEnvelope:
    """One certification request in canonical, durable form.

    ``params`` must already be coerced (plain numbers, as
    :meth:`repro.core.catalog.SchemeSpec.resolve_params` returns them);
    the service re-validates against the spec on submission regardless.
    ``certificates`` of ``None`` means "run the honest marker".
    """

    scheme: str
    params: dict[str, Any]
    graph: Graph
    labeling: Labeling
    certificates: dict[int, Any] | None = None
    nonce: str = ""
    version: str = ENVELOPE_FORMAT
    #: Memoised canonical part bytes (keyed by part) and hashes (keyed
    #: ``<part>_hash`` and ``body_hash``), shared across
    #: :meth:`with_nonce` copies, so a fresh-nonce resubmission neither
    #: re-renders nor re-hashes O(n) data.  Not part of equality.
    _memo: dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- canonical parts -----------------------------------------------------

    def _part_bytes(self, part: str) -> bytes:
        """Canonical bytes of one wire part (graph, labeling,
        certificates or params), rendered once."""
        rendered = self._memo.get(part)
        if rendered is None:
            if part == "graph":
                obj = graph_to_obj(self.graph)
            elif part == "labeling":
                obj = self.labeling.to_obj()
            elif part == "certificates":
                obj = (
                    None
                    if self.certificates is None
                    else encode_assignment(self.certificates)
                )
            else:
                obj = encode_value(dict(self.params))
            rendered = self._memo[part] = canonical_bytes(obj)
        return rendered

    def _hash(self, part: str) -> str:
        key = f"{part}_hash"
        cached = self._memo.get(key)
        if cached is None:
            cached = _part_hash(part, self._part_bytes(part))
            self._memo[key] = cached
        return cached

    @property
    def graph_hash(self) -> str:
        """Domain-separated content hash of the graph payload."""
        return self._hash("graph")

    @property
    def labeling_hash(self) -> str:
        """Domain-separated content hash of the labeling payload."""
        return self._hash("labeling")

    @property
    def certificates_hash(self) -> str:
        """Content hash of the certificate assignment (``-`` when absent)."""
        return self._hash("certificates")

    @property
    def body_hash(self) -> str:
        """Content identity excluding the nonce — the service cache key.

        Covers (version, scheme, params, graph hash, labeling hash,
        certificates hash); O(1) to recompute once the part hashes are
        memoised.
        """
        cached = self._memo.get("body_hash")
        if cached is None:
            cached = _body_hash(
                self.version,
                self.scheme,
                encode_value(dict(self.params)),
                self.graph_hash,
                self.labeling_hash,
                self.certificates_hash,
            )
            self._memo["body_hash"] = cached
        return cached

    @property
    def nullifier(self) -> str:
        """Anti-replay identity: body hash bound to this nonce."""
        return _nullifier(self.body_hash, self.nonce)

    # -- derived envelopes ---------------------------------------------------

    def with_nonce(self, nonce: str) -> "ProofEnvelope":
        """Copy under a fresh nonce, sharing the memoised parts and hashes."""
        return replace(self, nonce=nonce, _memo=self._memo)

    # -- wire form -----------------------------------------------------------

    def to_obj(self) -> dict[str, Any]:
        """The full JSON-able wire object (payloads plus hash bindings)."""
        return {
            "format": self.version,
            "scheme": self.scheme,
            "params": encode_value(dict(self.params)),
            "graph": graph_to_obj(self.graph),
            "graph_hash": self.graph_hash,
            "labeling": self.labeling.to_obj(),
            "certificates": (
                None
                if self.certificates is None
                else encode_assignment(self.certificates)
            ),
            "nonce": self.nonce,
        }

    def to_bytes(self) -> bytes:
        """Canonical byte form (round-trips through :meth:`from_bytes`).

        Equal to ``canonical_bytes(self.to_obj())``, spliced from the
        memoised part bytes: the keys in sorted order, only the nonce
        rendered afresh.
        """
        parts = [
            b'{"certificates":',
            self._part_bytes("certificates"),
            b',"format":',
            canonical_bytes(self.version),
            b',"graph":',
            self._part_bytes("graph"),
            b',"graph_hash":',
            canonical_bytes(self.graph_hash),
            b',"labeling":',
            self._part_bytes("labeling"),
            b',"nonce":',
            canonical_bytes(self.nonce),
            b',"params":',
            self._part_bytes("params"),
            b',"scheme":',
            canonical_bytes(self.scheme),
            b"}",
        ]
        return b"".join(parts)

    @classmethod
    def from_obj(
        cls,
        obj: Any,
        graph_cache: Mapping[str, Graph] | None = None,
    ) -> "ProofEnvelope":
        """Parse and validate a wire object.

        Strict: unknown format tags, malformed or non-canonical
        sections, non-string nonces, a graph payload that does not hash
        to its declared binding, and values nested too deeply to decode
        all raise :class:`~repro.errors.EnvelopeError`.  The binding is
        checked on the raw graph object, before any graph is built.

        ``graph_cache`` maps graph hashes to already-parsed graphs; when
        the wire object's declared ``graph_hash`` is present there, the
        cached :class:`~repro.graphs.graph.Graph` (with whatever CSR
        mirror it has accumulated) is reused and the O(m) payload parse
        and re-hash are skipped — the warm path of the service's
        graph-affine workers.
        """
        return WireEnvelope(obj, graph_cache=graph_cache).decode()

    @classmethod
    def from_bytes(
        cls,
        payload: bytes | str,
        graph_cache: Mapping[str, Graph] | None = None,
    ) -> "ProofEnvelope":
        """Parse an envelope from its JSON byte form."""
        return WireEnvelope.from_bytes(payload, graph_cache=graph_cache).decode()

    def __repr__(self) -> str:
        certs = "honest" if self.certificates is None else "supplied"
        return (
            f"ProofEnvelope({self.scheme}, n={self.graph.n}, "
            f"certificates={certs}, nonce={self.nonce[:8]!r})"
        )


class WireEnvelope:
    """An envelope parsed as far as its identity, its payloads still raw.

    The one parse path for wire input.  Parsing runs ``json.loads`` once,
    checks format, scheme and nonce, hashes the raw graph
    object and checks it against the declared ``graph_hash`` (so a
    false binding is refused before any graph is built), then hashes
    the raw labeling and certificates and derives ``body_hash`` and
    ``nullifier``.  Nothing O(n) is decoded: the service spends the
    nullifier and looks up its verdict cache on these identities, and
    calls :meth:`decode` only on a miss.  Canonical-only decoding (see
    the module docstring) makes the raw-part hashes equal the hashes
    of the decoded envelope.
    """

    __slots__ = (
        "scheme",
        "nonce",
        "graph_hash",
        "labeling_hash",
        "certificates_hash",
        "body_hash",
        "nullifier",
        "_obj",
        "_payload",
        "_graph",
    )

    def __init__(
        self,
        obj: Any,
        graph_cache: Mapping[str, Graph] | None = None,
        payload: bytes | str | None = None,
    ) -> None:
        """Parse a wire object (``json.loads`` output) to its identity.

        ``payload`` is the bytes ``obj`` was parsed from, kept so a
        pool shard can be sent them as they came; ``graph_cache`` is as
        in :meth:`ProofEnvelope.from_obj`.
        """
        try:
            self._parse(obj, graph_cache)
        except CanonicalError as error:
            raise EnvelopeError(str(error)) from None
        except RecursionError:
            raise EnvelopeError(_TOO_DEEP) from None
        self._payload = payload

    @classmethod
    def from_bytes(
        cls,
        payload: bytes | str,
        graph_cache: Mapping[str, Graph] | None = None,
    ) -> "WireEnvelope":
        """Parse wire bytes (any whitespace and key order) to an identity."""
        try:
            obj = json.loads(payload)
        except ValueError as error:
            # JSONDecodeError, UnicodeDecodeError, and integers past the
            # interpreter's digit limit are all ValueErrors.
            raise EnvelopeError(f"envelope is not valid JSON: {error}") from None
        except RecursionError:
            raise EnvelopeError(_TOO_DEEP) from None
        return cls(obj, graph_cache=graph_cache, payload=payload)

    def _parse(self, obj: Any, graph_cache: Mapping[str, Graph] | None) -> None:
        if not isinstance(obj, dict):
            raise EnvelopeError(
                f"envelope must be an object, got {type(obj).__name__}"
            )
        if obj.get("format") != ENVELOPE_FORMAT:
            raise EnvelopeError(
                f"unsupported envelope format {obj.get('format')!r} "
                f"(expected {ENVELOPE_FORMAT!r})"
            )
        scheme = obj.get("scheme")
        if not isinstance(scheme, str) or not scheme:
            raise EnvelopeError(f"scheme name {scheme!r} is not a string")
        nonce = obj.get("nonce", "")
        if not isinstance(nonce, str):
            raise EnvelopeError(f"nonce {nonce!r} is not a string")
        try:
            nonce.encode("utf-8")
        except UnicodeEncodeError:
            raise EnvelopeError("nonce is not valid Unicode text") from None
        declared = obj.get("graph_hash")
        graph = None
        if graph_cache is not None and isinstance(declared, str):
            graph = graph_cache.get(declared)
        if graph is not None:
            # The cache key *is* the verified hash of this graph.
            graph_hash = declared
        else:
            graph_hash = _part_hash("graph", canonical_bytes(obj.get("graph")))
            if declared is not None and declared != graph_hash:
                raise EnvelopeError(
                    "graph payload does not match its content-hash binding"
                )
        self.scheme = scheme
        self.nonce = nonce
        self.graph_hash = graph_hash
        self.labeling_hash = _part_hash(
            "labeling", canonical_bytes(obj.get("labeling"))
        )
        self.certificates_hash = _part_hash(
            "certificates", canonical_bytes(obj.get("certificates"))
        )
        self.body_hash = _body_hash(
            ENVELOPE_FORMAT,
            scheme,
            obj.get("params"),
            graph_hash,
            self.labeling_hash,
            self.certificates_hash,
        )
        self.nullifier = _nullifier(self.body_hash, nonce)
        self._obj = obj
        self._graph = graph

    def to_bytes(self) -> bytes:
        """Wire bytes of this envelope: the parsed payload when there is
        one (a pool shard re-parses exactly what arrived), else the raw
        object's canonical rendering."""
        if self._payload is None:
            return canonical_bytes(self._obj)
        if isinstance(self._payload, str):
            return self._payload.encode("utf-8")
        return bytes(self._payload)

    def decode(self) -> ProofEnvelope:
        """Decode the raw payloads into a :class:`ProofEnvelope`.

        Releases the raw object and payload (they are not needed once
        decoded, and the decide that follows should not carry them).
        The returned envelope's hashes are the ones derived at parse
        time.  Decode failures raise :class:`~repro.errors.EnvelopeError`.
        """
        obj, graph = self._obj, self._graph
        if obj is None:
            raise EnvelopeError("wire envelope was already decoded")
        self._obj = self._payload = self._graph = None
        try:
            params = decode_value(obj.get("params"))
            if not isinstance(params, dict) or not all(
                isinstance(k, str) for k in params
            ):
                raise EnvelopeError("params must decode to a string-keyed dict")
            if graph is None:
                graph = graph_from_obj(obj.get("graph"))
            labeling = Labeling.from_obj(obj.get("labeling"))
            certificates = obj.get("certificates")
            if certificates is not None:
                certificates = decode_assignment(certificates, "certificates")
        except CanonicalError as error:
            raise EnvelopeError(str(error)) from None
        except RecursionError:
            raise EnvelopeError(_TOO_DEEP) from None
        memo = {
            "graph_hash": self.graph_hash,
            "labeling_hash": self.labeling_hash,
            "certificates_hash": self.certificates_hash,
            "body_hash": self.body_hash,
        }
        return ProofEnvelope(
            scheme=self.scheme,
            params=params,
            graph=graph,
            labeling=labeling,
            certificates=certificates,
            nonce=self.nonce,
            _memo=memo,
        )

    def __repr__(self) -> str:
        return f"WireEnvelope({self.scheme}, body={self.body_hash[:12]})"


class NullifierRegistry:
    """Spent-nullifier set with bounded memory and FIFO eviction.

    Thread-safe; :meth:`spend` registers a nullifier exactly once and
    raises :class:`~repro.errors.ReplayError` on resubmission.  Bounding
    the registry keeps the service's memory flat under sustained
    traffic — the oldest nullifiers age out first, which bounds the
    replay-protection *window* rather than the protection itself (the
    cache in front absorbs honest resubmissions long before then).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._spent: dict[str, None] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._spent)

    def seen(self, nullifier: str) -> bool:
        with self._lock:
            return nullifier in self._spent

    def spend(self, nullifier: str) -> None:
        """Register ``nullifier``; raise :class:`ReplayError` if spent."""
        with self._lock:
            if nullifier in self._spent:
                raise ReplayError(
                    f"nullifier {nullifier[:16]}... already spent "
                    f"(replayed envelope)"
                )
            self._spent[nullifier] = None
            while len(self._spent) > self.capacity:
                self._spent.pop(next(iter(self._spent)))
