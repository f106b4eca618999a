"""Canonical, deterministic serialization for register-shaped values.

The service layer (:mod:`repro.service`) needs graphs, labelings, and
certificate assignments to become *durable* objects: byte strings that
two processes — or two machines — derive identically from equal Python
values, so content hashes can key caches and anti-replay registries.
JSON alone cannot carry the register vocabulary faithfully (tuples,
frozensets, bytes, dict-valued certificates), so this module defines a
**tagged encoding** into JSON-able objects plus one canonical byte
rendering:

* JSON-native scalars (``None``, ``bool``, ``int``, finite ``float``,
  ``str``) pass through unchanged — JSON already distinguishes ``1``
  from ``1.0`` from ``True``, and Python's float repr round-trips
  exactly.
* ``tuple`` becomes a plain JSON array (tuples are the dominant
  certificate shape); ``list``, ``set``, ``frozenset``, ``dict`` and
  ``bytes`` become ``{"__pls__": <tag>, "v": ...}`` wrappers.  Plain
  JSON objects therefore appear *only* as wrappers, so decoding is
  unambiguous: user dicts are always wrapped.
* Unordered containers are rendered in a deterministic element order
  (sorted by each element's canonical byte form), so equal sets encode
  to equal bytes regardless of construction history.
* Values with no faithful canonical form — NaN and infinities (JSON
  round-trips them unportably), arbitrary objects — raise
  :class:`~repro.errors.CanonicalError` instead of encoding wrongly.
* Decoding accepts canonical encodings only (see :func:`decode_value`),
  so a decoded value re-encodes to the very object it came from and a
  hash over the wire object equals the hash over the value.

Canonical bytes are ``json.dumps(..., sort_keys=True,
separators=(",", ":"), ensure_ascii=True)`` encoded as UTF-8, and every
content hash is **domain-separated**: :func:`domain_hash` prefixes the
SHA-256 input with an explicit tag (``PLS_GRAPH/v1``,
``PLS_ENVELOPE/v1``, ...) so a graph hash can never collide with an
envelope hash over the same bytes — the anti-replay argument needs
exactly this separation.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

from repro.errors import CanonicalError

__all__ = [
    "canonical_bytes",
    "decode_assignment",
    "decode_value",
    "domain_hash",
    "encode_assignment",
    "encode_value",
]

#: Wrapper key marking an encoded container; plain JSON objects appear
#: only as ``{"__pls__": tag, "v": payload}`` wrappers in the encoding.
_TAG_KEY = "__pls__"
_WRAPPER_KEYS = frozenset({_TAG_KEY, "v"})


def encode_value(value: Any) -> Any:
    """``value`` as a JSON-able object under the tagged canonical encoding."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CanonicalError(
                f"non-finite float {value!r} has no canonical form"
            )
        return value
    if isinstance(value, tuple):
        return [encode_value(item) for item in value]
    if isinstance(value, list):
        return {_TAG_KEY: "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        tag = "set" if isinstance(value, set) else "fset"
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda item: canonical_bytes(item))
        return {_TAG_KEY: tag, "v": encoded}
    if isinstance(value, dict):
        pairs = [
            [encode_value(key), encode_value(item)]
            for key, item in value.items()
        ]
        pairs.sort(key=lambda pair: canonical_bytes(pair[0]))
        return {_TAG_KEY: "dict", "v": pairs}
    if isinstance(value, bytes):
        return {_TAG_KEY: "bytes", "v": value.hex()}
    raise CanonicalError(
        f"value of type {type(value).__name__} has no canonical form"
    )


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value` (exact round trip), canonical only.

    Strict: every accepted ``obj`` is exactly what :func:`encode_value`
    renders for the decoded value, so ``canonical_bytes(obj)`` is the
    value's one canonical form.  Aliases that would decode to the same
    value from different bytes raise :class:`CanonicalError`: set members
    or dict keys out of canonical order or repeated, hex that is not
    lowercase and even-length, a wrapper with keys besides ``__pls__``
    and ``v``, and non-finite floats.  That is what lets the service
    hash a part's raw wire object instead of re-encoding its decoded
    value.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise CanonicalError(
                f"non-finite float {obj!r} has no canonical form"
            )
        return obj
    if isinstance(obj, list):
        return tuple(decode_value(item) for item in obj)
    if isinstance(obj, dict):
        return _decode_wrapper(obj)
    raise CanonicalError(
        f"object of type {type(obj).__name__} is not a canonical encoding"
    )


def _decode_wrapper(obj: dict) -> Any:
    if obj.keys() != _WRAPPER_KEYS:
        raise CanonicalError(
            f"encoded container must have exactly the keys "
            f"{sorted(_WRAPPER_KEYS)}, got {sorted(map(str, obj))}"
        )
    tag, payload = obj[_TAG_KEY], obj["v"]
    if tag == "bytes":
        if not isinstance(payload, str):
            raise CanonicalError("bytes payload must be a hex string")
        try:
            value = bytes.fromhex(payload)
        except ValueError:
            value = None
        if value is None or value.hex() != payload:
            raise CanonicalError(
                f"bytes payload {payload[:32]!r} is not lowercase, "
                f"even-length hex"
            )
        return value
    if not isinstance(payload, list):
        raise CanonicalError(f"{tag!r} payload must be a list")
    if tag == "list":
        return [decode_value(item) for item in payload]
    if tag == "set" or tag == "fset":
        _check_ascending(payload, tag)
        members = [decode_value(item) for item in payload]
        try:
            value = set(members) if tag == "set" else frozenset(members)
        except TypeError as error:
            raise CanonicalError(f"unhashable {tag} member: {error}") from None
        if len(value) != len(members):
            raise CanonicalError(f"{tag} members repeat a value")
        return value
    if tag == "dict":
        for pair in payload:
            if not isinstance(pair, list) or len(pair) != 2:
                raise CanonicalError(f"malformed dict pair {pair!r}")
        _check_ascending([pair[0] for pair in payload], "dict key")
        try:
            value = {
                decode_value(key): decode_value(item) for key, item in payload
            }
        except TypeError as error:
            raise CanonicalError(f"unhashable dict key: {error}") from None
        if len(value) != len(payload):
            raise CanonicalError("dict keys repeat a value")
        return value
    raise CanonicalError(f"unknown encoding tag {tag!r}")


def _check_ascending(items: list, what: str) -> None:
    """Raise unless ``items`` are strictly ascending by canonical bytes —
    the order :func:`encode_value` renders unordered containers in."""
    previous = None
    for item in items:
        rendered = canonical_bytes(item)
        if previous is not None and rendered <= previous:
            raise CanonicalError(
                f"{what} members are not in strictly ascending canonical order"
            )
        previous = rendered


def encode_assignment(assignment: Mapping[int, Any]) -> list:
    """A node -> value mapping as a node-sorted ``[[node, encoded], ...]``
    list: the wire layout of labelings and certificate assignments."""
    return [[node, encode_value(value)] for node, value in sorted(assignment.items())]


def decode_assignment(obj: Any, what: str = "assignment") -> dict[int, Any]:
    """Inverse of :func:`encode_assignment`, canonical only: ``[node,
    value]`` pairs with int nodes in strictly ascending order, values
    under :func:`decode_value`.  ``what`` names the section in errors."""
    if not isinstance(obj, (list, tuple)):
        raise CanonicalError(
            f"{what} must be a list of [node, value] pairs, "
            f"got {type(obj).__name__}"
        )
    assignment: dict[int, Any] = {}
    previous = None
    for pair in obj:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not isinstance(pair[0], int)
            or isinstance(pair[0], bool)
        ):
            raise CanonicalError(f"malformed {what} entry {pair!r}")
        node = pair[0]
        if previous is not None and node <= previous:
            raise CanonicalError(
                f"{what} entry for node {node} after node {previous}: "
                f"nodes must be strictly ascending"
            )
        assignment[node] = decode_value(pair[1])
        previous = node
    return assignment


def canonical_bytes(obj: Any) -> bytes:
    """The one byte rendering of an encoded (JSON-able) object.

    Key order, separators, and escaping are all pinned, so equal
    objects produce equal bytes on every platform and Python version.
    """
    try:
        text = json.dumps(
            obj,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as error:
        raise CanonicalError(f"not canonically serializable: {error}") from None
    return text.encode("utf-8")


def domain_hash(domain: str, payload: bytes) -> str:
    """Hex SHA-256 of ``payload`` under an explicit domain tag.

    The tag (e.g. ``"PLS_GRAPH/v1"``) is prefixed with a NUL separator,
    so hashes from different domains can never collide on equal
    payloads — the separation the nullifier anti-replay scheme relies
    on.
    """
    digest = hashlib.sha256()
    digest.update(domain.encode("ascii"))
    digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()
