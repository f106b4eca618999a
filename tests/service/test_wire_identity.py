"""Identity from bytes: spliced encodes, decode-free hits, canonical-only.

The service derives an envelope's ``body_hash`` and nullifier from the
canonical bytes of its raw wire parts and decodes the payloads only on a
cache miss.  That is sound only if (a) the client's spliced
``to_bytes()`` is exactly ``canonical_bytes(to_obj())``, (b) hashing a
raw part gives the same hash as hashing the decoded value, which the
canonical-only decoders guarantee, and (c) every non-canonical alias of
a body is refused rather than identified afresh.  These tests pin all
three, plus the bounds that follow: a false graph binding is refused
before any graph is built, and a cache hit decodes nothing.
"""

from __future__ import annotations

import hashlib
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.serialize as serialize_module
import repro.service.envelope as envelope_module
import repro.util.canonical as canonical_module
from repro.core import catalog
from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.generators import connected_gnp, random_tree
from repro.graphs.serialize import graph_from_obj, graph_hash, graph_to_obj
from repro.graphs.weighted import weighted_copy
from repro.service import CertificationService, ProofEnvelope, build_envelope
from repro.service.envelope import (
    CERTS_HASH_DOMAIN,
    LABELING_HASH_DOMAIN,
    WireEnvelope,
)
from repro.service.server import _ShardPool
from repro.util.canonical import (
    canonical_bytes,
    decode_value,
    domain_hash,
    encode_assignment,
    encode_value,
)
from repro.util.rng import make_rng

from test_envelope import GRAPHS, VALUES

#: SHA-256 over ``"<scheme> <variant> <body_hash> <nullifier>"`` lines for
#: every catalog scheme (see :func:`_identity_lines`), as derived by the
#: decode-then-re-encode service: canonical bodies keep their cache keys,
#: and so their ``_rng_seed``-derived verdicts.
PINNED_IDENTITIES = (
    "df0cfbcf39ca987021a43b9b742fd411a3c83fca6f47191488c18c7265d36949"
)

VARIANTS = ({}, {"corrupt": 2}, {"honest_certificates": False})


def _identity_lines(identify) -> str:
    lines = []
    for name in catalog.names():
        for kwargs in VARIANTS:
            envelope = build_envelope(name, n=12, seed=5, **kwargs)
            body_hash, nullifier = identify(envelope)
            lines.append(f"{name} {sorted(kwargs)} {body_hash} {nullifier}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _assert_spliced(envelope: ProofEnvelope) -> None:
    """Spliced bytes == canonical bytes; every identity agrees."""
    for env in (envelope, envelope.with_nonce("fresh-nonce")):
        payload = env.to_bytes()
        assert payload == canonical_bytes(env.to_obj())
        assert env.graph_hash == graph_hash(env.graph)
        assert env.labeling_hash == domain_hash(
            LABELING_HASH_DOMAIN, canonical_bytes(env.labeling.to_obj())
        )
        if env.certificates is not None:
            assert env.certificates_hash == domain_hash(
                CERTS_HASH_DOMAIN,
                canonical_bytes(encode_assignment(env.certificates)),
            )
        wire = WireEnvelope.from_bytes(payload)
        identity = (
            env.graph_hash,
            env.labeling_hash,
            env.certificates_hash,
            env.body_hash,
            env.nullifier,
        )
        assert (
            wire.graph_hash,
            wire.labeling_hash,
            wire.certificates_hash,
            wire.body_hash,
            wire.nullifier,
        ) == identity
        decoded = wire.decode()
        assert decoded == env
        # A decoded envelope with no memo re-derives the same identity
        # from its values: raw-part hashes equal value hashes.
        fresh = ProofEnvelope(
            scheme=decoded.scheme,
            params=decoded.params,
            graph=decoded.graph,
            labeling=decoded.labeling,
            certificates=decoded.certificates,
            nonce=decoded.nonce,
        )
        assert (fresh.body_hash, fresh.nullifier) == identity[3:]
        assert fresh.to_bytes() == payload


# ---------------------------------------------------------------------------
# Client side: the spliced encode.
# ---------------------------------------------------------------------------


class TestSplicedBytes:
    @pytest.mark.parametrize("name", catalog.names())
    @pytest.mark.parametrize(
        "honest", [True, False], ids=["supplied-certs", "marker"]
    )
    def test_every_catalog_scheme(self, name, honest):
        _assert_spliced(
            build_envelope(name, n=12, seed=5, honest_certificates=honest)
        )

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_every_graph(self, name):
        graph = GRAPHS[name]
        _assert_spliced(
            ProofEnvelope(
                scheme="s",
                params={"eps": 0.5, "k": 3},
                graph=graph,
                labeling=Labeling({v: (v, None) for v in graph.nodes}),
                certificates={v: v % 3 for v in graph.nodes},
                nonce="abc",
            )
        )

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_value_zoo_as_states_and_certificates(self, value):
        graph = weighted_copy(random_tree(6, make_rng(3)), make_rng(4))
        _assert_spliced(
            ProofEnvelope(
                scheme="s",
                params={"p": value} if isinstance(value, int) else {},
                graph=graph,
                labeling=Labeling({v: value for v in graph.nodes}),
                certificates={v: (v, value) for v in graph.nodes},
                nonce="é\n\"quoted\"",
            )
        )

    def test_encode_is_memoised_across_nonces(self, monkeypatch):
        envelope = build_envelope("spanning-tree-ptr", n=40, seed=1)
        first = envelope.with_nonce("a").to_bytes()

        def boom(*args, **kwargs):
            raise AssertionError("part re-rendered")

        monkeypatch.setattr(envelope_module, "graph_to_obj", boom)
        monkeypatch.setattr(Labeling, "to_obj", boom)
        monkeypatch.setattr(envelope_module, "encode_assignment", boom)
        second = envelope.with_nonce("b").to_bytes()
        assert second == first.replace(b'"nonce":"a"', b'"nonce":"b"')


class TestPinnedIdentities:
    def test_client_identities_unchanged(self):
        assert (
            _identity_lines(lambda env: (env.body_hash, env.nullifier))
            == PINNED_IDENTITIES
        )

    def test_served_identities_unchanged(self):
        service = CertificationService(cache_size=1)

        def served(env):
            result = service.submit(env.to_bytes())
            assert (result.body_hash, result.nullifier) == (
                env.body_hash,
                env.nullifier,
            )
            return result.body_hash, result.nullifier

        assert _identity_lines(served) == PINNED_IDENTITIES


# ---------------------------------------------------------------------------
# Canonical-only decoders.
# ---------------------------------------------------------------------------

#: Non-canonical aliases a lenient decoder would fold onto a canonical
#: value (each with the canonical twin it aliases, or ``None``).
VALUE_ALIASES = {
    "set-unsorted": (
        {"__pls__": "fset", "v": [2, 1]},
        {"__pls__": "fset", "v": [1, 2]},
    ),
    "set-duplicate": (
        {"__pls__": "set", "v": [1, 1]},
        {"__pls__": "set", "v": [1]},
    ),
    "set-int-bool-collapse": ({"__pls__": "fset", "v": [1, True]}, None),
    "set-int-float-collapse": ({"__pls__": "fset", "v": [1, 1.0]}, None),
    "dict-unsorted": (
        {"__pls__": "dict", "v": [["b", 1], ["a", 2]]},
        {"__pls__": "dict", "v": [["a", 2], ["b", 1]]},
    ),
    "dict-duplicate-key": (
        {"__pls__": "dict", "v": [["a", 1], ["a", 2]]},
        {"__pls__": "dict", "v": [["a", 2]]},
    ),
    "hex-uppercase": (
        {"__pls__": "bytes", "v": "00FF"},
        {"__pls__": "bytes", "v": "00ff"},
    ),
    "hex-odd-length": ({"__pls__": "bytes", "v": "abc"}, None),
    "hex-whitespace": (
        {"__pls__": "bytes", "v": "00 ff"},
        {"__pls__": "bytes", "v": "00ff"},
    ),
    "wrapper-extra-key": (
        {"__pls__": "list", "v": [1], "x": 0},
        {"__pls__": "list", "v": [1]},
    ),
    "wrapper-missing-payload": ({"__pls__": "list"}, None),
    "payload-not-a-list": ({"__pls__": "list", "v": "ab"}, None),
    "unhashable-member": (
        {"__pls__": "fset", "v": [{"__pls__": "list", "v": []}]},
        None,
    ),
}


class TestCanonicalOnlyDecoders:
    @pytest.mark.parametrize("name", sorted(VALUE_ALIASES))
    def test_value_alias_rejected(self, name):
        alias, twin = VALUE_ALIASES[name]
        with pytest.raises(CanonicalError):
            decode_value(alias)
        if twin is not None:
            decode_value(twin)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(CanonicalError):
            decode_value([1, value])

    @pytest.mark.parametrize(
        "edges",
        [[[1, 0]], [[1, 2], [0, 1]], [[0, 1], [0, 1]]],
        ids=["reversed-pair", "unsorted", "duplicate"],
    )
    def test_edge_order_alias_rejected(self, edges):
        obj = {"format": "pls-graph/v1", "n": 3, "edges": edges, "weights": None}
        with pytest.raises(CanonicalError):
            graph_from_obj(obj)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(extra=1),
            lambda o: o.pop("weights"),
            lambda o: o.update(weights=[float("inf")] * len(o["edges"])),
        ],
        ids=["extra-key", "missing-key", "infinite-weight"],
    )
    def test_graph_object_shape_rejected(self, mutate):
        obj = graph_to_obj(GRAPHS["path"])
        mutate(obj)
        with pytest.raises(CanonicalError):
            graph_from_obj(obj)

    def test_labeling_nodes_must_ascend(self):
        with pytest.raises(CanonicalError):
            Labeling.from_obj([[1, None], [0, None]])

    def test_certificate_nodes_must_ascend(self):
        obj = build_envelope("spanning-tree-ptr", n=8, seed=2).to_obj()
        obj["certificates"].reverse()
        with pytest.raises(EnvelopeError, match="strictly ascending"):
            ProofEnvelope.from_obj(obj)


#: JSON-shaped trees that are often, but not always, canonical encodings.
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text("ab", max_size=2),
)


def _wrappers(children):
    small = st.lists(children, max_size=3)
    return st.one_of(
        st.lists(children, max_size=3),
        st.fixed_dictionaries(
            {"__pls__": st.sampled_from(["list", "set", "fset"]), "v": small}
        ),
        st.fixed_dictionaries(
            {
                "__pls__": st.just("dict"),
                "v": st.lists(st.lists(children, min_size=2, max_size=2), max_size=3),
            }
        ),
        st.fixed_dictionaries(
            {"__pls__": st.just("bytes"), "v": st.text("0aF ", max_size=4)}
        ),
    )


JSON_TREES = st.recursive(_LEAVES, _wrappers, max_leaves=8)


class TestStrictRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(JSON_TREES)
    def test_accepted_objects_are_their_own_encoding(self, obj):
        """Whatever decodes re-encodes to the very bytes it came from."""
        try:
            value = decode_value(obj)
        except CanonicalError:
            return
        assert canonical_bytes(encode_value(value)) == canonical_bytes(obj)


# ---------------------------------------------------------------------------
# Server side: one parse path, decode only on a miss.
# ---------------------------------------------------------------------------


def _forbid_decoding(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a cache hit decoded a payload")

    monkeypatch.setattr(envelope_module, "graph_from_obj", boom)
    monkeypatch.setattr(serialize_module, "graph_from_obj", boom)
    monkeypatch.setattr(envelope_module, "decode_value", boom)
    monkeypatch.setattr(canonical_module, "decode_value", boom)
    monkeypatch.setattr(Labeling, "from_obj", classmethod(boom))


class TestDecodeOnMiss:
    @pytest.mark.parametrize("form", ["bytes", "str", "wire-dict", "pretty"])
    def test_hot_submit_decodes_nothing(self, form, monkeypatch):
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=6, corrupt=1)
        service = CertificationService()
        cold = service.submit(envelope.to_bytes())
        assert not cold.cache_hit
        _forbid_decoding(monkeypatch)
        again = envelope.with_nonce("hot")
        body = {
            "bytes": again.to_bytes(),
            "str": again.to_bytes().decode(),
            "wire-dict": json.loads(again.to_bytes()),
            "pretty": json.dumps(json.loads(again.to_bytes()), indent=2),
        }[form]
        hot = service.submit(body)
        assert hot.cache_hit
        assert (hot.accepted, hot.rejecting) == (cold.accepted, cold.rejecting)
        [(kind, result)] = service.submit_settled(
            [json.loads(envelope.with_nonce("batch").to_bytes())]
        )
        assert kind == "ok" and result.cache_hit

    def test_whitespace_and_key_order_share_the_body_hash(self):
        envelope = build_envelope("bfs-tree", n=16, seed=7)
        service = CertificationService()
        cold = service.submit(envelope.to_bytes())
        obj = envelope.with_nonce("reordered").to_obj()
        obj["graph"] = dict(reversed(list(obj["graph"].items())))
        reordered = json.dumps(dict(reversed(list(obj.items())))).encode()
        pretty = json.dumps(
            envelope.with_nonce("pretty").to_obj(), indent=2
        ).encode()
        for body, nonce in ((reordered, "reordered"), (pretty, "pretty")):
            assert body != envelope.with_nonce(nonce).to_bytes()
            result = service.submit(body)
            assert result.cache_hit
            assert result.body_hash == cold.body_hash == envelope.body_hash
            assert result.nullifier == envelope.with_nonce(nonce).nullifier

    def test_permuted_set_replay_is_refused(self):
        envelope = build_envelope("spanning-tree-ptr", n=8, seed=8)
        certificates = dict(envelope.certificates)
        certificates[0] = frozenset({1, 2, 3})
        spent = ProofEnvelope(
            scheme=envelope.scheme,
            params=envelope.params,
            graph=envelope.graph,
            labeling=envelope.labeling,
            certificates=certificates,
            nonce="captured",
        )
        service = CertificationService()
        first = service.submit(spent.to_bytes())
        assert not first.cache_hit
        with pytest.raises(ReplayError):
            service.submit(spent.to_bytes())
        payload = spent.to_bytes()
        canonical = b'{"__pls__":"fset","v":[1,2,3]}'
        assert canonical in payload
        permuted = payload.replace(canonical, b'{"__pls__":"fset","v":[3,1,2]}')
        with pytest.raises(EnvelopeError, match="ascending canonical order"):
            service.submit(permuted)
        assert service.stats["cache_hits"] == 0

    def test_false_binding_refused_before_the_graph_is_built(self):
        huge = {
            "format": "pls-envelope/v1",
            "scheme": "spanning-tree-ptr",
            "params": {"__pls__": "dict", "v": []},
            "graph": {
                "format": "pls-graph/v1",
                "n": 3_000_000,
                "edges": [],
                "weights": None,
            },
            "graph_hash": "0" * 64,
            "labeling": [],
            "certificates": None,
            "nonce": "n",
        }
        payload = json.dumps(huge).encode()
        assert len(payload) < 600
        service = CertificationService()
        for parse in (
            ProofEnvelope.from_bytes,
            lambda body: ProofEnvelope.from_obj(json.loads(body)),
            service.submit,
        ):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(EnvelopeError, match="content-hash binding"):
                    parse(payload)
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Building the graph costs seconds and hundreds of MiB.
            assert elapsed < 0.5
            assert peak < 4 * 2**20

    def test_pool_ships_the_bytes_it_received(self):
        envelope = build_envelope("bipartite", n=8, seed=9)
        body = json.dumps(envelope.to_obj(), indent=1).encode()
        shipped = []

        class Recorder:
            def submit(self, fn, payload):
                shipped.append(payload)

        pool = _ShardPool(0)
        pool._shards = [Recorder()]
        pool.submit(WireEnvelope.from_bytes(body))
        assert shipped == [body]

    def test_pool_serves_pretty_bodies(self):
        envelopes = [
            build_envelope("spanning-tree-ptr", n=16, seed=s) for s in range(2)
        ]
        with CertificationService(workers=1) as service:
            results = service.submit_many(
                [json.dumps(env.to_obj(), indent=2) for env in envelopes]
            )
            assert [r.body_hash for r in results] == [
                env.body_hash for env in envelopes
            ]
            assert all(r.accepted and not r.cache_hit for r in results)


def test_gnp_weighted_round_trip_through_the_wire():
    rng = make_rng(11)
    graph = weighted_copy(connected_gnp(12, 0.4, rng), rng)
    envelope = build_envelope("mst", graph=graph, seed=4)
    _assert_spliced(envelope)
    assert CertificationService().submit(envelope.to_bytes()).accepted
