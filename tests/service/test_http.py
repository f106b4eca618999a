"""The stdlib HTTP front end: routes, status codes, verdict fidelity."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import catalog
from repro.service import CertificationService, ProofEnvelope, build_envelope
from repro.service.httpd import make_server


@pytest.fixture
def live_server():
    service = CertificationService()
    server = make_server(port=0, service=service)
    # A short poll interval keeps shutdown() from waiting out the
    # default half-second serve_forever poll at every teardown.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def server_url(live_server):
    host, port = live_server.server_address[:2]
    return f"http://{host}:{port}"


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


def _post(url, payload: bytes):
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestRoutes:
    def test_healthz(self, server_url):
        status, body = _get(server_url + "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_schemes_matches_catalog(self, server_url):
        status, body = _get(server_url + "/schemes")
        assert status == 200
        names = [entry["name"] for entry in body["schemes"]]
        assert names == catalog.names()
        by_name = {entry["name"]: entry for entry in body["schemes"]}
        eps = [p for p in by_name["approx-tree-weight"]["params"]
               if p["name"] == "eps"]
        assert eps and eps[0]["minimum"] == 0 and eps[0]["exclusive"]

    def test_unknown_route_404(self, server_url):
        status, body = _post(server_url + "/nope", b"{}")
        assert status == 404 and "error" in body


class TestCertify:
    def test_honest_then_replay_then_fresh(self, server_url):
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=11)
        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 200
        assert body["accepted"] and not body["cache_hit"]

        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 409 and body["replay"]

        status, body = _post(
            server_url + "/certify", envelope.with_nonce("f").to_bytes()
        )
        assert status == 200 and body["cache_hit"] and body["accepted"]

    def test_corrupted_rejected_with_sample(self, server_url):
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=12, corrupt=3)
        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 200
        assert not body["accepted"]
        assert body["rejections"] >= 1
        assert body["rejecting"] == sorted(body["rejecting"])

    def test_malformed_envelope_400(self, server_url):
        status, body = _post(server_url + "/certify", b'{"format": "junk"}')
        assert status == 400 and "error" in body

    def test_unknown_scheme_400(self, server_url):
        envelope = build_envelope("bipartite", n=8, seed=13)
        obj = envelope.to_obj()
        obj["scheme"] = "no-such"
        status, body = _post(
            server_url + "/certify", json.dumps(obj).encode()
        )
        assert status == 400 and "unknown scheme" in body["error"]

    def test_metrics_reflect_traffic(self, server_url):
        envelope = build_envelope("bipartite", n=8, seed=14)
        _post(server_url + "/certify", envelope.to_bytes())
        _post(server_url + "/certify", envelope.with_nonce("g").to_bytes())
        status, body = _get(server_url + "/metrics")
        assert status == 200
        assert body["stats"]["cache_hits"] == 1
        assert body["stats"]["cache_misses"] == 1
        assert body["cache_entries"] == 1

    def test_metrics_report_inflight_gauge(self, server_url):
        status, body = _get(server_url + "/metrics")
        assert status == 200
        assert body["max_inflight"] >= 1
        # the GET itself bypasses the gate, so nothing is in flight
        assert body["inflight"] == 0


class TestHostileBodies:
    """Bodies nested past the decoder's recursion limit get a 400 reply,
    not a dropped connection, and leave no handler fault behind."""

    @pytest.mark.parametrize("route", ["/certify", "/certify-batch"])
    @pytest.mark.parametrize(
        "body", [b"[" * 100_000, b'{"a":' * 100_000], ids=["arrays", "objects"]
    )
    def test_deep_nesting_is_a_400(self, live_server, server_url, route, body):
        status, payload = _post(server_url + route, body)
        assert status == 400 and "too deeply" in payload["error"]
        assert not live_server.errors
        status, _ = _get(server_url + "/healthz")
        assert status == 200


def _hostile_bodies():
    """Envelope bodies the decoders must refuse, keyed by what is wrong.

    Each starts from an honest body whose certificate at node 0 is a
    frozenset, then swaps one piece for a non-canonical or unencodable
    alias at the byte level.
    """
    base = build_envelope("spanning-tree-ptr", n=8, seed=31)
    certificates = dict(base.certificates)
    certificates[0] = frozenset({1, 2, 3})
    obj = ProofEnvelope(
        scheme=base.scheme,
        params=base.params,
        graph=base.graph,
        labeling=base.labeling,
        certificates=certificates,
        nonce="hostile",
    ).to_obj()
    fset = '{"__pls__": "fset", "v": [1, 2, 3]}'

    def swap_cert(alias):
        return json.dumps(obj).replace(fset, alias).encode()

    def mutated(mutate):
        copy = json.loads(json.dumps(obj))
        mutate(copy)
        return json.dumps(copy).encode()

    def reverse_first_edge(o):
        o["graph"]["edges"][0].reverse()

    return {
        "non-finite-float": swap_cert("1e400"),
        "set-unsorted": swap_cert('{"__pls__": "fset", "v": [3, 1, 2]}'),
        "set-duplicate": swap_cert('{"__pls__": "fset", "v": [1, 1, 2]}'),
        "dict-unsorted": swap_cert('{"__pls__": "dict", "v": [["b", 1], ["a", 2]]}'),
        "dict-duplicate-key": swap_cert(
            '{"__pls__": "dict", "v": [["a", 1], ["a", 2]]}'
        ),
        "hex-uppercase": swap_cert('{"__pls__": "bytes", "v": "0A"}'),
        "hex-odd-length": swap_cert('{"__pls__": "bytes", "v": "0a0"}'),
        "wrapper-extra-key": swap_cert('{"__pls__": "fset", "v": [1], "w": 0}'),
        "unhashable-set-member": swap_cert(
            '{"__pls__": "fset", "v": [{"__pls__": "list", "v": []}]}'
        ),
        "nonce-lone-surrogate": mutated(lambda o: o.update(nonce="\ud800")),
        "labeling-nodes-descending": mutated(lambda o: o["labeling"].reverse()),
        "certificate-nodes-descending": mutated(
            lambda o: o["certificates"].reverse()
        ),
        "edge-pair-reversed": mutated(reverse_first_edge),
        "edges-unsorted": mutated(lambda o: o["graph"]["edges"].reverse()),
    }


HOSTILE = _hostile_bodies()


class TestNonCanonicalBodies:
    """Every non-canonical alias and every unencodable value is a typed
    400 on both routes, never a dropped connection or a fresh verdict."""

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_certify_400(self, live_server, server_url, name):
        status, body = _post(server_url + "/certify", HOSTILE[name])
        assert status == 400 and "error" in body
        assert not live_server.errors

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_batch_item_400(self, live_server, server_url, name):
        good = build_envelope("bipartite", n=8, seed=32).to_bytes()
        batch = b'{"envelopes": [' + HOSTILE[name] + b", " + good + b"]}"
        status, body = _post(server_url + "/certify-batch", batch)
        assert status == 200
        assert [item["status"] for item in body["results"]] == [400, 200]
        assert not live_server.errors

    @pytest.mark.parametrize("route", ["/certify", "/certify-batch"])
    def test_integer_past_the_digit_limit_400(self, live_server, server_url, route):
        digits = b"1" * 5000
        body = b'{"envelopes": [' + digits + b"]}" if "batch" in route else digits
        status, payload = _post(server_url + route, body)
        assert status == 400 and "not valid JSON" in payload["error"]
        assert not live_server.errors

    def test_permuted_set_replay_is_400_not_a_verdict(self, server_url):
        canonical = HOSTILE["set-unsorted"].replace(
            b"[3, 1, 2]", b"[1, 2, 3]"
        )
        status, body = _post(server_url + "/certify", canonical)
        assert status == 200 and not body["cache_hit"]
        status, body = _post(server_url + "/certify", canonical)
        assert status == 409
        status, body = _post(server_url + "/certify", HOSTILE["set-unsorted"])
        assert status == 400 and "canonical order" in body["error"]

    def test_pretty_printed_body_hits_the_cache(self, server_url):
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=33)
        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 200 and not body["cache_hit"]
        obj = envelope.with_nonce("pretty").to_obj()
        pretty = json.dumps(dict(reversed(list(obj.items()))), indent=2)
        status, body = _post(server_url + "/certify", pretty.encode())
        assert status == 200 and body["cache_hit"]
        assert body["body_hash"] == envelope.body_hash


class TestCertifyBatch:
    def test_mixed_batch_settles_every_envelope(self, server_url):
        honest = build_envelope("bipartite", n=8, seed=21)
        corrupted = build_envelope("leader", n=10, seed=22, corrupt=2)
        replayed = build_envelope("spanning-tree-ptr", n=12, seed=23)
        batch = {"envelopes": [
            honest.to_obj(),
            corrupted.to_obj(),
            replayed.to_obj(),
            replayed.to_obj(),        # verbatim duplicate: 409 in place
            {"format": "junk"},       # malformed: 400 in place
        ]}
        status, body = _post(
            server_url + "/certify-batch", json.dumps(batch).encode()
        )
        assert status == 200  # batch transport succeeded; statuses inside
        results = body["results"]
        assert [item["status"] for item in results] == [200, 200, 200, 409, 400]
        assert results[0]["result"]["accepted"]
        assert not results[1]["result"]["accepted"]
        assert results[1]["result"]["rejections"] >= 1
        assert results[2]["result"]["accepted"]
        assert results[3]["replay"] and "error" in results[3]
        assert "error" in results[4]

    def test_batch_fresh_nonce_hits_cache(self, server_url):
        envelope = build_envelope("bipartite", n=8, seed=24)
        batch = {"envelopes": [
            envelope.to_obj(),
            envelope.with_nonce("fresh").to_obj(),
        ]}
        status, body = _post(
            server_url + "/certify-batch", json.dumps(batch).encode()
        )
        assert status == 200
        first, second = body["results"]
        assert not first["result"]["cache_hit"]
        assert second["result"]["cache_hit"]

    def test_client_batch_is_spliced_from_bytes(self, server_url, monkeypatch):
        from repro.service.client import CertifyClient

        envelopes = [
            build_envelope("bipartite", n=8, seed=25),
            build_envelope("leader", n=10, seed=26, corrupt=1),
        ]
        raw = envelopes[0].with_nonce("raw").to_bytes()

        def boom(self):
            raise AssertionError("batch body re-encoded an envelope")

        monkeypatch.setattr(ProofEnvelope, "to_obj", boom)
        with CertifyClient(server_url) as client:
            outcomes = client.submit_many(envelopes + [raw])
        assert [o.body_hash for o in outcomes] == [
            envelopes[0].body_hash, envelopes[1].body_hash, envelopes[0].body_hash
        ]
        assert [o.cache_hit for o in outcomes] == [False, False, True]
        assert [o.accepted for o in outcomes] == [True, False, True]

    def test_batch_bad_json_400(self, server_url):
        status, body = _post(server_url + "/certify-batch", b"not json")
        assert status == 400 and "JSON" in body["error"]

    def test_batch_wrong_shape_400(self, server_url):
        for payload in (b"[1, 2]", b'{"envelope": []}', b'{"envelopes": 3}'):
            status, body = _post(server_url + "/certify-batch", payload)
            assert status == 400
            assert '{"envelopes": [...]}' in body["error"]

    def test_batch_over_bound_400(self, server_url):
        from repro.service.httpd import MAX_BATCH_ENVELOPES

        batch = {"envelopes": [{}] * (MAX_BATCH_ENVELOPES + 1)}
        status, body = _post(
            server_url + "/certify-batch", json.dumps(batch).encode()
        )
        assert status == 400 and "bound" in body["error"]


def _raw_connection(server_url):
    host, port = server_url.removeprefix("http://").rsplit(":", 1)
    import http.client

    return http.client.HTTPConnection(host, int(port), timeout=5)


class TestBodyFraming:
    """Malformed framing must 400 cleanly, never pin a worker thread."""

    @pytest.mark.parametrize("route", ["/certify", "/certify-batch"])
    def test_missing_content_length_400(self, server_url, route):
        conn = _raw_connection(server_url)
        try:
            conn.putrequest("POST", route)
            conn.endheaders()  # no body, no Content-Length
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "Content-Length" in body["error"]
            # framing errors poison keep-alive: the server must close
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize("route", ["/certify", "/certify-batch"])
    def test_chunked_transfer_encoding_400(self, server_url, route):
        # refused before any body read: a chunked body's length is
        # unknowable up front, and waiting on it would hang the worker
        conn = _raw_connection(server_url)
        try:
            conn.putrequest("POST", route)
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "chunked" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_unparseable_content_length_400(self, server_url):
        conn = _raw_connection(server_url)
        try:
            conn.putrequest("POST", "/certify")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_truncated_body_400(self, server_url):
        import socket

        host, port = server_url.removeprefix("http://").rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                b"POST /certify HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 100\r\n\r\n"
                b"only-a-few-bytes"
            )
            sock.shutdown(socket.SHUT_WR)  # EOF long before 100 bytes
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks)
        assert raw.split(b"\r\n", 1)[0].endswith(b"400 Bad Request")
        assert b"truncated" in raw
