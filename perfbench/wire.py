"""``wire``: the HTTP certification service as deployed.

The server is a ``python -m repro serve --cache-size 8`` child process
(no worker pool); the client is one keep-alive :class:`CertifyClient`.
Each op encodes an envelope under a fresh nonce and submits it.  Ops
alternate ``cold`` and ``hot``:

* cold ops cycle through 32 distinct bodies (honest, or corrupted at one
  or two nodes) over 4 shared graphs, so every lookup misses the
  8-entry verdict cache;
* hot ops resubmit 2 bodies certified during set-up, which stay cached.

Every served verdict is compared with the in-process verdict for the
same body, and the server's ``/metrics`` must account for every op.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time

from harness import (
    Phase,
    Tracer,
    Workload,
    check,
    closed_loop,
    layer_ms,
    median,
    vm_hwm_mb,
)
from repro.graphs.generators import random_tree
from repro.service import (
    CertificationService,
    CertifyClient,
    ProofEnvelope,
    build_envelope,
)
from repro.util.rng import make_rng

N = 5_000
SCHEME = "spanning-tree-ptr"
GRAPHS = 4
COLD_BODIES = 32
HOT_BODIES = 2
CACHE_SIZE = 8
SERVER_START_S = 60.0
#: Share of a traced run spent over HTTP; the rest replays the schedule
#: against an in-process service.
HTTP_SHARE = 0.6
#: First op id of the in-process replay: even (a cold op first) and
#: clear of the HTTP ops' ids and nonces.
LOCAL_FIRST_OP = 1_000_000


def _free_port() -> int:
    """A port free right now (``serve --port 0`` does not report its port)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _verdict(result) -> tuple:
    return (result.accepted, result.rejections, tuple(result.rejecting))


def _bodies(seed: int) -> tuple[list[ProofEnvelope], list[ProofEnvelope]]:
    """32 cold and 2 hot envelopes with distinct body hashes."""
    rng = make_rng(seed)
    graphs = [random_tree(N, rng) for _ in range(GRAPHS)]
    bodies: dict[str, ProofEnvelope] = {}
    k = 0
    while len(bodies) < COLD_BODIES + HOT_BODIES:
        envelope = build_envelope(
            SCHEME,
            seed=rng.getrandbits(64),
            graph=graphs[k % GRAPHS],
            corrupt=k % 3,
        )
        bodies.setdefault(envelope.body_hash, envelope)
        k += 1
    ordered = list(bodies.values())
    return ordered[:COLD_BODIES], ordered[COLD_BODIES:]


class Wire(Workload):
    name = "wire"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: subprocess.Popen | None = None
        self.client: CertifyClient | None = None
        self.submitted = {"cold": 0, "hot": 0}
        self.request_bytes: list[int] = []
        #: In-process service and its cold-result stage timings (traced run).
        self.local: CertificationService | None = None
        self.stage_timings: list[dict[str, float]] = []

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        try:
            self._start_server()
            self.cold, self.hot = _bodies(self.seed)
            bodies = self.cold + self.hot
            with CertificationService(cache_size=len(bodies)) as local:
                self.expected = {
                    body.body_hash: _verdict(local.submit(body)) for body in bodies
                }
            for j, body in enumerate(self.hot):
                result = self.client.submit(body.with_nonce(f"setup-{j}"))
                self._check(f"set-up {j}", "cold", body, result)
            super().setup()
        except BaseException:
            self.close()
            raise

    def _start_server(self) -> None:
        port = _free_port()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1"]
            + ["--port", str(port), "--cache-size", str(CACHE_SIZE), "--workers", "0"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.client = CertifyClient(f"http://127.0.0.1:{port}", timeout=60.0)
        deadline = time.monotonic() + SERVER_START_S
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"server exited with {self.server.returncode}")
            try:
                if self.client.healthz():
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not answer /healthz")
            time.sleep(0.02)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.server.pid)

    # -- ops -----------------------------------------------------------------

    def _body(self, i: int) -> tuple[str, ProofEnvelope]:
        if i % 2 == 0:
            return "cold", self.cold[(i // 2) % len(self.cold)]
        return "hot", self.hot[(i // 2) % len(self.hot)]

    def _check(self, what: str, kind: str, body: ProofEnvelope, result) -> None:
        check(
            result.cache_hit == (kind == "hot"),
            f"{what}: {kind} request served with cache_hit={result.cache_hit}",
        )
        check(
            _verdict(result) == self.expected[body.body_hash],
            f"{what}: served verdict differs from the in-process verdict",
        )

    def op(self, i: int, span) -> dict[str, float]:
        kind, body = self._body(i)
        t0 = time.perf_counter()
        with span("client.encode"):
            data = body.with_nonce(f"op-{i}").to_bytes()
        with span("http.submit"):
            result = self.client.submit(data)
        elapsed = time.perf_counter() - t0
        self.submitted[kind] += 1
        self.request_bytes.append(len(data))
        self._check(f"op {i}", kind, body, result)
        return {kind: elapsed}

    def _local_op(self, i: int, span) -> dict[str, float]:
        """The same op against an in-process service, decode timed apart."""
        kind, body = self._body(i)
        with span("client.encode"):
            data = body.with_nonce(f"op-{i}").to_bytes()
        with span("envelope.decode"):
            ProofEnvelope.from_bytes(data)
        t0 = time.perf_counter()
        with span("service.submit"):
            result = self.local.submit(data)
        elapsed = time.perf_counter() - t0
        if kind == "cold":
            self.stage_timings.append(result.timings)
        self._check(f"op {i}", kind, body, result)
        return {kind: elapsed}

    @staticmethod
    def _stats_failures(stats: dict, hits: int, misses: int) -> list[str]:
        expected = {"cache_hits": hits, "cache_misses": misses, "replays_rejected": 0}
        return [
            f"stats {key}={stats[key]}, expected {want}"
            for key, want in expected.items()
            if stats[key] != want
        ]

    def finish(self) -> list[str]:
        return self._stats_failures(
            self.client.metrics()["stats"],
            self.submitted["hot"],
            self.submitted["cold"] + len(self.hot),
        )

    # -- traced run ----------------------------------------------------------

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Phase, dict[str, float]]:
        """HTTP ops (traced/untraced blocks), then the in-process replay."""
        before = self.client.metrics()["stats"]
        http = closed_loop(self.op, HTTP_SHARE * seconds, self.warmup_ops, tracer)
        after = self.client.metrics()["stats"]
        hits = after["cache_hits"] - before["cache_hits"]
        hit_ratio = hits / (after["submitted"] - before["submitted"])

        self.local = CertificationService(cache_size=CACHE_SIZE)
        for j, body in enumerate(self.hot):
            self.local.submit(body.with_nonce(f"setup-{j}"))
        tracer.label = f"{self.name}/in-process"
        replay_s = (1 - HTTP_SHARE) * seconds
        local = closed_loop(self._local_op, replay_s, LOCAL_FIRST_OP, tracer)
        failures = self._stats_failures(
            self.local.metrics()["stats"],
            local.attempted // 2,
            local.attempted // 2 + len(self.hot),
        )
        self.local.close()
        for failure in failures:
            print(f"in-process service: {failure}", file=sys.stderr)

        encode = layer_ms(tracer, "client.encode")
        validate = [timings["validate"] for timings in self.stage_timings]
        decide = [timings["decide"] for timings in self.stage_timings]
        layers = {
            "client.encode_ms": encode,
            "client.request_kb": median(self.request_bytes) / 1024,
            "envelope.decode_ms": layer_ms(tracer, "envelope.decode"),
            "service.validate_ms": 1000 * median(validate),
            "service.decide_ms": 1000 * median(decide),
            "service.cache_hit_ratio": hit_ratio,
        }
        for kind in ("cold", "hot"):
            submit = 1000 * median(local.classes[kind])
            layers[f"service.submit_{kind}_ms"] = submit
            http_p50 = 1000 * median(http.classes[kind])
            layers[f"http.overhead_{kind}_ms"] = http_p50 - submit - encode
        http.attempted += local.attempted
        http.failed += local.failed + len(failures)
        return http, layers
