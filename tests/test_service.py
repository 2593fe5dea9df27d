"""Service-shaped tests: HTTP endpoints, micro-batching, degradation.

The engine suites already lock batch determinism; this file asserts the
service preserves it across transports and concurrency:

* endpoint contracts (health/stats/cache, estimate, batch, advise,
  streamed advise) over a real threaded HTTP server;
* micro-batching — N concurrent clients coalesce into shared engine
  batches yet get results bit-identical to serial submission, and
  cross-client duplicate specs materialize each sample exactly once;
* typed degradation — 400/404/413/429/503/504 envelopes, deadline
  runs returning typed nulls instead of wrong numbers;
* the ``repro serve`` subprocess boot path and its ready line.
"""

import json
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.engine import EstimationEngine
from repro.service import (MicroBatcher, ServiceConfig, TooManyRequests,
                           make_server)
from repro.service.app import EstimationService, _Handler

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

BATCH_SPEC = {
    "seed": 11,
    "workloads": {
        "names": {"scenario": "status_codes", "rows": 4000},
        "ids": {"n": 3000, "d": 30, "k": 20, "seed": 5},
    },
    "requests": [
        {"workload": "names", "algorithm": "null_suppression",
         "fraction": 0.02, "trials": 3},
        {"workload": "ids", "algorithm": "rle", "fraction": 0.05,
         "trials": 2},
    ],
}

ADVISE_SPEC = {
    "seed": 3,
    "storage_bound_bytes": 2000000,
    "trials": 2,
    "tables": {"t": {"n": 2000, "d": 40, "k": 12, "seed": 2}},
    "queries": [{"table": "t", "columns": ["a"],
                 "selectivity": 0.05}],
}


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def http_get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_post(base: str, path: str, payload,
              raw: bytes | None = None) -> tuple[int, dict]:
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_post_stream(base: str, path: str, payload) -> list[dict]:
    """POST and decode an NDJSON response into records."""
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as resp:
        assert resp.status == 200
        assert resp.headers.get("Content-Type") == \
            "application/x-ndjson"
        text = resp.read().decode("utf-8")
    return [json.loads(line) for line in text.splitlines() if line]


def start_server(config: ServiceConfig):
    """Bind + run a service in a daemon thread; return (base, service,
    stop)."""
    server, service = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def stop() -> None:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)

    return f"http://{host}:{port}", service, stop


@pytest.fixture
def served():
    base, service, stop = start_server(ServiceConfig(window=0.01))
    yield base, service
    stop()


# ----------------------------------------------------------------------
# Endpoint contracts
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health(self, served):
        base, _ = served
        status, payload = http_get(base, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["executor"] == "serial"
        assert payload["store"] is None

    def test_estimate_single(self, served):
        base, _ = served
        status, payload = http_post(base, "/estimate", {
            "seed": 4,
            "workloads": {"w": {"n": 2000, "d": 20, "k": 10}},
            "request": {"workload": "w", "fraction": 0.02,
                        "trials": 3},
        })
        assert status == 200
        entry = payload["result"]
        assert entry["workload"] == "w"
        assert len(entry["estimates"]) == 3
        assert 0.0 < entry["mean"] <= 1.5

    def test_batch_matches_cli_bit_identically(self, served, tmp_path,
                                               capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(BATCH_SPEC), encoding="utf-8")
        assert main(["estimate-batch", str(spec_path)]) == 0
        cli_payload = json.loads(capsys.readouterr().out)

        base, _ = served
        status, payload = http_post(base, "/estimate-batch", BATCH_SPEC)
        assert status == 200
        assert payload["seed"] == BATCH_SPEC["seed"]
        assert payload["results"] == cli_payload["results"]

    def test_repeat_batches_share_samples(self, served):
        base, service = served
        for _ in range(2):
            status, _ = http_post(base, "/estimate-batch", BATCH_SPEC)
            assert status == 200
        stats = service.engine.stats.as_dict()
        # The second POST resolves every trial from the memory tier:
        # the workload cache canonicalized both submissions to the
        # same built objects, so node keys match across requests.
        assert stats["samples_materialized"] == 5
        assert stats["sample_cache_hits"] >= 5

    def test_stats_surfaces(self, served):
        base, _ = served
        http_post(base, "/estimate-batch", BATCH_SPEC)
        status, payload = http_get(base, "/stats")
        assert status == 200
        assert payload["engine"]["requests"] == 5
        assert payload["batcher"]["rounds"] >= 1
        assert payload["workload_cache"]["entries"] == 2
        assert payload["service"]["batch_requests"] == 1
        assert payload["store"] is None
        counters = payload["metrics"]["counters"]
        assert counters.get("engine.requests") == 5

    def test_cache_endpoints_with_store(self, tmp_path):
        base, service, stop = start_server(
            ServiceConfig(window=0.0, store_dir=str(tmp_path / "st")))
        try:
            http_post(base, "/estimate-batch", BATCH_SPEC)
            status, info = http_get(base, "/cache")
            assert status == 200
            assert info["store"]["samples"]["entries"] == 5
            assert info["memory_samples"] == 5
            status, cleared = http_post(base, "/cache",
                                        {"action": "clear"})
            assert status == 200
            assert cleared["removed"] >= 5
        finally:
            stop()

    def test_cache_action_without_store_is_400(self, served):
        base, _ = served
        status, payload = http_post(base, "/cache",
                                    {"action": "prune",
                                     "max_bytes": 10})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_accepted_connections_disable_nagle(self, monkeypatch):
        """Responses go out as two writes; with Nagle's algorithm on,
        the second waits on the client's delayed ACK."""
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        base, _, stop = start_server(ServiceConfig(window=0.01))
        try:
            assert http_get(base, "/health")[0] == 200
        finally:
            stop()
        assert nodelay and all(nodelay)

    def test_unknown_endpoint_is_404(self, served):
        base, _ = served
        status, payload = http_get(base, "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        status, payload = http_post(base, "/nope", {})
        assert status == 404

    def test_malformed_json_is_400(self, served):
        base, _ = served
        status, payload = http_post(base, "/estimate-batch", None,
                                    raw=b"{nope")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_invalid_spec_is_400(self, served):
        base, _ = served
        status, payload = http_post(base, "/estimate-batch",
                                    {"workloads": {}, "requests": []})
        assert status == 400
        assert "workloads" in payload["error"]["message"]

    def test_advise_matches_cli(self, served, tmp_path, capsys):
        spec_path = tmp_path / "advise.json"
        spec_path.write_text(json.dumps(ADVISE_SPEC), encoding="utf-8")
        assert main(["advise", str(spec_path), "--what-if"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)

        base, _ = served
        status, payload = http_post(base, "/advise", ADVISE_SPEC)
        assert status == 200
        assert payload["chosen"] == cli_payload["chosen"]
        assert payload["cost_after"] == cli_payload["cost_after"]
        assert [c["name"] for c in payload["chosen"]] == \
            ["ix_t_a__page", "ix_t_a"]

    def test_advise_stream_ndjson(self, served):
        base, _ = served
        records = http_post_stream(base, "/advise?stream=1",
                                   ADVISE_SPEC)
        assert [r["type"] for r in records[:-1]] == \
            ["round"] * (len(records) - 1)
        assert len(records) >= 2
        final = records[-1]
        assert final["type"] == "result"
        status, direct = http_post(base, "/advise", ADVISE_SPEC)
        assert status == 200
        assert final["chosen"] == direct["chosen"]
        # Round events carry the advisor's running state.
        assert records[0]["round"] == 1
        assert records[-2]["winner"] is None  # final no-commit round

    def test_advise_stream_error_record(self, served):
        base, _ = served
        records = http_post_stream(
            base, "/advise", {"stream": True, "queries": [],
                              "tables": {"t": {"n": 100, "d": 4,
                                               "k": 2}},
                              "storage_bound_bytes": 1000})
        assert records == [{
            "type": "error", "code": "bad_request",
            "message": records[0]["message"]}]
        assert "queries" in records[0]["message"]


# ----------------------------------------------------------------------
# Micro-batching: coalescing, sharing, determinism
# ----------------------------------------------------------------------
class TestMicroBatching:
    def _concurrent_post(self, base: str, specs: list[dict],
                         ) -> list[tuple[int, dict]]:
        """POST all specs at once (barrier-released threads)."""
        barrier = threading.Barrier(len(specs))
        outcomes: list = [None] * len(specs)

        def client(position: int, spec: dict) -> None:
            barrier.wait()
            outcomes[position] = http_post(base, "/estimate-batch",
                                           spec)

        threads = [threading.Thread(target=client, args=(i, spec))
                   for i, spec in enumerate(specs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes

    def test_concurrent_clients_bit_identical_to_serial(self, served):
        # Serial reference: each spec alone, on a fresh service.
        serial = EstimationService(ServiceConfig(window=0.0))
        specs = []
        for fraction in (0.02, 0.03, 0.05, 0.08):
            spec = json.loads(json.dumps(BATCH_SPEC))
            for request in spec["requests"]:
                request["fraction"] = fraction
            specs.append(spec)
        reference = [serial.run_batch(spec)["results"]
                     for spec in specs]
        serial.close()

        base, service, stop = start_server(ServiceConfig(window=0.25))
        try:
            outcomes = self._concurrent_post(base, specs)
            for (status, payload), expected in zip(outcomes, reference):
                assert status == 200
                assert payload["results"] == expected
            # The generous window guarantees the barrier-released
            # clients shared at least one engine round.
            snapshot = service.batcher.snapshot()
            assert snapshot["coalesced_rounds"] >= 1
            assert snapshot["submissions"] == 4
            assert any(payload["batching"]["coalesced_with"] > 0
                       for _, payload in outcomes)
        finally:
            stop()

    def test_duplicate_specs_materialize_each_sample_once(self):
        base, service, stop = start_server(ServiceConfig(window=0.25))
        try:
            outcomes = self._concurrent_post(
                base, [BATCH_SPEC, BATCH_SPEC, BATCH_SPEC])
            payloads = [payload for status, payload in outcomes
                        if status == 200]
            assert len(payloads) == 3
            assert payloads[0]["results"] == payloads[1]["results"]
            assert payloads[1]["results"] == payloads[2]["results"]
            stats = service.engine.stats.as_dict()
            # 3 clients x 5 trial units, but each distinct sample was
            # drawn exactly once — the whole point of coalescing
            # identical tenants over one engine.
            assert stats["requests"] == 15
            assert stats["samples_materialized"] == 5
            reused = (stats["sample_cache_hits"]
                      + (stats["requests"]
                         - stats["unique_requests"]))
            assert reused >= 10
        finally:
            stop()

    def test_window_zero_still_serves(self):
        base, _, stop = start_server(ServiceConfig(window=0.0))
        try:
            status, payload = http_post(base, "/estimate-batch",
                                        BATCH_SPEC)
            assert status == 200
            assert len(payload["results"]) == 2
        finally:
            stop()


# ----------------------------------------------------------------------
# Typed degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_queue_full_is_429(self):
        base, _, stop = start_server(
            ServiceConfig(window=0.01, max_pending=0))
        try:
            status, payload = http_post(base, "/estimate-batch",
                                        BATCH_SPEC)
            assert status == 429
            assert payload["error"]["code"] == "too_many_requests"
        finally:
            stop()

    def test_queue_full_unit(self):
        batcher = MicroBatcher(EstimationEngine(seed=0), window=0.0,
                               max_pending=0)
        with pytest.raises(TooManyRequests):
            batcher.submit([])
        assert batcher.snapshot()["rejected_queue_full"] == 1

    def test_no_slot_is_503_for_deadline_runs(self):
        base, service, stop = start_server(
            ServiceConfig(window=0.01, max_concurrent=1))
        try:
            spec = dict(BATCH_SPEC)
            spec["deadline"] = 30.0
            with service.batcher.execute_slot():  # hog the only slot
                status, payload = http_post(base, "/estimate-batch",
                                            spec)
            assert status == 503
            assert payload["error"]["code"] == "service_overloaded"
            # Batched (no-deadline) submissions queue instead of
            # failing: the leader blocks until the slot frees.
            release = threading.Timer(
                0.3, service.batcher._slots.release)
            service.batcher._slots.acquire()
            release.start()
            status, payload = http_post(base, "/estimate-batch",
                                        BATCH_SPEC)
            assert status == 200
        finally:
            stop()

    def test_deadline_zero_yields_typed_nulls(self, served):
        base, _ = served
        spec = dict(BATCH_SPEC)
        spec["deadline"] = 0.0
        status, payload = http_post(base, "/estimate-batch", spec)
        assert status == 200
        assert payload["complete"] is False
        for entry in payload["results"]:
            assert entry["deadline_exceeded"] is True
            assert entry["mean"] is None
            assert entry["estimates"] == []

    def test_deadline_zero_single_estimate_is_504(self, served):
        base, _ = served
        status, payload = http_post(base, "/estimate", {
            "seed": 4, "deadline": 0.0,
            "workloads": {"w": {"n": 2000, "d": 20, "k": 10}},
            "request": {"workload": "w", "fraction": 0.02},
        })
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"

    def test_oversized_body_is_413(self):
        base, _, stop = start_server(
            ServiceConfig(window=0.0, max_body_bytes=64))
        try:
            status, payload = http_post(base, "/estimate-batch",
                                        BATCH_SPEC)
            assert status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            stop()

    def test_oversized_batch_is_413(self):
        base, _, stop = start_server(
            ServiceConfig(window=0.0, max_batch_requests=1))
        try:
            status, payload = http_post(base, "/estimate-batch",
                                        BATCH_SPEC)
            assert status == 413
            assert "at most 1" in payload["error"]["message"]
        finally:
            stop()


# ----------------------------------------------------------------------
# Subprocess boot (the `repro serve` path)
# ----------------------------------------------------------------------
class TestServeBoot:
    def test_boot_serve_and_estimate(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--window", "0.01"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env={"PYTHONPATH": str(SRC_DIR),
                            "PATH": "/usr/bin:/bin"})
        try:
            assert process.stdout is not None
            line = process.stdout.readline().strip()
            assert line.startswith("repro-service-ready ")
            base = "http://" + line.split(" ", 1)[1]
            deadline = time.monotonic() + 10
            status, payload = http_post(base, "/estimate-batch",
                                        BATCH_SPEC)
            assert status == 200
            assert len(payload["results"]) == 2
            status, health = http_get(base, "/health")
            assert status == 200 and health["status"] == "ok"
            assert time.monotonic() < deadline
        finally:
            process.terminate()
            process.wait(timeout=10)
