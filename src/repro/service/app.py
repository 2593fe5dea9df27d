"""The HTTP estimation service: stdlib threads, one shared engine.

No framework, no new dependencies: a
:class:`http.server.ThreadingHTTPServer` whose handler routes a small
fixed endpoint set into one :class:`EstimationService` — a warm
:class:`~repro.engine.engine.EstimationEngine` (optionally
store-backed and traced) fronted by the
:class:`~repro.service.batching.MicroBatcher`.

Request flow for ``/estimate`` and ``/estimate-batch``:

1. parse and validate the CLI-shaped JSON spec
   (:mod:`repro.service.schemas`), resolving workloads through the
   shared :class:`~repro.service.schemas.WorkloadCache` so identical
   specs from different clients are one source object;
2. normalize seeds: every request is expanded with
   :func:`~repro.engine.plan.expand_trials` under the *spec's* seed,
   so results are bit-identical to a CLI run at that seed no matter
   what master seed the long-lived engine was built with — and
   cross-client duplicates carry equal node keys, which is what lets
   the engine dedupe them;
3. no deadline → ride the micro-batcher's shared batch; with a
   deadline → a direct bounded ``execute()`` on a non-blocking slot
   (503 when saturated), returning per-request typed nulls plus the
   engine's per-unit outcome accounting.

``/advise`` runs the lazy what-if advisor; with ``"stream": true`` the
response is chunked NDJSON — one event per greedy round as it
completes, then the final result record.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Sequence
from urllib.parse import urlparse

from repro._version import __version__
from repro.errors import ReproError
from repro.engine.engine import EstimationEngine
from repro.engine.executors import make_executor
from repro.engine.plan import expand_trials
from repro.engine.requests import (EstimationRequest,
                                   PartialBatchResult, RequestResult)
from repro.obs import (MetricsRegistry, absorb_engine_stats,
                       absorb_store_counters)
from repro.service.batching import MicroBatcher
from repro.service.errors import (BadRequest, DeadlineExceeded,
                                  PayloadTooLarge, ServiceError)
from repro.service.schemas import (WorkloadCache, build_advise,
                                   build_advise_table, build_batch,
                                   build_batch_workload, candidate_entry,
                                   parse_spec_text, request_result_entry)


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can turn into flags."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (reported by the ready callback).
    port: int = 0
    #: The engine's master seed. Request randomness never depends on it
    #: (specs are seed-normalized), so it only namespaces the engine.
    seed: int = 0
    #: Micro-batch collection window in seconds.
    window: float = 0.02
    #: Persistent sample/estimate store directory (optional).
    store_dir: str | None = None
    #: Engine executor name (serial/process/remote) and worker count.
    executor: str | None = None
    workers: int | None = None
    #: Guardrails.
    max_body_bytes: int = 1 << 20
    max_batch_requests: int = 256
    max_pending: int = 64
    max_concurrent: int = 4
    #: JSONL trace path (optional); the tracer rides every batch.
    trace_path: str | None = None
    #: Log requests to stderr (quiet by default: tests boot in-process).
    verbose: bool = False


class EstimationService:
    """Shared engine + batcher + caches behind the HTTP handler."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        tracer = None
        if config.trace_path is not None:
            from repro.obs import Tracer

            tracer = Tracer.to_path(config.trace_path)
        executor = None
        if config.executor is not None:
            if config.workers is not None:
                executor = make_executor(config.executor,
                                         max_workers=config.workers)
            else:
                executor = make_executor(config.executor)
        self.engine = EstimationEngine(
            seed=config.seed, executor=executor,
            store=config.store_dir, tracer=tracer)
        self.tracer = tracer
        self.metrics: MetricsRegistry = (
            tracer.metrics if tracer is not None else MetricsRegistry())
        self.batcher = MicroBatcher(
            self.engine, window=config.window,
            max_pending=config.max_pending,
            max_concurrent=config.max_concurrent)
        self.workloads = WorkloadCache(builder=build_batch_workload)
        self.advise_tables = WorkloadCache(builder=build_advise_table)
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {
            "http_requests": 0,
            "http_errors": 0,
            "estimate_requests": 0,
            "batch_requests": 0,
            "advise_requests": 0,
            "deadline_requests": 0,
        }

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _expand(self, requests: Sequence[EstimationRequest], seed: int,
                ) -> list[tuple[EstimationRequest, ...]]:
        """Seed-normalize: per-trial explicit-seed expansion per request.

        After this, the shared engine's master seed is irrelevant to
        the results, and two clients' identical specs produce requests
        with equal node keys — the precondition for cross-client
        sample sharing inside one coalesced batch.
        """
        return [expand_trials(request, seed) for request in requests]

    def _reassemble(self, requests: Sequence[EstimationRequest],
                    expanded: Sequence[tuple[EstimationRequest, ...]],
                    flat_results: Sequence[RequestResult | None],
                    ) -> list[dict[str, Any]]:
        """Fold per-trial results back into per-spec-request entries."""
        entries = []
        cursor = 0
        for request, trials in zip(requests, expanded):
            chunk = flat_results[cursor:cursor + len(trials)]
            cursor += len(trials)
            if any(result is None for result in chunk):
                entries.append(request_result_entry(request, None))
                continue
            estimates = tuple(
                estimate for result in chunk
                for estimate in result.estimates)  # type: ignore[union-attr]
            entries.append(request_result_entry(
                request, RequestResult(request=request,
                                       estimates=estimates)))
        return entries

    def run_batch(self, spec: dict) -> dict[str, Any]:
        """One ``/estimate-batch`` (or ``/estimate``) evaluation."""
        requests, seed = build_batch(
            spec, workload_builder=self.workloads)
        if len(requests) > self.config.max_batch_requests:
            raise PayloadTooLarge(
                f"batch has {len(requests)} requests; this service "
                f"accepts at most {self.config.max_batch_requests} "
                f"per submission")
        expanded = self._expand(requests, seed)
        flat = [trial for trials in expanded for trial in trials]
        deadline = spec.get("deadline")
        payload: dict[str, Any] = {
            "seed": seed,
            "requests": len(requests),
            "trial_units": len(flat),
        }
        if deadline is not None:
            self.count("deadline_requests")
            with self.batcher.try_execute_slot():
                batch = self.engine.execute(flat,
                                            deadline=float(deadline))
            payload["results"] = self._reassemble(
                requests, expanded, batch.results)
            payload["stats"] = batch.stats
            payload["deadline"] = float(deadline)
            if isinstance(batch, PartialBatchResult):
                payload["complete"] = batch.complete
                payload["outcome_counts"] = batch.counts()
            return payload
        submission = self.batcher.submit(flat)
        assert submission.results is not None
        payload["results"] = self._reassemble(
            requests, expanded, submission.results)
        payload["stats"] = submission.stats
        payload["batching"] = {
            "coalesced_with": submission.coalesced_with,
            "window_seconds": self.batcher.window,
        }
        return payload

    def run_estimate(self, spec: dict) -> dict[str, Any]:
        """Single-request convenience: ``request`` instead of a list."""
        item = spec.get("request")
        if not isinstance(item, dict):
            raise BadRequest(
                "estimate spec needs a 'request' object (use "
                "/estimate-batch for request lists)")
        batch_spec = dict(spec)
        batch_spec.pop("request")
        batch_spec["requests"] = [item]
        payload = self.run_batch(batch_spec)
        entry = payload["results"][0]
        if entry.get("deadline_exceeded"):
            raise DeadlineExceeded(
                "the request could not be evaluated before its "
                "deadline expired; retry with a larger budget")
        payload["result"] = entry
        del payload["results"]
        return payload

    # ------------------------------------------------------------------
    # Advising
    # ------------------------------------------------------------------
    def run_advise(self, spec: dict,
                   on_round: "Callable[[dict], None] | None" = None,
                   ) -> dict[str, Any]:
        """One what-if advisor run over an advise spec.

        A fresh advisor (and engine) per call, seeded by the spec so
        selections are bit-identical to ``repro advise --what-if`` —
        but sharing the service's disk store, so repeated advise runs
        over the same tables warm-start across clients.
        """
        from repro.advisor import WhatIfAdvisor

        parsed = build_advise(spec, self.advise_tables)
        advisor = WhatIfAdvisor(
            parsed.tables, parsed.queries, algorithms=parsed.algorithms,
            fraction=parsed.fraction, max_trials=parsed.trials,
            seed=parsed.seed, store=self.engine.store,
            prune=bool(spec.get("prune", True)),
            adaptive=bool(spec.get("adaptive", True)))
        with self.batcher.try_execute_slot():
            result = advisor.advise(parsed.storage_bound_bytes,
                                    on_round=on_round)
        assert result.report is not None
        return {
            "mode": "what-if",
            "seed": parsed.seed,
            "storage_bound_bytes": parsed.storage_bound_bytes,
            "cost_before": result.cost_before,
            "cost_after": result.cost_after,
            "improvement": result.improvement,
            "bytes_used": result.bytes_used,
            "chosen": [candidate_entry(c) for c in result.chosen],
            "steps": list(result.steps),
            "what_if": result.report.as_dict(),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "executor": self.engine.executor.name,
            "store": (str(self.engine.store.root)
                      if self.engine.store is not None else None),
        }

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: every counter surface in one place."""
        store = self.engine.store
        absorb_engine_stats(self.metrics, self.engine.stats)
        if store is not None:
            absorb_store_counters(self.metrics, store.counters)
        with self._lock:
            service = dict(self.counters)
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "engine": self.engine.stats.as_dict(),
            "store": (dict(store.counters) if store is not None
                      else None),
            "batcher": self.batcher.snapshot(),
            "workload_cache": self.workloads.snapshot(),
            "service": service,
            "metrics": self.metrics.snapshot(),
        }

    def cache_info(self) -> dict[str, Any]:
        store = self.engine.store
        return {
            "memory_samples": len(self.engine.cache),
            "workload_cache": self.workloads.snapshot(),
            "store": store.stats() if store is not None else None,
        }

    def cache_action(self, spec: dict) -> dict[str, Any]:
        store = self.engine.store
        action = spec.get("action")
        if action == "prune":
            if store is None:
                raise BadRequest("this service has no disk store to "
                                 "prune")
            max_bytes = spec.get("max_bytes")
            if not isinstance(max_bytes, int) or max_bytes < 0:
                raise BadRequest("cache prune needs an integer "
                                 "'max_bytes'")
            return {"action": "prune", **store.prune(max_bytes)}
        if action == "clear":
            if store is None:
                raise BadRequest("this service has no disk store to "
                                 "clear")
            return {"action": "clear", "removed": store.clear()}
        raise BadRequest(
            f"unknown cache action {action!r}; known: clear, prune")

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _ServiceServer(ThreadingHTTPServer):
    """One handler thread per connection over a shared service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 service: EstimationService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive + chunked responses both require 1.1.
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True
    server: _ServiceServer

    @property
    def service(self) -> EstimationService:
        return self.server.service

    # -- I/O helpers ---------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.service.config.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: Exception) -> None:
        self.service.count("http_errors")
        if isinstance(exc, ServiceError):
            status, code = exc.status, exc.code
        elif isinstance(exc, ReproError):
            status, code = 400, "bad_request"
        else:  # pragma: no cover - defensive: bugs become typed 500s
            status, code = 500, "internal_error"
        self._send_json(status,
                        {"error": {"code": code, "message": str(exc)}})

    def _read_spec(self) -> dict:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise BadRequest("POST requires a Content-Length header "
                             "and a JSON body")
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequest(f"malformed Content-Length "
                             f"{length_header!r}") from None
        if length > self.service.config.max_body_bytes:
            # The body is never read, so this connection cannot be
            # reused for a follow-up request.
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.service.config.max_body_bytes}-byte limit")
        text = self.rfile.read(length).decode("utf-8", errors="replace")
        return parse_spec_text(text, what="request body")

    # -- chunked streaming ---------------------------------------------
    def _start_stream(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def _stream_record(self, record: dict) -> None:
        data = (json.dumps(record) + "\n").encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _end_stream(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self.service.count("http_requests")
        path = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if path == "/health":
                self._send_json(200, self.service.health())
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/cache":
                self._send_json(200, self.service.cache_info())
            else:
                self._send_json(404, {"error": {
                    "code": "not_found",
                    "message": f"no such endpoint: GET {path}"}})
        except Exception as exc:
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self.service.count("http_requests")
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        try:
            spec = self._read_spec()
            if path == "/estimate":
                self.service.count("estimate_requests")
                self._send_json(200, self.service.run_estimate(spec))
            elif path == "/estimate-batch":
                self.service.count("batch_requests")
                self._send_json(200, self.service.run_batch(spec))
            elif path == "/advise":
                self.service.count("advise_requests")
                stream = bool(spec.get("stream")) \
                    or "stream=1" in (parsed.query or "")
                if stream:
                    self._stream_advise(spec)
                else:
                    self._send_json(200, self.service.run_advise(spec))
            elif path == "/cache":
                self._send_json(200, self.service.cache_action(spec))
            else:
                self._send_json(404, {"error": {
                    "code": "not_found",
                    "message": f"no such endpoint: POST {path}"}})
        except Exception as exc:
            self._send_error(exc)

    def _stream_advise(self, spec: dict) -> None:
        """Chunked NDJSON: round events as they happen, then the result.

        Failures after the 200 status line cannot change it, so they
        stream as a terminal ``{"type": "error"}`` record — a client
        reading NDJSON always sees a typed ending, never a truncated
        silence.
        """
        self._start_stream()
        try:
            result = self.service.run_advise(
                spec, on_round=lambda event: self._stream_record(
                    {"type": "round", **event}))
            self._stream_record({"type": "result", **result})
        except Exception as exc:
            self.service.count("http_errors")
            code = (exc.code if isinstance(exc, ServiceError)
                    else "bad_request" if isinstance(exc, ReproError)
                    else "internal_error")
            self._stream_record({"type": "error", "code": code,
                                 "message": str(exc)})
        self._end_stream()


def make_server(config: ServiceConfig,
                ) -> tuple[_ServiceServer, EstimationService]:
    """Bind (but don't run) a service — the in-process test entry."""
    service = EstimationService(config)
    server = _ServiceServer((config.host, config.port), service)
    return server, service


def serve(config: ServiceConfig,
          ready: "Callable[[tuple[str, int]], None] | None" = None,
          ) -> None:
    """Run the service until interrupted (the ``repro serve`` loop)."""
    server, service = make_server(config)
    host, port = server.server_address[0], server.server_address[1]
    if ready is not None:
        ready((str(host), int(port)))
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
