"""Span tracing for the estimation path.

A :class:`Tracer` produces nested spans (``engine.execute`` ->
``plan.build`` -> ``unit.run`` -> ``sample.materialize`` /
``kernel.size`` / ``store.get`` ...) recorded as JSONL trace events
with monotonic timings. Three deployment shapes share one class:

* **file tracer** (:meth:`Tracer.to_path`) — the parent process's
  tracer; writes every finished span as one JSON line, stamps a single
  wall-clock anchor in the ``meta`` record, and emits a final
  ``metrics`` record on :meth:`Tracer.close`;
* **collector** (:meth:`Tracer.collector`) — the worker-side tracer: it
  buffers records in memory, roots its spans under a
  :class:`SpanContext` shipped from the parent (so re-parenting is
  decided at *record* time, not merge time), and :meth:`Tracer.drain`
  returns the buffered records for the result frame to carry home;
* **null tracer** (:data:`NULL_TRACER`) — the default everywhere. Its
  :meth:`NullTracer.span` returns one shared no-op span object, so the
  hot path allocates nothing when tracing is disabled.

Timing discipline: every span timestamp is ``time.perf_counter()``
relative to the tracer's epoch — monotonic, never wall-clock. The one
``time.time()`` call in this package is the ``meta`` record's wall
anchor, which exists purely so a human can relate a trace file to the
outside world; it never reaches an estimate. ``repro lint`` enforces
this boundary: ``repro.obs`` is the *only* entropy-exempt module tree
(see :func:`repro.analysis.config.project_config`), so a wall-clock
read anywhere else on the unit path still fails RPL001.

Cross-process clocks are not comparable, so :meth:`Tracer.adopt`
re-bases foreign records: the batch of records is shifted uniformly so
its latest end time lands at the adopting tracer's "now" (which is the
moment the result frame arrived). Relative timing within the batch is
exact; its absolute placement is accurate to one result round trip.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry

#: Trace file schema version, stamped into the ``meta`` record.
TRACE_SCHEMA_VERSION = 1

_TRACE_IDS = itertools.count(1)


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of one span: ships across boundaries.

    Process-pool initargs and remote ``run`` frames carry a
    ``SpanContext`` so worker-side spans can parent themselves under
    the exact parent-side span that dispatched them.
    """

    trace_id: str
    span_id: str


class Span:
    """One in-flight span; finished (and recorded) on ``__exit__``."""

    __slots__ = ("name", "span_id", "parent_id", "start", "attrs",
                 "_tracer", "duration")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: str | None, start: float,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.attrs = attrs
        self.duration: float | None = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self._tracer.trace_id,
                           span_id=self.span_id)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (rows drawn, hits...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self)


class _NullSpan:
    """The shared do-nothing span the null tracer hands out."""

    __slots__ = ()
    span_id = None

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class NullTracer:
    """Tracing disabled: every operation is a shared-object no-op."""

    enabled = False
    trace_id = ""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def current_context(self) -> None:
        return None

    @contextmanager
    def attach(self, context: "SpanContext | None") -> Iterator[None]:
        yield

    def adopt(self, records: list[dict],
              align_end: float | None = None) -> None:
        pass

    def drain(self) -> list[dict]:
        return []

    def close(self) -> None:
        pass


NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()


class _JsonlSink:
    """Line-per-record JSON writer (thread-safety is the tracer's)."""

    def __init__(self, stream: io.TextIOBase, owns: bool) -> None:
        self._stream = stream
        self._owns = owns

    def write(self, record: dict) -> None:
        self._stream.write(json.dumps(record, default=str) + "\n")

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()


class _MemorySink:
    """Buffering sink for worker-side collectors."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def drain(self) -> list[dict]:
        records, self.records = self.records, []
        return records

    def close(self) -> None:
        pass


class Tracer:
    """Produce nested spans and record them as JSONL trace events.

    Parenting is implicit: each thread keeps a stack of open spans, a
    new span parents under the stack top. Threads that did not open the
    enclosing span (pool workers, dispatcher threads) re-enter the tree
    via :meth:`attach`, and whole processes via a shipped
    :class:`SpanContext` (``root_context``).
    """

    enabled = True

    def __init__(self, sink: "_JsonlSink | _MemorySink",
                 proc: str = "main",
                 root_context: SpanContext | None = None) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.proc = proc
        self.root_context = root_context
        self.metrics = MetricsRegistry()
        self._epoch = time.perf_counter()
        if root_context is not None:
            self.trace_id = root_context.trace_id
        else:
            self.trace_id = f"t{os.getpid():x}-{next(_TRACE_IDS)}"

    # -- construction shapes -------------------------------------------
    @classmethod
    def to_path(cls, path: str | os.PathLike) -> "Tracer":
        """A file tracer writing JSONL records to ``path``."""
        stream = open(path, "w", encoding="utf-8")
        tracer = cls(_JsonlSink(stream, owns=True))
        # The single wall-clock anchor: relates the monotonic offsets
        # to calendar time for humans. Confined to repro.obs by the
        # RPL001 entropy-exemption anchor — nowhere else may call it.
        tracer._write({"type": "meta", "schema": TRACE_SCHEMA_VERSION,
                       "trace": tracer.trace_id, "proc": tracer.proc,
                       "pid": os.getpid(),
                       "wall_start": time.time()})
        return tracer

    @classmethod
    def to_stream(cls, stream: io.TextIOBase) -> "Tracer":
        """A file tracer over an already-open text stream (tests)."""
        tracer = cls(_JsonlSink(stream, owns=False))
        tracer._write({"type": "meta", "schema": TRACE_SCHEMA_VERSION,
                       "trace": tracer.trace_id, "proc": tracer.proc,
                       "pid": os.getpid(),
                       "wall_start": time.time()})
        return tracer

    @classmethod
    def collector(cls, root_context: SpanContext,
                  proc: str | None = None) -> "Tracer":
        """A worker-side buffering tracer rooted under a shipped span.

        The default proc tag includes a process-local serial so two
        collectors in one process (one per remote chunk) never mint
        colliding span ids.
        """
        return cls(_MemorySink(),
                   proc=proc or f"w{os.getpid():x}-{next(_TRACE_IDS)}",
                   root_context=root_context)

    # -- time ----------------------------------------------------------
    def now(self) -> float:
        """Monotonic seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    # -- span production -----------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_context(self) -> SpanContext | None:
        """The innermost open span on this thread (for re-attachment)."""
        stack = self._stack()
        if stack:
            return SpanContext(trace_id=self.trace_id, span_id=stack[-1])
        if self.root_context is not None:
            return self.root_context
        return None

    @contextmanager
    def attach(self, context: SpanContext | None) -> Iterator[None]:
        """Parent this thread's next spans under ``context``."""
        if context is None:
            yield
            return
        stack = self._stack()
        stack.append(context.span_id)
        try:
            yield
        finally:
            stack.pop()

    def span(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        if stack:
            parent: str | None = stack[-1]
        elif self.root_context is not None:
            parent = self.root_context.span_id
        else:
            parent = None
        span = Span(self, name, f"{self.proc}.{next(self._ids)}",
                    parent, self.now(), attrs)
        stack.append(span.span_id)
        return span

    def _finish(self, span: Span) -> None:
        span.duration = self.now() - span.start
        stack = self._stack()
        # Exiting out of order (a leaked span) must not corrupt peers.
        if span.span_id in stack:
            del stack[stack.index(span.span_id):]
        record = {"type": "span", "id": span.span_id,
                  "parent": span.parent_id, "name": span.name,
                  "proc": self.proc, "t": span.start,
                  "dur": span.duration}
        if span.attrs:
            record["attrs"] = span.attrs
        self._write(record)
        self.metrics.histogram(f"span.{span.name}.seconds").observe(
            span.duration)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration point event under the current span."""
        stack = self._stack()
        if stack:
            parent: str | None = stack[-1]
        elif self.root_context is not None:
            parent = self.root_context.span_id
        else:
            parent = None
        record = {"type": "event", "id": f"{self.proc}.{next(self._ids)}",
                  "parent": parent, "name": name, "proc": self.proc,
                  "t": self.now()}
        if attrs:
            record["attrs"] = attrs
        self._write(record)
        self.metrics.counter(f"event.{name}").inc()

    def _write(self, record: dict) -> None:
        with self._lock:
            self._sink.write(record)

    # -- cross-boundary plumbing ---------------------------------------
    def drain(self) -> list[dict]:
        """Pop the buffered records (collector tracers only)."""
        sink = self._sink
        if isinstance(sink, _MemorySink):
            with self._lock:
                return sink.drain()
        return []

    def adopt(self, records: list[dict],
              align_end: float | None = None) -> None:
        """Fold a worker's drained records into this trace.

        Foreign perf_counter offsets are not comparable to ours, so the
        whole batch shifts uniformly: its latest end lands at
        ``align_end`` (default: now, i.e. the moment the result frame
        arrived). Parent ids are preserved — collectors already rooted
        their spans under the shipped :class:`SpanContext`.
        """
        if not records:
            return
        if align_end is None:
            align_end = self.now()
        latest = max(record["t"] + record.get("dur", 0.0)
                     for record in records)
        shift = align_end - latest
        for record in records:
            shifted = dict(record)
            shifted["t"] = record["t"] + shift
            shifted["adopted"] = True
            self._write(shifted)
            if record.get("type") == "span":
                self.metrics.histogram(
                    f"span.{record['name']}.seconds").observe(
                    record.get("dur", 0.0))

    def close(self) -> None:
        """Flush: emit the final metrics record and close the sink."""
        snapshot = self.metrics.snapshot()
        self._write({"type": "metrics", "proc": self.proc, **snapshot})
        with self._lock:
            self._sink.close()


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Load one JSONL trace file back into its records."""
    records = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
