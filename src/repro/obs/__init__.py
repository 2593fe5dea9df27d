"""repro.obs — zero-dependency tracing, metrics, and run reports.

The observability layer for the estimation stack: span tracing across
engine / executors / store / advisor / remote workers
(:mod:`repro.obs.trace`), a counters/gauges/histograms registry
(:mod:`repro.obs.metrics`), and trace-file analysis
(:mod:`repro.obs.report`).

This package is the *only* module tree allowed to read wall-clock time
on the unit-execution path — ``repro lint`` (RPL001) enforces the
boundary via the ``entropy_exempt_modules`` anchor in
:func:`repro.analysis.config.project_config`. Estimates must be
bit-identical with tracing on or off; the determinism property suite
locks that.
"""

from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, absorb_engine_stats,
                               absorb_store_counters)
from repro.obs.trace import (NULL_TRACER, NullTracer, Span, SpanContext,
                             TRACE_SCHEMA_VERSION, Tracer, read_trace)
from repro.obs.report import one_line, render, summarize

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "absorb_engine_stats", "absorb_store_counters",
    "NULL_TRACER", "NullTracer", "Span", "SpanContext",
    "TRACE_SCHEMA_VERSION", "Tracer", "read_trace",
    "one_line", "render", "summarize",
]
