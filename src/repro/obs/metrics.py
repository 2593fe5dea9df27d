"""Counters, gauges, and histograms for the observability layer.

The registry is deliberately tiny: names map to instruments, every
mutation is lock-guarded, and :meth:`MetricsRegistry.snapshot` renders
plain dicts suitable for a JSONL ``metrics`` record or a service
``/metrics`` endpoint.

Naming scheme (dotted, lowercase):

* ``span.<name>.seconds`` — latency histogram auto-observed per span
  (``span.unit.run.seconds``, ``span.kernel.size.seconds``, ...);
* ``event.<name>`` — counter auto-incremented per point event
  (``event.steal``, ``event.whatif.prune``);
* ``engine.<counter>`` — :class:`~repro.engine.samples.EngineStats`
  counters absorbed by :func:`absorb_engine_stats`;
* ``store.bytes_read`` / ``store.bytes_written`` — store I/O volume;
* ``cost_model.*`` — calibration gauges (EMA seconds-per-cost per
  algorithm, predicted-vs-actual error) published by the remote
  dispatcher, only here: they are wall-clock figures, so they stay
  out of the batch stats printed next to estimates.
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (queue depth, EMA rate, error ratio)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


#: Exponential bucket upper bounds for latency histograms: 1µs base,
#: factor 4 — spans from sub-microsecond store probes to multi-minute
#: batches land in distinct buckets.
HISTOGRAM_BOUNDS = tuple(1e-6 * 4 ** i for i in range(15))


class Histogram:
    """Fixed exponential-bucket histogram with sum/count/min/max."""

    __slots__ = ("_lock", "buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(HISTOGRAM_BOUNDS)
        for i, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self.buckets[slot] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def as_dict(self) -> dict:
        with self._lock:
            return {"count": self.count, "sum": self.total,
                    "min": self.min, "max": self.max,
                    "mean": self.total / self.count if self.count else None,
                    "buckets": list(self.buckets)}


class MetricsRegistry:
    """Name-addressed counters/gauges/histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def snapshot(self) -> dict:
        """Plain-dict rendering: ``{"counters", "gauges", "histograms"}``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value
                         for name, c in sorted(counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(gauges.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(histograms.items())},
        }


def absorb_engine_stats(registry: MetricsRegistry, stats: object,
                        prefix: str = "engine.") -> None:
    """Mirror an ``EngineStats`` bag into ``registry`` as counters/gauges.

    This is the adapter half of the ``EngineStats`` <-> metrics-registry
    bridge, and the direction matters: **EngineStats is authoritative**
    for engine execution counters. It is the bag the engine mutates on
    the hot path, the thing ``BatchResult.stats`` snapshots, the value
    acceptance tests pin, and the merge discipline
    (batch-local -> engine-lifetime) lives there. The registry is a
    *read-side projection*: each absorb re-derives ``engine.*`` series
    from the current bag so trace files and metrics endpoints can
    render them next to obs-native series (span histograms, store
    bytes, cost-model calibration) — it never writes back, and
    disagreement between the two is by definition a stale projection,
    resolved by absorbing again.

    Counters land as ``{prefix}{name}`` counters (set to the absolute
    snapshot value via a delta), gauges from ``stats.gauges()`` as
    ``{prefix}gauges.{name}``.
    """
    snapshot = stats.snapshot()  # type: ignore[attr-defined]
    for name, value in snapshot.items():
        counter = registry.counter(f"{prefix}{name}")
        counter.inc(value - counter.value)
    gauges = getattr(stats, "gauges", None)
    if callable(gauges):
        for name, value in gauges().items():
            registry.gauge(f"{prefix}gauges.{name}").set(value)


def absorb_store_counters(registry: MetricsRegistry,
                          counters: dict,
                          prefix: str = "store.") -> None:
    """Mirror a :class:`SampleStore` counter dict into ``registry``.

    Same projection discipline as :func:`absorb_engine_stats`: the
    store's own ``counters`` dict is authoritative, the registry is a
    read-side rendering set to the absolute snapshot value via a
    delta, so repeated absorbs are idempotent and a ``/stats``
    endpoint can re-absorb on every scrape.
    """
    for name, value in counters.items():
        counter = registry.counter(f"{prefix}{name}")
        counter.inc(int(value) - counter.value)
