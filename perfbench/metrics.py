"""End-to-end and per-layer metrics from the benchmark's op records.

An op record is one timed operation (a batch, an HTTP request or an
``advise`` call): ``wall`` seconds, ``units`` of plan work, ``failure``
(``None`` when the output matched the reference) and, in the traced run,
``times`` (self seconds per layer) and ``counts``.
"""

from __future__ import annotations

import math
import resource
import statistics
import struct
import time
from typing import Any, Iterable

import numpy as np

from layers import UNATTRIBUTED

#: End-to-end metrics: ``name -> (unit, definition)``.
END_TO_END = {
    "setup_s": ("s", "median wall time of the set-ups before the first "
                     "timed operation"),
    "units_per_s": ("units/s", "plan trial units per operation x callers "
                               "/ median operation wall time"),
    "latency_p50_ms": ("ms", "median operation wall time (a batch, an "
                             "HTTP request or an advise call)"),
    "latency_p90_ms": ("ms", "p90 of the same"),
    "peak_rss_mb": ("MB", "peak RSS of the program under test"),
}

_ALL = "batch-cold, service-mixed, rerun-pool, advise"
_COLD = "batch-cold, rerun-pool, advise"

#: Per-layer metrics: ``name -> (unit, better, should move, works in)``.
PER_LAYER = {
    "workloads.build_s": ("s", "lower", "setup_s", _COLD),
    "workloads.rows_encoded": ("rows", "lower", "setup_s", _COLD),
    "plan.build_s": ("s", "lower", "latency_p50_ms",
                     "service-mixed, advise"),
    "plan.units": ("count", "lower", "latency_p50_ms",
                   "service-mixed, advise"),
    "plan.dedup_ratio": ("ratio", "lower", "latency_p50_ms",
                         "service-mixed, advise"),
    "sample.draw_s": ("s", "lower", "units_per_s, latency_p90_ms",
                      "batch-cold, fresh share of service-mixed"),
    "sample.decode_s": ("s", "lower", "units_per_s, latency_p90_ms",
                        "batch-cold, fresh share of service-mixed"),
    "sample.rows": ("rows", "lower", "units_per_s", "batch-cold"),
    "sample.bytes": ("bytes", "lower", "units_per_s", "batch-cold"),
    "cache.hit_ratio": ("ratio", "higher", "latency_p90_ms",
                        "service-mixed"),
    "index.build_s": ("s", "lower", "units_per_s, latency_p50_ms",
                      _COLD),
    "index.builds": ("count", "lower", "units_per_s", _COLD),
    "index.reuse_ratio": ("ratio", "higher", "units_per_s", _COLD),
    "index.bytes_encoded": ("bytes", "lower", "units_per_s", _COLD),
    "views.split_s": ("s", "lower", "units_per_s, latency_p50_ms",
                      "batch-cold, hot share of service-mixed"),
    "kernel.size_s": ("s", "lower", "units_per_s, latency_p50_ms",
                      "batch-cold, hot share of service-mixed"),
    "kernel.hit_ratio": ("ratio", "higher", "units_per_s",
                         "batch-cold, service-mixed"),
    "histogram.cf_s": ("s", "lower", "latency_p50_ms", "service-mixed"),
    "histogram.units": ("count", "lower", "latency_p50_ms",
                        "service-mixed"),
    "store.get_s": ("s", "lower", "units_per_s", "rerun-pool"),
    "store.put_s": ("s", "lower", "units_per_s", "rerun-pool"),
    "store.bytes_read": ("bytes", "lower", "units_per_s", "rerun-pool"),
    "store.bytes_written": ("bytes", "lower", "units_per_s",
                            "rerun-pool"),
    "store.estimate_hit_ratio": ("ratio", "higher", "units_per_s",
                                 "rerun-pool"),
    "store.sample_hit_ratio": ("ratio", "higher", "units_per_s",
                               "rerun-pool"),
    "pool.run_s": ("s", "lower", "units_per_s", "rerun-pool"),
    "pool.ship_bytes": ("bytes", "lower", "units_per_s", "rerun-pool"),
    "pool.useful_index_ratio": ("ratio", "higher", "units_per_s",
                                "rerun-pool"),
    "pool.indexes_built": ("count", "lower", "units_per_s", "rerun-pool"),
    "pool.indexes_built_iqr": ("count", "lower", "units_per_s",
                               "rerun-pool"),
    "pool.sample_store_hits": ("count", "lower", "units_per_s",
                               "rerun-pool"),
    "pool.sample_store_hits_iqr": ("count", "lower", "units_per_s",
                                   "rerun-pool"),
    "service.handler_ms": ("ms", "lower",
                           "latency_p50_ms, latency_p90_ms",
                           "service-mixed"),
    "service.transport_ms": ("ms", "lower",
                             "latency_p50_ms, latency_p90_ms",
                             "service-mixed"),
    "batcher.window_wait_ms": ("ms", "lower",
                               "latency_p50_ms, latency_p90_ms",
                               "service-mixed"),
    "batcher.execute_ms": ("ms", "lower",
                           "latency_p50_ms, latency_p90_ms",
                           "service-mixed"),
    "batcher.coalesce_ratio": ("ratio", "higher", "latency_p50_ms",
                               "service-mixed"),
    "advisor.self_s": ("s", "lower", "latency_p50_ms", "advise"),
    "advisor.engine_batches": ("count", "lower", "latency_p50_ms",
                               "advise"),
    "advisor.rounds": ("count", "lower", "latency_p50_ms", "advise"),
    "advisor.units": ("count", "lower", "latency_p50_ms", "advise"),
    "advisor.unit_savings": ("ratio", "higher", "latency_p50_ms",
                             "advise"),
    "engine.self_s": ("s", "lower", "units_per_s", _ALL),
    "engine.degraded_units": ("count", "lower", "failed / attempted",
                              _ALL),
    "engine.retry_attempts": ("count", "lower", "failed / attempted",
                              _ALL),
    "engine.deadline_skipped_units": ("count", "lower",
                                      "failed / attempted", _ALL),
    "trace.wall_s": ("s", "lower", "latency_p50_ms", _ALL),
    "trace.unattributed_s": ("s", "lower", "latency_p50_ms", _ALL),
    "trace.overhead_s": ("s", "lower", "latency_p50_ms", _ALL),
}

#: Layers whose self times sum to an operation's traced wall time.
LAYERS = ("workloads", "plan", "sample.draw", "sample.decode", "index",
          "views", "kernel", "histogram", "store.get", "store.put", "pool",
          "service.transport", "service.handler", "batcher.window_wait",
          "advisor", "engine", UNATTRIBUTED)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def iqr(values: Iterable[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return float(q3 - q1)


def percentile(values: list[float], share: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(share * 100) - 1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(scope: str) -> float:
    """Peak RSS in MB of this process, its children, or both.

    ``ru_maxrss`` of the children is the largest child that has been
    waited for, which is the largest worker or the server process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    kilobytes = {"self": own, "children": children,
                 "self+children": own + children}[scope]
    return kilobytes / 1024.0


#: The yardstick's duration at the reference speed the adjusted times
#: are expressed in (its uncontended time on a shared 2-vCPU Xeon KVM
#: guest).
YARDSTICK_REF_S = 0.0080


def yardstick() -> float:
    """Seconds for a fixed CPU task that does not touch the program.

    A shared 2-vCPU Xeon KVM guest alternates, for seconds to minutes
    at a time, between an uncontended state and one where every
    CPU-bound step runs about 1.6x slower, with CPU time equal to wall
    time.  A run's median then depends on how its time split between the
    states.  Timing this task next to each operation measures the state
    the operation ran in: the task mixes the program's kinds of work
    (record packing, sorting, dict updates, a numpy pass) without calling
    it, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    rows = [(b"k%05d" % ((i * 7919) % 4000), i) for i in range(4000)]
    packed = sorted(struct.pack("<16sq", key, value) for key, value in rows)
    counts: dict[bytes, int] = {}
    for record in packed:
        counts[record[:6]] = counts.get(record[:6], 0) + 1
    array = np.frombuffer(b"".join(packed), dtype=np.uint8)
    np.unique(array.reshape(len(packed), -1)[:, :6], axis=0)
    return time.perf_counter() - start


def adjusted(wall: float, yardstick_s: float | None) -> float:
    """``wall`` at the reference speed, given the yardstick next to it."""
    if yardstick_s is None:
        return wall
    return wall * YARDSTICK_REF_S / yardstick_s


def op_seconds(ops: list[dict], adjust: bool = True) -> list[float]:
    """The measured times of ``ops``; one that raised has none.

    A wrong or degraded output still has its time counted here; the
    result's ``failed`` count is what reports it.
    """
    return [adjusted(op["wall"], op.get("yardstick") if adjust else None)
            for op in ops if math.isfinite(op["wall"])]


def end_to_end(setups: list[float], ops: list[dict], callers: int,
               rss_scope: str) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, sample count)``."""
    walls = op_seconds(ops)
    units = median(op["units"] for op in ops if not op["failure"])
    p50 = median(walls)
    values = {
        "setup_s": (median(setups), len(setups)),
        "units_per_s": (ratio(units * callers, p50), len(walls)),
        "latency_p50_ms": (p50 * 1000.0, len(walls)),
        "latency_p90_ms": (percentile(walls, 0.9) * 1000.0, len(walls)),
        "peak_rss_mb": (peak_rss_mb(rss_scope), 1),
    }
    return {name: (value, END_TO_END[name][0], count)
            for name, (value, count) in values.items()}


def layer_table(ops: list[dict]) -> list[tuple[str, float, float, float]]:
    """``(layer, total self s, per-op median s, per-op IQR s)`` rows."""
    rows = []
    for layer in LAYERS:
        per_op = [op["times"].get(layer, 0.0) for op in ops]
        if any(per_op):
            rows.append((layer, sum(per_op), median(per_op), iqr(per_op)))
    unknown = {layer for op in ops for layer in op["times"]} - set(LAYERS)
    if unknown:
        raise RuntimeError(f"unaccounted layers: {sorted(unknown)}")
    return rows


def per_layer(workload: str, groups: dict[str, Any],
              setup: dict[str, Any], ship_bytes: int = 0,
              ) -> tuple[dict[str, float], dict[str, str]]:
    """Every :data:`PER_LAYER` metric from one traced run's records.

    Returns the values, in :data:`PER_LAYER` order, and notes giving
    each ratio's base and each service timing's spread.  Worker-side
    layers of ``rerun-pool`` come from its serial replay; ratios sum the
    engine counters over the engine batches (per round for the service,
    so a coalesced round counts once).
    """
    ops = groups["traced"]
    worker = groups.get("replay") or ops
    batches = groups.get("rounds") or ops
    replay = groups.get("replay", [])
    served = [op for op in ops if "handler" in op]
    advise = workload == "advise"

    def time_of(group: list[dict], layer: str) -> float:
        return median(op["times"].get(layer, 0.0) for op in group)

    def count_of(group: list[dict], name: str) -> float:
        return median(op.get("counts", {}).get(name, 0.0) for op in group)

    def stat(group: list[dict], name: str) -> float:
        return sum(op.get("counts", {}).get(f"stats.{name}", 0.0)
                   for op in group)

    def extra(name: str) -> float:
        return median(op["extras"].get(name, 0.0)
                      for op in ops if "extras" in op)

    pool_ops = [op for op in groups["untraced"] + ops
                if "indexes_built" in op.get("extras", {})]
    pool_builds = [op["extras"]["indexes_built"] for op in pool_ops]
    pool_hits = [op["extras"]["sample_store_hits"] for op in pool_ops]
    values = {
        "workloads.build_s": setup["times"].get("workloads", 0.0),
        "workloads.rows_encoded":
            setup["counts"].get("workloads.rows_encoded", 0.0),
        "plan.build_s": time_of(ops, "plan"),
        "plan.units": count_of(batches, "stats.trials"),
        "sample.draw_s": time_of(worker, "sample.draw"),
        "sample.decode_s": time_of(worker, "sample.decode"),
        "sample.rows": count_of(worker, "sample.rows"),
        "sample.bytes": count_of(worker, "sample.bytes"),
        "index.build_s": time_of(worker, "index"),
        "index.builds": count_of(worker, "index.builds"),
        "index.bytes_encoded": count_of(worker, "index.bytes_encoded"),
        "views.split_s": time_of(worker, "views"),
        "kernel.size_s": time_of(worker, "kernel"),
        "histogram.cf_s": time_of(worker, "histogram"),
        "histogram.units": count_of(worker, "histogram.units"),
        "store.get_s": time_of(worker, "store.get"),
        "store.put_s": time_of(worker, "store.put"),
        "store.bytes_read": count_of(worker, "store.bytes_read"),
        "store.bytes_written": count_of(worker, "store.bytes_written"),
        "pool.run_s": time_of(ops, "pool"),
        "pool.ship_bytes": float(ship_bytes),
        "pool.indexes_built": median(pool_builds),
        "pool.indexes_built_iqr": iqr(pool_builds),
        "pool.sample_store_hits": median(pool_hits),
        "pool.sample_store_hits_iqr": iqr(pool_hits),
        "advisor.self_s": time_of(ops, "advisor"),
        "advisor.engine_batches":
            count_of(ops, "engine.batches") if advise else 0.0,
        "advisor.rounds": extra("rounds"),
        "advisor.units": median(op["units"] for op in ops)
        if advise else 0.0,
        "advisor.unit_savings": extra("unit_savings"),
        "engine.self_s": time_of(ops, "engine"),
        "engine.degraded_units": stat(batches, "degraded_units"),
        "engine.retry_attempts": stat(batches, "retry_attempts"),
        "engine.deadline_skipped_units":
            stat(batches, "deadline_skipped_units"),
        "trace.wall_s": median(op["wall"] for op in ops),
        "trace.unattributed_s": time_of(ops, UNATTRIBUTED),
        "trace.overhead_s": median(op["wall"] for op in ops)
        - median(op["wall"] for op in groups["untraced"]),
    }
    cache_hits = stat(worker, "sample_cache_hits")
    drawn = stat(worker, "samples_materialized")
    disk_hits = stat(worker, "sample_store_hits")
    reused = stat(worker, "index_reuse_hits")
    sized = stat(worker, "size_kernel_hits")
    ratios = {
        "plan.dedup_ratio": (stat(batches, "unique_requests"),
                             stat(batches, "requests")),
        "cache.hit_ratio": (cache_hits, cache_hits + drawn + disk_hits),
        "index.reuse_ratio": (reused,
                              reused + stat(worker, "indexes_built")),
        "kernel.hit_ratio": (sized,
                             sized + stat(worker, "size_scalar_fallbacks")),
        "store.estimate_hit_ratio": (stat(worker, "estimate_store_hits"),
                                     stat(worker, "trials")),
        "store.sample_hit_ratio": (disk_hits, disk_hits + drawn),
        "pool.useful_index_ratio": (
            count_of(replay, "stats.indexes_built"), median(pool_builds)),
        "batcher.coalesce_ratio": (
            sum(1 for op in served if op["coalesced"]), len(served)),
    }
    notes: dict[str, str] = {}
    for name, (part, whole) in ratios.items():
        values[name] = ratio(part, whole)
        notes[name] = f"base {part:g} / {whole:g}"
    service = {
        "service.handler_ms": [op["handler"] for op in served],
        "service.transport_ms": [op["times"]["service.transport"]
                                 for op in served],
        "batcher.window_wait_ms": [op["window_wait"] for op in served],
        "batcher.execute_ms": [op["execute"] for op in served],
    }
    for name, seconds in service.items():
        millis = [1000.0 * value for value in seconds]
        values[name] = median(millis)
        notes[name] = f"IQR {iqr(millis):.3f} ms"
    return {name: values[name] for name in PER_LAYER}, notes
