"""Timing shims around the program's public calls, for the traced run.

The program has no spans for most of the layers the benchmark reports,
so the benchmark times them from outside: :meth:`LayerClock.install`
wraps each public call in :data:`CALLS` and keeps a per-thread stack of
the wrapped calls that are open.  When a call returns, its *self time*
(its duration minus the wrapped calls nested in it) is charged to its
layer, and the whole subtree's breakdown is merged into the caller's
frame.  An operation the benchmark times opens a root frame with
:meth:`LayerClock.op`; the root's own self time is the part of the
operation no layer accounts for, reported as unattributed.  So for every
operation the layer self times plus the unattributed remainder add up to
its traced wall time by construction.

Shims are installed only in the traced run, and only time calls while
``enabled`` is set and the call runs in the process that installed them
(forked pool workers inherit the patched classes but must not pay for a
clock whose records they cannot return).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Root self time: the part of a timed operation outside every layer.
UNATTRIBUTED = "unattributed"

#: ``(module, attribute path, layer)`` for every wrapped public call.
#: Names imported into another module are wrapped where they are looked
#: up, which is why some functions appear under two modules.
CALLS = (
    ("repro.service.schemas", "build_batch_workload", "workloads"),
    ("repro.service.app", "build_batch_workload", "workloads"),
    ("repro.workloads.generators", "make_multicolumn_table", "workloads"),
    ("repro.engine.engine", "EstimationEngine.execute", "engine"),
    ("repro.engine.engine", "EstimationEngine.plan", "plan"),
    ("repro.engine.engine", "expand_trials", "plan"),
    ("repro.service.app", "expand_trials", "plan"),
    ("repro.engine.units", "materialize_table_sample", "sample.draw"),
    ("repro.engine.units", "materialize_histogram_sample", "sample.draw"),
    ("repro.storage.table", "Table.rows_at", "sample.decode"),
    ("repro.engine.samples", "MaterializedSample.index_for", "index"),
    ("repro.storage.index", "Index.build", "index"),
    ("repro.compression.kernels", "build_column_views", "views"),
    ("repro.compression.kernels", "build_leaf_views", "views"),
    ("repro.storage.index", "Index.estimate_compression", "kernel"),
    ("repro.store.store", "SampleStore.get_estimate", "store.get"),
    ("repro.store.store", "SampleStore.get_or_create_sample", "store.get"),
    ("repro.store.store", "SampleStore.put_estimate", "store.put"),
    ("repro.engine.executors", "ProcessPoolPlanExecutor.run", "pool"),
    ("repro.service.app", "EstimationService.run_batch",
     "service.handler"),
    ("repro.service.batching", "MicroBatcher.submit", "batcher.submit"),
    ("repro.advisor.whatif", "WhatIfAdvisor.__init__", "advisor"),
    ("repro.advisor.whatif", "WhatIfAdvisor.advise", "advisor"),
)

#: Engine counters every ``EstimationEngine.execute`` result carries in
#: ``batch.stats``; the clock sums them per operation.
ENGINE_COUNTERS = (
    "requests", "unique_requests", "trials", "samples_materialized",
    "sample_cache_hits", "indexes_built", "index_reuse_hits",
    "size_kernel_hits", "size_scalar_fallbacks", "estimate_store_hits",
    "sample_store_hits", "degraded_units", "retry_attempts",
    "deadline_skipped_units")


class _Frame:
    __slots__ = ("layer", "start", "wall", "child", "times", "counts")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.start = time.perf_counter()
        self.wall = 0.0
        self.child = 0.0
        self.times: dict[str, float] = {}
        self.counts: dict[str, float] = {}


def _merge(into: dict[str, float], other: dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0.0) + value


class LayerClock:
    """Per-thread stacks of wrapped calls, with self time per layer."""

    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        #: Called with ``(layer, frame, args, result)`` when a wrapped
        #: call returns, before its frame merges into the caller's.
        self.on_close: Callable[..., None] | None = None

    # -- frames ---------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list[_Frame], frame: _Frame) -> float:
        wall = frame.wall = time.perf_counter() - frame.start
        stack.pop()
        frame.times[frame.layer] = (frame.times.get(frame.layer, 0.0)
                                    + wall - frame.child)
        if stack:
            parent = stack[-1]
            parent.child += wall
        return wall

    def _adopt(self, stack: list[_Frame], frame: _Frame) -> None:
        if stack:
            _merge(stack[-1].times, frame.times)
            _merge(stack[-1].counts, frame.counts)

    @contextmanager
    def op(self) -> Iterator[dict[str, Any]]:
        """Time one benchmark operation as a root frame.

        Yields a record that, on exit, holds ``wall`` (seconds),
        ``times`` (self seconds per layer, :data:`UNATTRIBUTED`
        included) and ``counts``.
        """
        record: dict[str, Any] = {}
        stack = self._stack()
        frame = _Frame(UNATTRIBUTED)
        stack.append(frame)
        try:
            yield record
        finally:
            record["wall"] = self._close(stack, frame)
            record["times"] = frame.times
            record["counts"] = frame.counts

    # -- shims ----------------------------------------------------------
    def _wrap(self, original: Callable[..., Any],
              layer: str) -> Callable[..., Any]:
        clock = self

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not clock.enabled or os.getpid() != clock.pid:
                return original(*args, **kwargs)
            stack = clock._stack()
            frame = _Frame(layer)
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                clock._close(stack, frame)
                clock._adopt(stack, frame)
                raise
            clock._close(stack, frame)
            _observe(layer, frame, result)
            if clock.on_close is not None:
                clock.on_close(layer, frame, args, result)
            clock._adopt(stack, frame)
            return result

        return timed

    def install(self) -> None:
        """Wrap every call in :data:`CALLS` (and the histogram models)."""
        targets = []
        for module_name, path, layer in CALLS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            targets.append((owner, attr, layer))
        from repro.compression.base import CompressionAlgorithm

        pending = [CompressionAlgorithm]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "cf_from_histogram" in vars(cls):
                targets.append((cls, "cf_from_histogram", "histogram"))
        for owner, attr, layer in targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _observe(layer: str, frame: _Frame, result: Any) -> None:
    """Counts taken where the work happens, from the calls' results."""
    counts = frame.counts

    def add(name: str, amount: float) -> None:
        counts[name] = counts.get(name, 0.0) + amount

    if layer == "sample.draw":
        add("sample.rows", result.sample_rows)
        add("sample.bytes", result.nbytes)
    elif layer == "index" and type(result).__name__ == "Index":
        add("index.builds", 1)
        add("index.bytes_encoded", result.uncompressed_size())
    elif layer == "histogram":
        add("histogram.units", 1)
    elif layer == "workloads":
        table = result.get("table") if isinstance(result, dict) else result
        if table is not None:
            add("workloads.rows_encoded", table.num_rows)
    elif layer == "engine":
        add("engine.batches", 1)
        stats = result.stats
        for name in ENGINE_COUNTERS:
            add(f"stats.{name}", stats.get(name, 0))
        for name, value in (stats.get("store") or {}).items():
            add(f"store.{name}", value)
