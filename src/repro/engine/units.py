"""Executable plan units: picklable (node, trial) work items.

The engine reduces an :class:`~repro.engine.plan.EstimationPlan` to a
flat list of :class:`PlanUnit` objects — one per (node, trial) — whose
results are order-aligned with the list. A unit carries everything its
estimation needs (the request, the trial's resolved seed, the trial's
sample-cache key) and *none* of the engine's runtime state, which makes
units plain data: ``pickle.dumps(unit)`` round-trips, so a process-pool
executor can ship units to worker processes and replay them there
bit-identically.

Runtime state travels separately as a :class:`UnitContext` (the sample
cache to share, the stats counter to charge, and optionally the
persistent :class:`~repro.store.store.SampleStore` forming the disk
tier). In-process executors pass the engine's own context; process-pool
workers build one private context per worker process (sharing the
parent's store, when set). Because every unit's randomness was resolved
at plan time, the *estimates* are byte-identical either way — only the
cache-hit accounting differs.

With a store attached, a unit resolves in tier order:

1. finished estimate on disk — returns without touching any sample;
2. sample in the memory LRU — shared across this process's batches;
3. sample on disk — its record buffer lands in the memory LRU;
4. materialize — drawn from the source, then written through to both
   tiers so every later run (in any process) hits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING, TypeVar

from repro.core.samplecf import SampleCFEstimate
from repro.engine.requests import EstimationRequest
from repro.engine.samples import (EngineStats, MaterializedSample,
                                  SampleCache, materialize_histogram_sample,
                                  materialize_table_sample)
from repro.faults import (DEFAULT_RETRY_POLICY, NULL_INJECTOR, Deadline,
                          FaultInjector, NullInjector, RetryPolicy)
from repro.obs import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import EstimationPlan
    from repro.obs import NullTracer, Tracer
    from repro.store.store import SampleStore

_T = TypeVar("_T")


@dataclass
class UnitContext:
    """Runtime state a unit executes against (never pickled)."""

    cache: SampleCache
    stats: EngineStats
    #: Disk tier; ``None`` keeps the engine memory-only.
    store: "SampleStore | None" = None
    #: Span sink; the default :data:`~repro.obs.NULL_TRACER` keeps the
    #: unit path allocation-free when tracing is off.
    tracer: "Tracer | NullTracer" = NULL_TRACER
    #: Execution budget shared by executors (skip units past it) and
    #: store I/O (cap retry sleeps); ``None`` means unbounded.
    deadline: "Deadline | None" = None
    #: Retry policy for *transient* store failures; permanent failures
    #: and exhausted budgets degrade exactly as before.
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    #: Fault hooks for engine-side sites; the default no-op keeps the
    #: hot path at one attribute check, mirroring the tracer.
    injector: "FaultInjector | NullInjector" = NULL_INJECTOR
    #: Unit indexes that absorbed a fault by degrading (lost cache
    #: reuse or persistence, ran on a fallback path). ``None`` disables
    #: the per-unit tracking; counters still move either way.
    degraded: "set[int] | None" = field(default_factory=set)
    #: Per-batch store-counter sink. The store handle is shared across
    #: concurrent batches, so its handle-global ``counters`` cannot
    #: attribute movement to one batch; when set, every store call on
    #: this batch's unit path additionally mirrors its movement here
    #: (see :meth:`SampleStore.attributed`), exactly like the
    #: batch-local :class:`EngineStats`.
    store_counters: "dict[str, int] | None" = None


@dataclass(frozen=True)
class UnitFailure:
    """A typed non-result: the unit was accounted for but not executed.

    Executors emit these in result slots (instead of raising) when a
    deadline expires, so :meth:`EstimationEngine.execute` can report
    every submitted unit exactly once in a
    :class:`~repro.engine.requests.PartialBatchResult`.
    """

    index: int
    trial: int
    kind: str = "deadline"
    detail: str = ""


def deadline_failure(unit: "PlanUnit",
                     context: UnitContext) -> UnitFailure:
    """The canonical deadline-exceeded slot value, counted once."""
    context.stats.add("deadline_skipped_units")
    context.tracer.event("unit.deadline_skipped", unit=unit.index,
                         trial=unit.trial)
    return UnitFailure(index=unit.index, trial=unit.trial,
                       kind="deadline",
                       detail="deadline expired before execution")


def _note_degraded(context: UnitContext, unit: "PlanUnit",
                   reason: str) -> None:
    """Record one absorbed fault: counters, trace event, per-unit mark."""
    context.stats.add("degraded_units")
    if context.degraded is not None:
        context.degraded.add(unit.index)
    context.tracer.event("unit.degraded", unit=unit.index, reason=reason)


def _with_store_retries(context: UnitContext, unit: "PlanUnit",
                        op: str, fn: Callable[[], _T]) -> _T:
    """Run a store operation, retrying transient failures only.

    Retry timing derives from the unit's resolved seed (decorrelated
    jitter, deterministic), sleeps are capped by the context deadline,
    and only :class:`~repro.errors.TransientStoreError` retries —
    permanent failures propagate immediately so callers degrade without
    burning the budget. On give-up the last transient error propagates
    and the existing ``except StoreError`` degradation paths take over.
    """
    from repro.errors import TransientStoreError

    policy = context.retry
    attempt = 0
    store = context.store
    sink = context.store_counters
    while True:
        try:
            if store is None or sink is None:
                return fn()
            with store.attributed(sink):
                return fn()
        except TransientStoreError as exc:
            attempt += 1
            context.stats.add("retry_attempts")
            context.tracer.event("retry.attempt", op=op,
                                 unit=unit.index, attempt=attempt,
                                 error=str(exc))
            if attempt >= policy.max_attempts:
                context.stats.add("retry_giveups")
                raise
            seed = unit.seed if isinstance(unit.seed, int) else 0
            delay = policy.delay_for(seed, attempt)
            deadline = context.deadline
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    context.stats.add("retry_giveups")
                    raise
                delay = min(delay, remaining)
            if delay > 0:
                time.sleep(delay)


@dataclass(frozen=True)
class PlanUnit:
    """One (node, trial) estimation unit, fully resolved at plan time.

    Units are self-contained descriptions: executing one requires no
    engine, only a :class:`UnitContext` to share a cache and charge
    stats to. Calling a unit with no context runs it against a fresh
    throwaway context (useful for tests and one-off replays).
    """

    request: EstimationRequest
    trial: int
    #: The trial's resolved seed (an int, or a Generator when opaque).
    seed: object
    #: The trial's sample-cache key; ``None`` means uncacheable.
    sample_key: tuple | None
    #: Position in the plan's flat unit list — the unit's identity in
    #: trace records (``-1`` for hand-built units outside a plan).
    #: Never part of a store key: fingerprints enumerate their fields
    #: explicitly.
    index: int = -1

    def __call__(self, context: UnitContext | None = None,
                 ) -> SampleCFEstimate:
        return run_plan_unit(self, context)


def plan_units(plan: "EstimationPlan") -> tuple[PlanUnit, ...]:
    """Flatten a plan into its execution units, in canonical order.

    The order — nodes as planned, trials within each node — is the
    order executors must preserve so the engine can fan results back
    out to batch positions.
    """
    flat = ((node, trial)
            for node in plan.nodes for trial in range(node.trials))
    return tuple(
        PlanUnit(request=node.request, trial=trial,
                 seed=node.trial_seeds[trial],
                 sample_key=node.sample_keys[trial],
                 index=position)
        for position, (node, trial) in enumerate(flat))


def run_plan_unit(unit: PlanUnit,
                  context: UnitContext | None = None) -> SampleCFEstimate:
    """Execute one unit: materialize (or reuse) its sample, estimate.

    This is the single entry point every executor funnels through; it
    is a top-level function on purpose so process-pool workers can
    import it by reference.
    """
    if context is None:
        context = UnitContext(cache=SampleCache(8), stats=EngineStats())
    tracer = context.tracer
    if not tracer.enabled:
        return _execute_unit(unit, context)
    request = unit.request
    with tracer.span("unit.run", unit=unit.index, trial=unit.trial,
                     algorithm=request.algorithm.name,
                     fraction=float(request.fraction),
                     label=request.label):
        return _execute_unit(unit, context)


def _execute_unit(unit: PlanUnit,
                  context: UnitContext) -> SampleCFEstimate:
    if unit.request.is_table:
        return run_table_unit(unit, context)
    return run_histogram_unit(unit, context)


def _sample_for(unit: PlanUnit,
                context: UnitContext) -> MaterializedSample:
    request = unit.request
    tracer = context.tracer
    if request.is_table:
        def _draw() -> MaterializedSample:
            return materialize_table_sample(
                request.table, request.sampler, request.fraction,
                unit.seed)
    else:
        def _draw() -> MaterializedSample:
            return materialize_histogram_sample(
                request.histogram, request.sampler, request.fraction,
                unit.seed)

    def materialize() -> MaterializedSample:
        with tracer.span("sample.materialize", unit=unit.index) as span:
            sample = _draw()
            span.annotate(rows=sample.sample_rows, bytes=sample.nbytes)
            return sample
    if unit.sample_key is None:
        sample = materialize()
        context.stats.add("samples_materialized")
        context.stats.add("sample_rows_drawn", sample.sample_rows)
        return sample
    store = context.store
    if store is None:
        sample, hit = context.cache.get_or_create(unit.sample_key,
                                                  materialize)
        if hit:
            context.stats.add("sample_cache_hits")
        else:
            context.stats.add("samples_materialized")
            context.stats.add("sample_rows_drawn", sample.sample_rows)
        return sample
    # Two-tier lookup: the disk probe nests inside the memory cache's
    # single-flight factory, so a memory hit never touches disk and
    # racing threads collapse to one disk read (or one materialize).
    # The store is a cache tier, not a dependency: any StoreError
    # (disk full, permissions, unreadable entry) degrades to a plain
    # materialize so an estimable batch never dies on persistence.
    from repro.errors import StoreError
    from repro.store.fingerprint import (sample_store_key,
                                         source_fingerprint)

    tier = {"disk_hit": False, "stored": False}

    def factory() -> MaterializedSample:
        meta = {"source": source_fingerprint(unit),
                "fraction": float(request.fraction),
                "seed": int(unit.seed)}
        with tracer.span("store.get", kind="sample",
                         unit=unit.index) as span:
            try:
                sample, disk_hit = _with_store_retries(
                    context, unit, "sample.get_or_create",
                    lambda: store.get_or_create_sample(
                        sample_store_key(unit), materialize, meta))
            except StoreError:
                span.annotate(hit=False, error=True)
                context.stats.add("store_degraded_reads")
                _note_degraded(context, unit, "store_read")
                return materialize()
            span.annotate(hit=disk_hit)
        tier["disk_hit"] = disk_hit
        tier["stored"] = not disk_hit
        return sample

    sample, mem_hit = context.cache.get_or_create(unit.sample_key,
                                                  factory)
    if mem_hit:
        context.stats.add("sample_cache_hits")
    elif tier["disk_hit"]:
        context.stats.add("sample_store_hits")
    else:
        context.stats.add("samples_materialized")
        context.stats.add("sample_rows_drawn", sample.sample_rows)
        if tier["stored"]:
            context.stats.add("sample_store_writes")
    return sample


def _estimate_tier(unit: PlanUnit, context: UnitContext):
    """``(store, key)`` when the unit's estimate may persist, else Nones.

    Opaque-seed units have no reproducible identity, so they bypass the
    store entirely (exactly like the memory cache).
    """
    if context.store is None or unit.sample_key is None:
        return None, None
    from repro.store.fingerprint import estimate_store_key

    return context.store, estimate_store_key(unit)


def _stored_estimate(unit: PlanUnit, context: UnitContext, store,
                     key) -> SampleCFEstimate | None:
    if store is None:
        return None
    from repro.errors import StoreError

    with context.tracer.span("store.get", kind="estimate",
                             unit=unit.index) as span:
        try:
            cached = _with_store_retries(
                context, unit, "estimate.get",
                lambda: store.get_estimate(key))
        except StoreError:  # unreadable store == miss, never a crash
            span.annotate(hit=False, error=True)
            context.stats.add("store_degraded_reads")
            _note_degraded(context, unit, "estimate_read")
            return None
        hit = isinstance(cached, SampleCFEstimate)
        span.annotate(hit=hit)
    if hit:
        return cached
    return None


def _persist_estimate(unit: PlanUnit, context: UnitContext, store, key,
                      estimate: SampleCFEstimate) -> None:
    if store is None:
        return
    from repro.errors import StoreError
    from repro.store.fingerprint import source_fingerprint

    with context.tracer.span("store.put", kind="estimate",
                             unit=unit.index):
        try:
            _with_store_retries(
                context, unit, "estimate.put",
                lambda: store.put_estimate(
                    key, estimate,
                    meta={"source": source_fingerprint(unit),
                          "algorithm": estimate.algorithm}))
        except StoreError:  # a cache-tier write failure loses only reuse
            context.stats.add("store_degraded_writes")
            _note_degraded(context, unit, "estimate_write")
            return
    context.stats.add("estimate_store_writes")


def run_table_unit(unit: PlanUnit,
                   context: UnitContext) -> SampleCFEstimate:
    """The literal Figure 2 path: sample rows, index them, compress."""
    request = unit.request
    store, estimate_key = _estimate_tier(unit, context)
    cached = _stored_estimate(unit, context, store, estimate_key)
    if cached is not None:
        context.stats.add("estimate_store_hits")
        return cached
    sample = _sample_for(unit, context)
    index = sample.index_for(
        request.table, request.columns, request.kind,
        request.page_size, request.fill_factor,
        on_build=lambda: context.stats.add("indexes_built"),
        on_reuse=lambda: context.stats.add("index_reuse_hits"),
        tracer=context.tracer)
    # Size-only path: the estimator consumes sizes, not blobs, so the
    # vectorized kernels compute payloads directly (bit-identical to
    # compress(); the parity suite and the store contract rely on it).
    with context.tracer.span("kernel.size", unit=unit.index,
                             algorithm=request.algorithm.name):
        result = index.estimate_compression(
            request.algorithm, accounting=request.accounting,
            repack_pages=request.repack,
            on_kernel=lambda: context.stats.add("size_kernel_hits"),
            on_fallback=lambda: context.stats.add("size_scalar_fallbacks"))
    context.stats.add("estimates_computed")
    estimate = SampleCFEstimate(
        estimate=result.compression_fraction,
        sample_rows=sample.sample_rows,
        sampling_fraction=request.fraction,
        algorithm=request.algorithm.name,
        accounting=request.accounting,
        path=sample.path,
        uncompressed_sample_bytes=result.uncompressed_bytes,
        compressed_sample_bytes=result.compressed_bytes,
        sample_distinct=index.distinct,
        details={"pages_before": result.pages_before,
                 "pages_after": result.pages_after, **sample.extra})
    _persist_estimate(unit, context, store, estimate_key, estimate)
    return estimate


def run_histogram_unit(unit: PlanUnit,
                       context: UnitContext) -> SampleCFEstimate:
    """The closed-form fast path over a sampled histogram."""
    request = unit.request
    store, estimate_key = _estimate_tier(unit, context)
    cached = _stored_estimate(unit, context, store, estimate_key)
    if cached is not None:
        context.stats.add("estimate_store_hits")
        return cached
    sample = _sample_for(unit, context)
    histogram = sample.histogram
    estimate = request.algorithm.cf_from_histogram(
        histogram, page_size=request.page_size,
        record_bytes=request.record_bytes,
        fill_factor=request.fill_factor)
    context.stats.add("estimates_computed")
    uncompressed = histogram.total_bytes
    result = SampleCFEstimate(
        estimate=estimate,
        sample_rows=histogram.n,
        sampling_fraction=request.fraction,
        algorithm=request.algorithm.name,
        accounting=request.accounting,
        path="histogram",
        uncompressed_sample_bytes=uncompressed,
        compressed_sample_bytes=round(estimate * uncompressed),
        sample_distinct=histogram.d,
        details={})
    _persist_estimate(unit, context, store, estimate_key, result)
    return result
