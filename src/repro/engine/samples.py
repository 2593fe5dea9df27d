"""Materialized samples, their LRU cache, and engine counters.

The expensive part of SampleCF on the storage path is not compression —
samples are small — but *getting the sample*: drawing positions,
gathering the sampled records' bytes, and building the index on them.
A :class:`MaterializedSample` captures the draw once per distinct
(source, sampler, fraction, seed) as one record buffer, and carries a
per-layout cache of sample indexes, each an
:class:`~repro.storage.index.Index` sorted and packed straight from
those bytes. The sample, not the index, is the unit of that work: the
draw's split into column views stays on the sample, the records are
sorted once per key-column tuple, and each column's view in that order
is taken once, so both index kinds on one key, at every page size and
fill factor, share one split, one sort and the same sorted views, with
every array the size kernels derive on them. A batch of (column-set ×
algorithm) candidates over one table therefore pays the draw once, the
sort once per key and the pack once per layout — every algorithm then
only re-sizes shared leaves. No record is decoded on this path.

:class:`SampleCache` is a thread-safe LRU with single-flight semantics:
when several plan nodes race for the same key, exactly one thread
materializes and the rest wait, which is what keeps concurrent batches
on one engine (the HTTP service's handler threads) and concurrent
connections on one worker from duplicating work.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

import numpy as np

from repro.compression import kernels
from repro.compression.kernels import ColumnView
from repro.errors import EstimationError
from repro.obs import NULL_TRACER
from repro.sampling.base import RowSampler, rows_for_fraction
from repro.sampling.block import BlockSampler
from repro.sampling.rng import make_rng
from repro.storage import index as storage_index
from repro.storage.index import Index, IndexKind
from repro.storage.table import Table
from repro.core.cf_models import ColumnHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import NullTracer, Tracer


#: A sample's lock and caches, none of them pickled or stored: the
#: records' column views, per key-column tuple the key order and its
#: distinct count, and per (key columns, column position) that column's
#: view in key order.
_UNPICKLED = ("_lock", "_views", "_orders", "_sorted")


@dataclass
class MaterializedSample:
    """A drawn sample, reusable across candidates.

    Table-path samples hold the sampled records' bytes: ``buffer``
    (every record back to back, in draw order), ``offsets`` (``n + 1``
    int64 fence posts) and ``rids`` (int64 ``(page_id << 32) | slot``
    per record). Histogram-path samples hold the sampled
    :class:`ColumnHistogram`. ``indexes`` maps ``(columns, kind,
    page_size, fill_factor)`` to the sample index built for that
    layout — built lazily, exactly once, from the draw's column views,
    one :func:`~repro.storage.index.key_order` per key-column tuple and
    one sorted view per (key columns, column), all cached here.

    The index-build lock and the caches are plain attributes, not
    dataclass fields: samples must pickle (process-pool execution, the
    persistent store), and ``threading.Lock`` objects cannot.
    ``__getstate__`` drops them, so a stored sample's bytes do not
    depend on what was built on it, and ``__setstate__`` recreates them
    empty; the first ``index_for`` then splits, and so validates, the
    records again. The caches are not charged to :attr:`nbytes`.
    """

    fraction: float
    seed: object
    path: str
    buffer: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.uint8))
    offsets: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64))
    rids: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    histogram: ColumnHistogram | None = None
    extra: dict = field(default_factory=dict)
    indexes: dict[tuple, Index] = field(default_factory=dict)
    #: Payload bytes this sample pins in memory (the record buffer's
    #: length, or the sampled histogram's ``total_bytes``). Set at
    #: materialization; the byte-aware LRU evicts against it. A
    #: histogram sample also keeps its parent histogram alive (it
    #: gathers its sizes from it) but is not charged for it: the parent
    #: lives in the request that sampled it, or in the service's
    #: workload cache, and every sample of it shares it.
    nbytes: int = 0

    def __post_init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        """A fresh lock and empty caches (see :data:`_UNPICKLED`)."""
        self._lock = threading.Lock()
        self._views: tuple[ColumnView, ...] | None = None
        self._orders: dict[tuple[str, ...], tuple[np.ndarray, int]] = {}
        self._sorted: dict[tuple[tuple[str, ...], int], ColumnView] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _UNPICKLED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset()

    @property
    def sample_rows(self) -> int:
        if self.histogram is not None:
            return int(self.histogram.n)
        return int(self.offsets.size) - 1

    def index_for(self, table: Table, columns: tuple[str, ...],
                  kind: IndexKind, page_size: int, fill_factor: float,
                  on_build: Callable[[], None] | None = None,
                  on_reuse: Callable[[], None] | None = None,
                  tracer: "Tracer | NullTracer" = NULL_TRACER,
                  ) -> Index:
        """The sample index for one layout, built on first use.

        A build (never a reuse) is traced as an ``index.build`` span
        carrying the index's ``rows``, ``leaves`` and ``bytes``.
        """
        key = (columns, kind.value, page_size, float(fill_factor))
        with self._lock:
            index = self.indexes.get(key)
            if index is not None:
                if on_reuse is not None:
                    on_reuse()
                return index
            with tracer.span("index.build", columns=list(columns),
                             kind=kind.value) as span:
                index = Index(
                    "samplecf_sample", table.schema, columns, kind=kind,
                    page_size=page_size, fill_factor=fill_factor)
                index.build(self.buffer, self.offsets, self.rids,
                            *self._sorted_views(index))
                span.annotate(rows=index.num_entries,
                              leaves=index.num_leaf_pages,
                              bytes=index.uncompressed_size())
            self.indexes[key] = index
            if on_build is not None:
                on_build()
            return index

    def _sorted_views(self, index: Index) -> tuple[
            list[ColumnView], tuple[np.ndarray, int]]:
        """``index``'s stored columns' views in key order, and that order.

        Called under the lock. ``key_order`` is called through its
        module, as the draw calls ``build_column_views``, so a wrapper
        set there sees every sort.
        """
        if self._views is None:
            self._views = kernels.build_column_views(
                index.table_schema, self.buffer, self.offsets)
        columns = index.key_columns
        key = self._orders.get(columns)
        if key is None:
            key = self._orders[columns] = storage_index.key_order(
                [self._views[p] for p in index.key_positions])
        views = []
        for position in index.stored_positions:
            view = self._sorted.get((columns, position))
            if view is None:
                view = self._sorted[(columns, position)] = \
                    self._views[position].take(
                        key[0], grouped=position == index.key_positions[0])
            views.append(view)
        return views, key


def materialize_table_sample(table: Table,
                             sampler: RowSampler | BlockSampler,
                             fraction: float,
                             seed: object) -> MaterializedSample:
    """Draw one reusable sample from a table (Figure 2, step 1).

    Reproduces :class:`SampleCF`'s historical draw exactly: the same
    ``make_rng(seed)`` stream and the same positions, so the facade's
    single-call results are bit-identical to pre-engine releases for a
    fixed seed. The sampled records are gathered from the heap's page
    images into one buffer, in one gather, and checked against the
    schema without decoding them: the record splitter,
    :func:`~repro.compression.kernels.build_column_views`, raises
    :class:`~repro.errors.EncodingError` for a malformed record, and
    the sample keeps the views it returns for its index builds. A
    block draw gathers every record of the pages
    :meth:`~repro.sampling.block.BlockSampler.choose_pages` picks.
    """
    if table.num_rows == 0:
        raise EstimationError("cannot estimate over an empty table")
    rng = make_rng(seed)
    r = rows_for_fraction(table.num_rows, fraction)
    heap = table.heap
    extra: dict = {}
    if isinstance(sampler, BlockSampler):
        pages = sampler.choose_pages(heap.slot_counts(), r, rng)
        ordinals = heap.page_ordinals(pages)
        path = "block"
        extra = {"pages_sampled": int(pages.size),
                 "pages_available": heap.num_pages}
    else:
        ordinals = sampler.sample_positions(table.num_rows, r, rng)
        path = "storage"
    buffer, offsets, rids = heap.gather(ordinals)
    # Validates as a decode would; raises EncodingError if malformed.
    views = kernels.build_column_views(table.schema, buffer, offsets)
    sample = MaterializedSample(
        fraction=fraction, seed=seed, path=path, buffer=buffer,
        offsets=offsets, rids=rids, extra=extra, nbytes=int(buffer.size))
    sample._views = views
    return sample


def materialize_histogram_sample(histogram: ColumnHistogram,
                                 sampler: RowSampler, fraction: float,
                                 seed: object) -> MaterializedSample:
    """Draw one reusable sampled histogram (the closed-form fast path).

    The sampler's draw ends in ``histogram.with_counts``, so the sample
    is ``histogram`` plus counts: it validates no value and gathers the
    per-value sizes ``histogram`` computes once, on first use, and it
    keeps ``histogram`` alive (see :attr:`MaterializedSample.nbytes`).
    """
    rng = make_rng(seed)
    r = rows_for_fraction(histogram.n, fraction)
    sample = sampler.sample_histogram(histogram, r, rng)
    return MaterializedSample(fraction=fraction, seed=seed,
                              path="histogram", histogram=sample,
                              nbytes=int(sample.total_bytes))


#: Fallback LRU capacity when neither kwarg nor environment sets one.
DEFAULT_SAMPLE_CACHE_SIZE = 64

#: Environment override for the default capacity (advisor runs over
#: many tables may want more; memory-constrained workers, less).
SAMPLE_CACHE_SIZE_ENV = "REPRO_SAMPLE_CACHE_SIZE"

#: Fallback byte budget for the sample LRU. Entry capacity alone lets
#: 64 paper-scale samples pin gigabytes; the byte bound is what
#: actually protects a worker's memory.
DEFAULT_SAMPLE_CACHE_BYTES = 256 * 1024 * 1024

#: Environment override for the byte budget.
SAMPLE_CACHE_BYTES_ENV = "REPRO_SAMPLE_CACHE_BYTES"


def _resolve_env_int(value: int | None, env_name: str,
                     default: int) -> int:
    if value is not None:
        return int(value)
    raw = os.environ.get(env_name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise EstimationError(
            f"{env_name} must be an integer, got {raw!r}")


def resolve_sample_cache_size(size: int | None = None) -> int:
    """The LRU capacity to use: explicit kwarg > environment > default.

    Every place that builds a :class:`SampleCache` without an explicit
    size (engines, process-pool workers) funnels through this, so one
    ``REPRO_SAMPLE_CACHE_SIZE`` setting governs the whole process tree.
    """
    return _resolve_env_int(size, SAMPLE_CACHE_SIZE_ENV,
                            DEFAULT_SAMPLE_CACHE_SIZE)


def resolve_sample_cache_bytes(max_bytes: int | None = None) -> int:
    """The LRU byte budget: explicit kwarg > environment > default."""
    return _resolve_env_int(max_bytes, SAMPLE_CACHE_BYTES_ENV,
                            DEFAULT_SAMPLE_CACHE_BYTES)


def _entry_nbytes(value: object) -> int:
    """Byte charge of one cache entry (0 for byte-less test doubles)."""
    return int(getattr(value, "nbytes", 0) or 0)


class SampleCache:
    """Thread-safe byte-aware LRU over samples with single-flight.

    ``get_or_create`` returns ``(sample, was_hit)``. Concurrent callers
    asking for the same key block until the one materializing thread
    finishes; a failed materialization wakes waiters so one of them
    retries (and surfaces the error if it persists).

    Eviction is bounded two ways: at most ``capacity`` entries *and*
    at most ``max_bytes`` of sample payload (each entry's
    :attr:`MaterializedSample.nbytes`), evicting least-recently-used
    entries until both hold — so one paper-scale sample can push out
    many small ones instead of silently pinning memory by entry count.
    The most recent entry always stays, even when it alone exceeds the
    byte budget (evicting the sample a unit is about to use would only
    force an immediate re-draw).
    """

    def __init__(self, capacity: int | None = None,
                 max_bytes: int | None = None) -> None:
        capacity = resolve_sample_cache_size(capacity)
        if capacity <= 0:
            raise EstimationError(
                f"sample cache capacity must be positive, got {capacity}")
        max_bytes = resolve_sample_cache_bytes(max_bytes)
        if max_bytes <= 0:
            raise EstimationError(
                f"sample cache byte budget must be positive, "
                f"got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._bytes = 0
        self._entries: OrderedDict[tuple, MaterializedSample] = \
            OrderedDict()
        self._pending: dict[tuple, threading.Event] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Payload bytes currently held (the eviction gauge)."""
        with self._lock:
            return self._bytes

    def get_or_create(self, key: tuple,
                      factory: Callable[[], MaterializedSample],
                      ) -> tuple[MaterializedSample, bool]:
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    return self._entries[key], True
                event = self._pending.get(key)
                if event is None:
                    event = threading.Event()
                    self._pending[key] = event
                    is_creator = True
                else:
                    is_creator = False
            if not is_creator:
                event.wait()
                continue  # entry is now cached, or creation failed
            try:
                value = factory()
            except BaseException:
                with self._lock:
                    self._pending.pop(key, None)
                event.set()
                raise
            with self._lock:
                previous = self._entries.pop(key, None)
                if previous is not None:
                    self._bytes -= _entry_nbytes(previous)
                self._entries[key] = value
                self._bytes += _entry_nbytes(value)
                while len(self._entries) > 1 and (
                        len(self._entries) > self.capacity
                        or self._bytes > self.max_bytes):
                    _, evicted = self._entries.popitem(last=False)
                    self._bytes -= _entry_nbytes(evicted)
                self._pending.pop(key, None)
            event.set()
            return value, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0


class EngineStats:
    """Thread-safe reuse counters the acceptance tests assert on.

    The ``*_store_*`` fields are the disk tier's movement: a sample (or
    finished estimate) loaded from a persistent
    :class:`~repro.store.store.SampleStore` counts as a store hit, not
    a materialization — a fully warm run therefore reports
    ``samples_materialized == 0``. ``size_kernel_hits`` /
    ``size_scalar_fallbacks`` count sized indexes, one per
    ``Index.estimate_compression`` call (all its leaf pages, the whole
    index for an index-scoped algorithm, or a repack), by whether the
    vectorized kernels or the scalar compress path sized it.

    The ``whatif_*`` fields are the lazy advisor's movement:
    ``whatif_rounds`` counts greedy selection rounds driven through the
    engine, ``whatif_pruned`` counts per-round candidate prunes whose
    bound excluded them from winning (no engine units spent),
    ``whatif_early_stops`` counts candidates whose adaptive allocation
    stopped short of the full trial budget, and ``whatif_trials_saved``
    is the total trial units those decisions avoided — so for an
    advisor run over ``K`` compressed candidates at budget ``T``,
    ``trials == K * T - whatif_trials_saved`` reconciles exactly.

    The ``remote_*`` fields are the parallel dispatcher's movement and
    cover every worker it drives, local (the process pool's forked
    workers) or remote: ``remote_units`` counts units completed on
    workers, ``remote_steals`` counts queue-stealing events,
    ``remote_retried_units`` counts units rerun after their original
    worker died, ``remote_worker_failures`` counts worker deaths
    observed mid-batch, and ``remote_fallback_units`` counts units the
    fallback executed because no worker could (the local pool for the
    remote executor, the parent process for the pool).

    Counters are not the only series: :meth:`gauges` reports the
    sample cache's occupancy when a ``cache`` backref is attached.
    :meth:`as_dict` keeps counters at the top level and nests the
    gauges under a ``gauges`` key so JSON consumers can tell the two
    apart; :meth:`snapshot`, :meth:`delta`, and :meth:`merge` are
    counters-only. Wall-clock figures (the pool's cost-model
    calibration) go to the tracer's metrics instead: these stats print
    next to the estimates and must repeat run to run.

    This bag is the **authoritative** engine-side accounting; the
    :mod:`repro.obs` metrics registry only mirrors it (see
    :func:`repro.obs.metrics.absorb_engine_stats`).
    """

    FIELDS = ("requests", "unique_requests", "trials",
              "samples_materialized", "sample_cache_hits",
              "sample_rows_drawn", "indexes_built", "index_reuse_hits",
              "estimates_computed", "sample_store_hits",
              "sample_store_writes", "estimate_store_hits",
              "estimate_store_writes", "size_kernel_hits",
              "size_scalar_fallbacks", "whatif_rounds",
              "whatif_pruned", "whatif_early_stops",
              "whatif_trials_saved", "remote_units", "remote_steals",
              "remote_retried_units", "remote_worker_failures",
              "remote_fallback_units", "faults_injected",
              "retry_attempts", "retry_giveups", "store_degraded_reads",
              "store_degraded_writes", "degraded_units",
              "deadline_skipped_units", "breaker_open_skips",
              "breaker_probes", "breaker_reconnects")

    def __init__(self, cache: "SampleCache | None" = None) -> None:
        self._lock = threading.Lock()
        self._cache = cache
        self._counts: dict[str, int] = {name: 0 for name in self.FIELDS}

    def add(self, name: str, amount: int = 1) -> None:
        if name not in self._counts:
            raise EstimationError(f"unknown engine stat {name!r}")
        with self._lock:
            self._counts[name] += amount

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def gauges(self) -> dict[str, float]:
        """The attached cache's size gauges (none without a cache)."""
        data: dict[str, float] = {}
        if self._cache is not None:
            data["sample_cache_size"] = len(self._cache)
            data["sample_cache_capacity"] = self._cache.capacity
            data["sample_cache_bytes"] = self._cache.nbytes
            data["sample_cache_max_bytes"] = self._cache.max_bytes
        return data

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of all counters."""
        with self._lock:
            return dict(self._counts)

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int],
              ) -> dict[str, int]:
        """Counter movement between two snapshots."""
        return {name: after[name] - before.get(name, 0) for name in after}

    def merge(self, other: "EngineStats | dict") -> None:
        """Fold another counter set (or snapshot dict) into this one.

        This is how batch-local counters reach an engine's global stats
        and how worker deltas reach a batch's counters —
        one atomic merge instead of racy before/after snapshots.
        """
        counts = (other.snapshot() if isinstance(other, EngineStats)
                  else other)
        with self._lock:
            for name, amount in counts.items():
                if name not in self._counts:
                    raise EstimationError(f"unknown engine stat {name!r}")
                self._counts[name] += amount

    def as_dict(self) -> dict[str, Any]:
        """Counters at the top level, every gauge nested under ``gauges``.

        The nested key is deliberate: JSON consumers (``repro cache
        stats``, ``estimate-batch`` payloads) must be able to tell
        summable counters from point-in-time gauges without a schema.
        """
        data: dict[str, Any] = self.snapshot()
        data["gauges"] = self.gauges()
        return data
