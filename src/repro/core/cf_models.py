"""Value histograms and closed-form compression-fraction models.

The paper's analysis (Section III) works entirely in terms of the value
*multiset* of the indexed column: ``n`` rows, ``d`` distinct values,
null-suppressed lengths ``l_i``. A :class:`ColumnHistogram` captures that
multiset exactly — distinct values plus their counts — and scales to the
paper's 100-million-row Example 1, because sampling from a table under
uniform row sampling is distributionally identical to a multinomial (or
hypergeometric) draw over its histogram.

The closed forms implemented here:

* :func:`ns_cf` — Section III-A:
  ``CF_NS = sum_i cnt_i * (l_i + c) / (n * k)``
* :func:`global_dictionary_cf` — Section III-B's simplified model:
  ``CF_D = (d * k + n * p) / (n * k) = d/n + p/k``
* :func:`paged_dictionary_cf` — Section III-B's full model with paging:
  ``CF_D = (sum_i Pg(i) * k + n * p) / (n * k)`` where ``Pg(i)`` is the
  number of leaf pages value *i* occupies in the sorted clustered layout
* :func:`paged_rle_cf` — the RLE extension's analogue (one run per value
  per page it spans).

In ``payload`` accounting these models agree *exactly* with compressing
the real index built by :mod:`repro.storage` — the integration tests
assert byte equality, which is what lets theorem-level results verified
against the models transfer to the engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE, DEFAULT_POINTER_BYTES
from repro.errors import EstimationError
from repro.sampling.rng import SeedLike, make_rng
from repro.storage.page import records_per_page
from repro.storage.record import join_records
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType
from repro.compression import kernels
from repro.compression.dictionary import (EntryStorage, _entry_stored_size,
                                          pointer_bytes_for)
from repro.compression.null_suppression import (NSMode, ns_header_bytes,
                                                ns_stored_size)
from repro.compression.rle import RUN_COUNT_BYTES

Order = Literal["sorted", "shuffled"]

#: The scalar reference of each per-value size array, one value at a
#: time: what the size kernels compute for all distinct values at once.
#: ``ns_*`` is the null-suppressed size per mode, ``entry_*`` the
#: dictionary entry size per entry storage.
_SCALAR_SIZES: dict[str, Callable[[DataType, Any], int]] = {
    "encoded": lambda dtype, value: dtype.encoded_size(value),
    "ns_trailing": lambda dtype, value: ns_stored_size(dtype, value,
                                                       "trailing"),
    "ns_runs": lambda dtype, value: ns_stored_size(dtype, value, "runs"),
    "entry_fixed": lambda dtype, value: _entry_stored_size(
        dtype, dtype.encode(value), "fixed"),
    "entry_null_suppressed": lambda dtype, value: _entry_stored_size(
        dtype, dtype.encode(value), "null_suppressed"),
}


class ColumnHistogram:
    """Exact value multiset of one column: distinct values and counts.

    Its per-distinct-value arrays (uncompressed size, null-suppressed
    size per mode, dictionary entry size per entry storage), ``n``,
    :attr:`total_bytes` and the :meth:`sorted_by_value` order are
    computed on first use and cached; the constructor computes none of
    them. A histogram built from values sizes them once, with the
    size kernels over one :class:`~repro.compression.kernels.ColumnView`
    of its encoded distinct values (or, with ``REPRO_DISABLE_KERNELS``
    set, with the scalar references ``ns_stored_size`` and
    ``_entry_stored_size``). A histogram that :meth:`with_counts` or
    :meth:`sorted_by_value` derives is its parent plus counts: it keeps
    the parent (the histogram that sized the values, never a sample)
    and the positions of its values there, validates nothing, and
    gathers every array, and its :attr:`values`, from the parent's.
    Filling a cache is idempotent, so threads may share a histogram.
    A pickle holds ``dtype``, ``values`` and ``counts`` but no cache
    and no parent: it unpickles as a histogram of its own.
    """

    def __init__(self, dtype: DataType, values: Sequence[Any],
                 counts: Sequence[int] | np.ndarray) -> None:
        values = tuple(values)
        counts_array = np.asarray(counts, dtype=np.int64)
        if len(values) != counts_array.shape[0]:
            raise EstimationError(
                f"{len(values)} values but {counts_array.shape[0]} counts")
        if len(values) == 0:
            raise EstimationError("a histogram needs at least one value")
        if len(set(values)) != len(values):
            raise EstimationError("histogram values must be distinct")
        if np.any(counts_array <= 0):
            raise EstimationError("histogram counts must be positive")
        for value in values:
            dtype.validate(value)
        self._adopt(dtype, values, counts_array)

    def _adopt(self, dtype: DataType, values: tuple | None,
               counts: np.ndarray,
               source: "tuple[ColumnHistogram, np.ndarray] | None" = None,
               ) -> None:
        """Set every attribute. A root has its ``values``; a derived
        histogram has, instead, its ``source``: the parent and the
        positions of its values there."""
        self.dtype = dtype
        self._values = values
        self.counts = counts
        self._sorted_cache: "ColumnHistogram | None" = None
        self._source = source
        self._cache: dict[str, Any] = {}

    def __getstate__(self) -> dict:
        # The keys a histogram pickled with before it cached anything,
        # so a sample's store entry keeps its bytes; a content
        # fingerprint the store memoized on it travels along.
        state = {"dtype": self.dtype, "values": self.values,
                 "counts": self.counts, "_sorted_cache": None}
        fingerprint = self.__dict__.get("_content_fingerprint")
        if fingerprint is not None:
            state["_content_fingerprint"] = fingerprint
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        self._adopt(state.pop("dtype"), state.pop("values"),
                    state.pop("counts"))
        state.pop("_sorted_cache", None)
        self.__dict__.update(state)

    def _cached(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()``, cached under ``name`` on first use."""
        value = self._cache.get(name)
        if value is None:
            value = self._cache.setdefault(name, compute())
        return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, dtype: DataType, values: Iterable[Any],
                    ) -> "ColumnHistogram":
        """Histogram of an explicit value sequence (e.g. a table column)."""
        counter = Counter(values)
        if not counter:
            raise EstimationError("no values supplied")
        distinct = list(counter)
        return cls(dtype, distinct, [counter[v] for v in distinct])

    @classmethod
    def from_counts(cls, dtype: DataType,
                    items: Mapping[Any, int] | Iterable[tuple[Any, int]],
                    ) -> "ColumnHistogram":
        """Histogram from ``value -> count`` pairs."""
        if isinstance(items, Mapping):
            pairs = list(items.items())
        else:
            pairs = list(items)
        if not pairs:
            raise EstimationError("no counts supplied")
        values = [value for value, _ in pairs]
        counts = [count for _, count in pairs]
        return cls(dtype, values, counts)

    def with_counts(self, counts: Sequence[int] | np.ndarray,
                    ) -> "ColumnHistogram":
        """Same distinct values with new counts; zero-count values drop.

        This is how samplers express "the histogram of the sample". A
        negative count is an error, as in the constructor. The result
        is this histogram's parent plus the kept positions and their
        counts: no value is validated again, and its size arrays are
        gathers of the parent's.
        """
        counts_array = np.asarray(counts, dtype=np.int64)
        if counts_array.shape[0] != self.d:
            raise EstimationError(
                f"expected {self.d} counts, got {counts_array.shape[0]}")
        if np.any(counts_array < 0):
            raise EstimationError("histogram counts must not be negative")
        kept = np.flatnonzero(counts_array > 0)
        if kept.size == 0:
            raise EstimationError("sample histogram would be empty")
        return self._gather(kept, counts_array[kept])

    def _gather(self, positions: np.ndarray,
                counts: np.ndarray) -> "ColumnHistogram":
        """This histogram's values at ``positions``, with ``counts``."""
        if self._source is None:
            source = (self, positions)
        else:
            parent, kept = self._source
            source = (parent, kept[positions])
        histogram = ColumnHistogram.__new__(ColumnHistogram)
        histogram._adopt(self.dtype, None, counts, source)
        return histogram

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------
    @property
    def values(self) -> tuple:
        """The distinct values (a derived histogram's, gathered on
        first use)."""
        if self._values is None:
            assert self._source is not None  # a root keeps its values
            parent, kept = self._source
            values = parent.values
            self._values = tuple([values[i] for i in kept.tolist()])
        return self._values

    @property
    def n(self) -> int:
        """Total number of rows."""
        return self._cached("n", lambda: int(self.counts.sum()))

    @property
    def d(self) -> int:
        """Number of distinct values."""
        return self.counts.shape[0]

    def frequency_of_frequencies(self) -> dict[int, int]:
        """``f_j``: how many distinct values occur exactly ``j`` times."""
        unique, tallies = np.unique(self.counts, return_counts=True)
        return {int(j): int(t) for j, t in zip(unique, tallies)}

    # ------------------------------------------------------------------
    # Size vectors: one entry per distinct value, in value order. Each
    # is computed once by the histogram that sized the values and
    # gathered by those derived from it; every one is cached and
    # read-only.
    # ------------------------------------------------------------------
    def uncompressed_value_sizes(self) -> np.ndarray:
        """Uncompressed stored bytes of each distinct value."""
        return self._sizes("encoded")

    @property
    def total_bytes(self) -> int:
        """Uncompressed bytes of the whole column (the CF denominator)."""
        return self._cached("total_bytes", lambda: int(
            (self.uncompressed_value_sizes() * self.counts).sum()))

    def ns_stored_sizes(self, mode: NSMode = "trailing") -> np.ndarray:
        """Per-distinct-value stored size under null suppression."""
        return self._sizes(f"ns_{mode}")

    def dictionary_entry_sizes(self, entry_storage: EntryStorage = "fixed",
                               ) -> np.ndarray:
        """Dictionary entry bytes of each distinct value."""
        return self._sizes(f"entry_{entry_storage}")

    def _sizes(self, name: str) -> np.ndarray:
        """The size array ``name``: the parent's, gathered, or computed."""
        if name not in _SCALAR_SIZES:
            raise EstimationError(f"unknown size vector {name!r}")

        def compute() -> np.ndarray:
            if self._source is not None:
                parent, kept = self._source
                sizes = parent._sizes(name)[kept]
            elif kernels.kernels_enabled() and kernels.kernels_cover(
                    self._schema()):
                sizes = self._kernel_sizes(name)
            else:
                size = _SCALAR_SIZES[name]
                sizes = np.fromiter(
                    (size(self.dtype, value) for value in self.values),
                    dtype=np.int64, count=self.d)
            sizes.flags.writeable = False
            return sizes

        return self._cached(name, compute)

    def _schema(self) -> Schema:
        return Schema([Column("value", self.dtype)])

    def _kernel_sizes(self, name: str) -> np.ndarray:
        """Size array ``name`` of every distinct value at once.

        A fixed-width value and its fixed dictionary entry take the
        type's width; the rest is read off one view of the encoded
        values. Null suppression keeps a VARCHAR slice, length prefix
        included, as it is, so its encoded size is its NS size, and a
        null-suppressed dictionary entry costs its value's trailing NS
        size.
        """
        width = self.dtype.fixed_size
        if name in ("encoded", "entry_fixed") and width is not None:
            return np.full(self.d, width, dtype=np.int64)
        view = self._cached("view", lambda: kernels.build_column_views(
            self._schema(), *join_records(
                [self.dtype.encode(value) for value in self.values]))[0])
        return view.ns_runs_sizes if name == "ns_runs" else view.ns_sizes

    # ------------------------------------------------------------------
    # Ordering and materialisation
    # ------------------------------------------------------------------
    def sorted_by_value(self) -> "ColumnHistogram":
        """Histogram with values in index-key order (cached).

        Python-value order is the order
        :func:`repro.storage.index.key_order` gives the encoded values,
        so this is the order a clustered index lays rows out in
        (:func:`pages_spanned` relies on it). For CHAR that is not
        padded-byte order: ``'ab'`` sorts before ``'ab\\x01'`` although
        its blank padding sorts after, and ``key_order`` puts it first
        too. (CHAR values carry no trailing blanks, as decoded ones.)
        The result is derived like a :meth:`with_counts` one.
        """
        if self._sorted_cache is None:
            order = self._key_order()
            histogram = self._gather(order, self.counts[order])
            histogram._sorted_cache = histogram
            self._sorted_cache = histogram
        return self._sorted_cache

    def _key_order(self) -> np.ndarray:
        """Positions of the values in :meth:`sorted_by_value` order.

        A root sorts its values once; a derived histogram argsorts its
        values' ranks in the parent's order.
        """
        def order() -> np.ndarray:
            if self._source is None:
                return np.array(
                    sorted(range(self.d), key=self.values.__getitem__),
                    dtype=np.int64)
            parent, kept = self._source
            return np.argsort(parent._ranks()[kept])

        return self._cached("order", order)

    def _ranks(self) -> np.ndarray:
        """Each value's position in key order."""
        return self._cached("ranks", lambda: np.argsort(self._key_order()))

    def expand_codes(self, order: Order = "sorted",
                     seed: SeedLike = None) -> np.ndarray:
        """The multiset's rows as int64 codes into the sorted values.

        Row ``i`` holds ``sorted_by_value().values[codes[i]]``.
        ``sorted`` gives the clustered layout; ``shuffled`` a random heap
        layout (used by the block-sampling ablation), one
        ``make_rng(seed).permutation`` of the sorted rows.
        """
        codes = np.repeat(np.arange(self.d, dtype=np.int64),
                          self.sorted_by_value().counts)
        if order == "sorted":
            return codes
        if order == "shuffled":
            return codes[make_rng(seed).permutation(codes.size)]
        raise EstimationError(f"unknown expansion order {order!r}")

    def expand(self, order: Order = "sorted",
               seed: SeedLike = None) -> list[Any]:
        """Materialise the multiset as a list of values.

        Rows come in :meth:`expand_codes` order.
        """
        values = self.sorted_by_value().values
        return [values[code]
                for code in self.expand_codes(order, seed).tolist()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ColumnHistogram(dtype={self.dtype.name}, n={self.n}, "
                f"d={self.d})")


# ----------------------------------------------------------------------
# Closed-form CF models
# ----------------------------------------------------------------------
def uncompressed_bytes(histogram: ColumnHistogram) -> int:
    """Uncompressed column size in bytes (``n * k`` for CHAR columns)."""
    return histogram.total_bytes


def ns_cf(histogram: ColumnHistogram, mode: NSMode = "trailing") -> float:
    """Section III-A: ``CF_NS = sum cnt * (l + c) / (n * k)``."""
    stored = histogram.ns_stored_sizes(mode)
    return float((stored * histogram.counts).sum()) / histogram.total_bytes


def global_dictionary_cf(histogram: ColumnHistogram,
                         pointer_bytes: int | None = DEFAULT_POINTER_BYTES,
                         entry_storage: EntryStorage = "fixed") -> float:
    """Section III-B simplified model: ``(d*k + n*p) / (n*k)``.

    With ``entry_storage="fixed"`` and a CHAR(k) column this is literally
    ``d/n + p/k``; the general form supports NS'd entries and other
    types.
    """
    width = pointer_bytes if pointer_bytes is not None \
        else pointer_bytes_for(histogram.d)
    entries = int(histogram.dictionary_entry_sizes(entry_storage).sum())
    compressed = entries + histogram.n * width
    return compressed / histogram.total_bytes


def pages_spanned(histogram: ColumnHistogram, rows_per_page: int,
                  ) -> np.ndarray:
    """The paper's ``Pg(i)``: pages each value occupies, sorted layout."""
    if rows_per_page <= 0:
        raise EstimationError(
            f"rows per page must be positive, got {rows_per_page}")
    ordered = histogram.sorted_by_value()
    ends = np.cumsum(ordered.counts)
    starts = ends - ordered.counts
    return (ends - 1) // rows_per_page - starts // rows_per_page + 1


def layout_rows_per_page(histogram: ColumnHistogram,
                         page_size: int = DEFAULT_PAGE_SIZE,
                         record_bytes: int | None = None,
                         fill_factor: float = 1.0) -> int:
    """Rows per leaf page for the index layout being modelled.

    ``record_bytes`` defaults to the column's own width (single-column
    clustered index, the paper's canonical setting); pass the full leaf
    record width for multi-column or non-clustered indexes.
    """
    if record_bytes is None:
        fixed = histogram.dtype.fixed_size
        if fixed is None:
            raise EstimationError(
                "paged models need a fixed record size; pass record_bytes")
        record_bytes = fixed
    return records_per_page(int(fill_factor * page_size), record_bytes)


def paged_dictionary_cf(histogram: ColumnHistogram,
                        pointer_bytes: int | None = DEFAULT_POINTER_BYTES,
                        entry_storage: EntryStorage = "fixed",
                        page_size: int = DEFAULT_PAGE_SIZE,
                        record_bytes: int | None = None,
                        fill_factor: float = 1.0) -> float:
    """Section III-B full model: ``(sum Pg(i)*k + n*p) / (n*k)``.

    Each distinct value is stored once in every page it occupies (the
    in-lined per-page dictionary), and every row stores a pointer.
    Requires a fixed ``pointer_bytes``: with a derived width the pointer
    size would vary per page, which is exactly the complication the
    paper's simplified model avoids.
    """
    if pointer_bytes is None:
        raise EstimationError(
            "the paged dictionary model needs a fixed pointer width")
    rows_per_page = layout_rows_per_page(
        histogram, page_size, record_bytes, fill_factor)
    ordered = histogram.sorted_by_value()
    spans = pages_spanned(ordered, rows_per_page)
    entries = ordered.dictionary_entry_sizes(entry_storage)
    compressed = int((spans * entries).sum()) + ordered.n * pointer_bytes
    return compressed / ordered.total_bytes


def paged_rle_cf(histogram: ColumnHistogram,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 record_bytes: int | None = None,
                 fill_factor: float = 1.0) -> float:
    """RLE on a sorted clustered layout: one run per value per page."""
    rows_per_page = layout_rows_per_page(
        histogram, page_size, record_bytes, fill_factor)
    ordered = histogram.sorted_by_value()
    spans = pages_spanned(ordered, rows_per_page)
    header = ns_header_bytes(ordered.dtype)
    bodies = ordered.ns_stored_sizes("trailing") - header
    run_sizes = RUN_COUNT_BYTES + header + bodies
    compressed = int((spans * run_sizes).sum())
    return compressed / ordered.total_bytes


def expected_distinct_in_sample(histogram: ColumnHistogram, r: int,
                                with_replacement: bool = True) -> float:
    """``E[d']`` for a uniform sample of ``r`` rows.

    With replacement: ``sum_i 1 - (1 - cnt_i/n)^r``; without:
    ``sum_i 1 - C(n - cnt_i, r) / C(n, r)``.
    """
    if r <= 0:
        raise EstimationError(f"sample size must be positive, got {r}")
    n = histogram.n
    counts = histogram.counts.astype(np.float64)
    if with_replacement:
        log_miss = r * np.log1p(-counts / n)
        return float((1.0 - np.exp(log_miss)).sum())
    if r > n:
        raise EstimationError(
            f"cannot draw {r} rows from {n} without replacement")
    from scipy.special import gammaln  # local: scipy optional elsewhere

    log_total = gammaln(n + 1) - gammaln(r + 1) - gammaln(n - r + 1)
    remaining = n - counts
    with np.errstate(invalid="ignore"):
        log_miss = (gammaln(remaining + 1) - gammaln(r + 1)
                    - gammaln(remaining - r + 1) - log_total)
    miss = np.where(remaining >= r, np.exp(log_miss), 0.0)
    return float((1.0 - miss).sum())
