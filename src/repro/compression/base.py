"""Compression algorithm interfaces and result types.

Design
------
The paper's estimator is *agnostic to the internals of the compression
algorithm*: it only needs "bytes before" and "bytes after". To honour
that, every algorithm answers one narrow interface, which
:class:`CompressionAlgorithm` implements once for all of them:

* :meth:`CompressionAlgorithm.compress` — take the record byte-strings of
  one unit (a page for page-scoped algorithms, the whole index for
  index-scoped ones) plus their schema and return a
  :class:`CompressedBlock`;
* :meth:`CompressionAlgorithm.decompress` — invert it exactly (tests
  round-trip every algorithm).

Each column is compressed independently (paper Section II-A), so both
are one loop over the schema's columns, and a codec is only its column
hooks: ``_compress_column(dtype, slices)`` returns one
:class:`CompressedColumn` and ``_decompress_column(dtype, blob, count)``
inverts it. A custom codec subclasses :class:`CompressionAlgorithm`
and implements those two.

Two size views
--------------
``CompressedBlock.payload_size`` counts the bytes the paper's analytical
model counts: data retained after compression (values, lengths,
dictionary entries, pointers). ``CompressedBlock.serialized_size`` is the
length of the actual self-describing blob, which additionally carries the
small structural headers (entry counts, pointer widths) that a real page
keeps in its page-header compression info. Payload accounting therefore
matches the paper's formulas exactly, while physical accounting charges
whole pages.

Two ways to size a unit
-----------------------
``compress`` is the reference. :meth:`CompressionAlgorithm.size_of` is
the size kernel every estimate runs on: the same ``payload_size``,
summed over every leaf page of an index in one call, computed
vectorized from column views without building a blob. It too is one
loop over the columns, summing the codec's third hook,
``_size_column(dtype, view, bounds)``; a codec without a kernel leaves
that hook out, and its callers fall back to ``compress``. Repacking
(:mod:`repro.compression.repack`) sizes candidate pages with the same
two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Sequence

from repro.errors import CompressionError, KernelUnavailable
from repro.storage.record import split_records
from repro.storage.schema import Schema
from repro.storage.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.compression.kernels import ColumnView

Scope = Literal["page", "index"]


@dataclass(frozen=True)
class CompressedColumn:
    """One column's compressed form inside a block."""

    #: Self-describing compressed bytes (round-trippable).
    blob: bytes
    #: Model-accounted size in bytes (excludes self-description headers).
    payload_size: int

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise CompressionError(
                f"negative payload size {self.payload_size}")


@dataclass(frozen=True)
class CompressedBlock:
    """The compressed form of one unit (page or whole index)."""

    algorithm: str
    row_count: int
    columns: tuple[CompressedColumn, ...]

    @property
    def payload_size(self) -> int:
        """Model-accounted compressed bytes of this block."""
        return sum(col.payload_size for col in self.columns)

    @property
    def serialized_size(self) -> int:
        """Actual blob bytes including structural headers."""
        return sum(len(col.blob) for col in self.columns)


class CompressionAlgorithm(ABC):
    """Base class for all compression algorithms."""

    #: Identifier used in registries, reports and experiment configs.
    name: str = "abstract"

    #: Whether the algorithm operates per page or across the whole index.
    scope: Scope = "page"

    # -- the column hooks a codec implements ----------------------------
    @abstractmethod
    def _compress_column(self, dtype: DataType, slices: list[bytes],
                         ) -> CompressedColumn:
        """Compress one column's value slices, one per row."""

    @abstractmethod
    def _decompress_column(self, dtype: DataType, blob: bytes, count: int,
                           ) -> list[bytes]:
        """Exactly invert :meth:`_compress_column` into ``count`` slices."""

    def _size_column(self, dtype: DataType, view: "ColumnView",
                     bounds: "np.ndarray") -> int:
        """One column's share of :meth:`size_of` (the size kernel).

        Codecs with a vectorized kernel override this; the default has
        none, so :meth:`size_of` raises and its callers fall back to
        :meth:`compress`.
        """
        raise KernelUnavailable(
            f"{self.name} has no vectorized size kernel")

    # -- the unit interface: one column loop each -----------------------
    def compress(self, records: Sequence[bytes], schema: Schema,
                 ) -> CompressedBlock:
        """Compress one unit of records, column by column."""
        if not records:
            raise CompressionError("cannot compress an empty record set")
        columns = self.columnize(records, schema)
        compressed = tuple(
            self._compress_column(col.dtype, slices)
            for col, slices in zip(schema.columns, columns))
        return CompressedBlock(algorithm=self.name, row_count=len(records),
                               columns=compressed)

    def decompress(self, block: CompressedBlock, schema: Schema,
                   ) -> list[bytes]:
        """Exactly invert :meth:`compress`."""
        if len(block.columns) != len(schema):
            raise CompressionError(
                f"block has {len(block.columns)} columns, schema has "
                f"{len(schema)}")
        return self.recordize([
            self._decompress_column(col.dtype, comp.blob, block.row_count)
            for col, comp in zip(schema.columns, block.columns)])

    def size_of(self, views: Sequence["ColumnView"], schema: Schema,
                bounds: "np.ndarray") -> int:
        """Exact summed ``compress(...).payload_size`` without blobs.

        ``views`` is one split of a whole index or record batch (see
        :func:`repro.compression.kernels.build_column_views`), one view
        per schema column. ``bounds`` are int64 fence posts of
        non-empty segments: segment ``i`` is rows ``bounds[i]`` to
        ``bounds[i + 1]``, and rows outside ``bounds[0]:bounds[-1]`` are
        not read. The result is the sum over segments of ``compress(
        segment).payload_size``, computed as the sum over columns of
        :meth:`_size_column`, one vectorized pass per column: an index
        passes its leaf bounds (or ``[0, n]`` for an index-scoped
        codec), repack one ``[start, stop]`` range.

        Kernels must be **bit-identical** to the scalar path — the
        estimator treats the two routes as interchangeable, including
        for persisted estimates. A segment ``compress`` rejects (more
        dictionary entries than its pointer addresses) raises
        :class:`CompressionError` here too. A kernel raises
        :class:`~repro.errors.KernelUnavailable` for any input it does
        not cover; callers fall back to :meth:`compress`.
        """
        return sum(self._size_column(col.dtype, view, bounds)
                   for col, view in zip(schema.columns, views))

    def cf_from_histogram(self, histogram: "ColumnHistogram",  # noqa: F821
                          **layout) -> float:
        """Closed-form CF on a value histogram (if the model exists).

        Implemented by algorithms whose compressed size depends only on
        the value multiset (and, for paged algorithms, a sorted clustered
        layout described by the ``layout`` keywords: ``page_size``,
        ``record_bytes``, ``fill_factor``). Raises
        :class:`CompressionError` otherwise.
        """
        raise CompressionError(
            f"{self.name} has no histogram model; use the storage path")

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def columnize(records: Sequence[bytes], schema: Schema,
                  ) -> list[list[bytes]]:
        """Transpose records into per-column slice lists.

        Delegates to the batch record splitter, which resolves memoized
        fixed-width offsets once per schema (the common case) and walks
        variable-width records individually otherwise.
        """
        from repro.errors import EncodingError

        try:
            return split_records(schema, records)
        except EncodingError as exc:
            raise CompressionError(str(exc)) from exc

    @staticmethod
    def recordize(columns: Sequence[Sequence[bytes]]) -> list[bytes]:
        """Inverse of :meth:`columnize`: stitch columns back into records."""
        if not columns:
            return []
        counts = {len(col) for col in columns}
        if len(counts) != 1:
            raise CompressionError(
                f"ragged columns: row counts {sorted(counts)}")
        return [b"".join(col[row] for col in columns)
                for row in range(counts.pop())]

    def __repr__(self) -> str:
        # Part of the persisted identity of delta and prefix, which hold
        # a NullSuppression: ``algorithm_key`` reprs instance state, so
        # this names configuration only.
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing a set of pages or a whole index."""

    algorithm: str
    accounting: Literal["payload", "physical"]
    uncompressed_bytes: int
    compressed_bytes: int
    row_count: int
    pages_before: int | None = None
    pages_after: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def compression_fraction(self) -> float:
        """``compressed / uncompressed`` — the paper's CF metric."""
        if self.uncompressed_bytes <= 0:
            raise CompressionError(
                "compression fraction undefined for empty input")
        return self.compressed_bytes / self.uncompressed_bytes

    @property
    def space_savings(self) -> float:
        """``1 - CF``: the fraction of space reclaimed."""
        return 1.0 - self.compression_fraction
