"""Size-only vectorized compression kernels.

The paper's estimator is agnostic to codec internals: it consumes only
"bytes before" and "bytes after". The scalar path nevertheless pays for
fully self-describing compressed blobs — per-value pure-Python loops —
and then keeps nothing but ``payload_size``. This module provides the
fast path: each codec computes its exact payload size for a whole
column of a whole leaf (or index) in vectorized NumPy, without
constructing a blob.

Three building blocks live here:

* :func:`build_column_views` — the one record splitter. Each column is
  compressed independently (Section II-A), so every size starts by
  cutting records into columns; the sample draw, ``Index.build``,
  index sizing and repack all cut them here, vectorized and validated,
  and :func:`build_leaf_views` row-slices one split per leaf page.
  Callers reach both through this module, so a wrapper set on it (the
  repository benchmark's traced run) sees every split.
* :class:`ColumnView` — one column of a record batch in columnar form.
  Fixed-width columns become a ``(n, width)`` ``uint8`` matrix; VARCHAR
  columns become an offsets + concatenated-payload pair. Derived
  arrays the codecs share (null-suppressed lengths, decoded integers,
  padded matrices) are computed lazily and cached on the view, so a
  batch of algorithms over one leaf pays for each derivation once.
* vector primitives — ``stripped_lengths`` (trailing-pad scan),
  ``minimal_int_widths`` (two's-complement width arithmetic),
  ``run_starts`` (RLE boundaries), ``common_prefix_length``.

Every kernel is **bit-exact** against its codec's scalar
``compress(...).payload_size`` — the parity property suite asserts
this for every registered algorithm — so estimates computed through
kernels are interchangeable with (and cache-compatible with) scalar
ones, including entries already persisted in a
:class:`~repro.store.store.SampleStore`.

Codecs opt in by implementing
:meth:`~repro.compression.base.CompressionAlgorithm.size_of`; anything
uncovered (an exotic dtype, a third-party algorithm) raises
:class:`~repro.errors.KernelUnavailable` and the caller falls
back to the scalar path. Setting ``REPRO_DISABLE_KERNELS=1`` forces
the fallback everywhere, which CI uses to keep the scalar path tested.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import PAD_BYTE
from repro.errors import EncodingError, KernelUnavailable
from repro.storage.record import (fixed_column_offsets, gather_spans,
                                  record_offsets)
from repro.storage.schema import Schema
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType, length_header_bytes)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compression.base import CompressionAlgorithm

#: Environment switch: any non-empty value other than ``0`` disables
#: the vectorized kernels process-wide (scalar fallback everywhere).
DISABLE_KERNELS_ENV = "REPRO_DISABLE_KERNELS"

_PAD = PAD_BYTE[0]  # the pad byte the scalar codecs strip
_PREFIX = VarCharType.LENGTH_PREFIX_BYTES

#: ``_WIDTH_THRESHOLDS[L-1]`` is the largest magnitude a signed value
#: of ``L`` bytes can carry (``2**(8L-1) - 1``); searching a magnitude
#: into this table yields ``minimal_int_bytes`` for the whole array.
_WIDTH_THRESHOLDS = np.array(
    [(1 << (8 * width - 1)) - 1 for width in range(1, 9)], dtype=np.uint64)

_SIGN_FLIP_64 = np.uint64(1 << 63)


def kernels_enabled() -> bool:
    """Whether the vectorized size kernels are active in this process."""
    raw = os.environ.get(DISABLE_KERNELS_ENV, "").strip()
    return raw in ("", "0")


# ----------------------------------------------------------------------
# Vector primitives
# ----------------------------------------------------------------------
def minimal_int_widths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``minimal_int_bytes`` over an int64 array.

    ``v ^ (v >> 63)`` maps a value to the magnitude whose bit length
    determines its minimal two's-complement width (``v`` for ``v >= 0``,
    ``~v`` otherwise), exactly as the scalar loop's range test does.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    magnitudes = (v ^ (v >> np.int64(63))).view(np.uint64)
    return magnitude_widths(magnitudes)


def magnitude_widths(magnitudes: np.ndarray) -> np.ndarray:
    """Minimal signed widths from uint64 magnitudes (``v`` or ``~v``).

    Magnitudes above ``2**63 - 1`` — possible for deltas of BIGINT
    pairs — correctly land on a 9-byte width.
    """
    return np.searchsorted(_WIDTH_THRESHOLDS, magnitudes,
                           side="left").astype(np.int64) + 1


def stripped_lengths(matrix: np.ndarray) -> np.ndarray:
    """Per-row null-suppressed lengths of a CHAR byte matrix.

    ``matrix`` is ``(n, k)`` uint8; the result is ``len(row.rstrip(b' '))``
    per row, computed as a vectorized trailing-byte scan.
    """
    mask = matrix != _PAD
    k = matrix.shape[1]
    trailing_pads = np.argmax(mask[:, ::-1], axis=1)
    return np.where(mask.any(axis=1), k - trailing_pads, 0).astype(np.int64)


def run_starts(matrix: np.ndarray) -> np.ndarray:
    """Boolean mask of rows that begin a new run of equal rows."""
    starts = np.empty(matrix.shape[0], dtype=bool)
    starts[0] = True
    if matrix.shape[0] > 1:
        np.any(matrix[1:] != matrix[:-1], axis=1, out=starts[1:])
    return starts


def common_prefix_length(matrix: np.ndarray,
                         lengths: np.ndarray) -> int:
    """Length of the common prefix of the rows' *stripped* values.

    Positionwise agreement on the padded matrix, capped by the
    shortest stripped length (pads beyond a value's end never extend
    its prefix).
    """
    agree = (matrix == matrix[0:1]).all(axis=0)
    first_diff = int(np.argmin(agree)) if not agree.all() \
        else matrix.shape[1]
    return min(first_diff, int(lengths.min()))


# ----------------------------------------------------------------------
# Columnar views
# ----------------------------------------------------------------------
class ColumnView:
    """One column of a record batch, in kernel-consumable columnar form.

    :func:`build_column_views` builds them, one per column, and exactly
    one of the two representations is populated:

    * fixed-width dtypes: ``matrix`` — ``(count, width)`` uint8,
      C-contiguous;
    * VARCHAR: ``payload`` (all slices concatenated, uint8) with
      ``offsets``/``lengths`` (int64, slice boundaries, length
      prefixes included).

    Derived arrays are cached so every codec sizing the same leaf
    shares one trailing-pad scan, one integer decode, and one padded
    matrix. A view may be a row *slice* of a parent view (one leaf of
    a whole-index view, see :func:`build_leaf_views`); sliced views
    inherit the parent's derived arrays as zero-copy slices, so a
    hundred leaves pay for each whole-index derivation once.
    """

    def __init__(self, dtype: DataType, count: int,
                 matrix: np.ndarray | None = None,
                 payload: np.ndarray | None = None,
                 offsets: np.ndarray | None = None,
                 lengths: np.ndarray | None = None,
                 parent: "ColumnView | None" = None,
                 row_start: int = 0) -> None:
        self.dtype = dtype
        self.count = count
        self.matrix = matrix
        self.payload = payload
        self.offsets = offsets
        self.lengths = lengths
        self._parent = parent
        self._row_start = row_start
        self._derived: dict = {}

    def _inherit(self, name: str) -> np.ndarray | None:
        """The parent's derived array, sliced to this view's rows."""
        if self._parent is None:
            return None
        base = getattr(self._parent, name)
        return base[self._row_start:self._row_start + self.count]

    # -- CHAR ----------------------------------------------------------
    @property
    def char_stripped_lengths(self) -> np.ndarray:
        """Null-suppressed lengths per row (CHAR columns)."""
        cached = self._derived.get("stripped")
        if cached is None:
            cached = self._inherit("char_stripped_lengths")
            if cached is None:
                cached = stripped_lengths(self.matrix)
            self._derived["stripped"] = cached
        return cached

    # -- integers ------------------------------------------------------
    @property
    def int_values(self) -> np.ndarray:
        """Decoded int64 values (INTEGER and BIGINT columns).

        The stored encoding is big-endian with the sign bit flipped;
        flipping it back reinterprets the bits as two's complement,
        which int64 holds exactly for both widths.
        """
        cached = self._derived.get("ints")
        if cached is None:
            cached = self._inherit("int_values")
            if cached is None:
                if isinstance(self.dtype, IntegerType):
                    unsigned = self.matrix.view(">u4").ravel() \
                        .astype(np.int64)
                    cached = unsigned - np.int64(1 << 31)
                else:
                    cached = (self.uint_values ^ _SIGN_FLIP_64) \
                        .view(np.int64)
            self._derived["ints"] = cached
        return cached

    @property
    def uint_values(self) -> np.ndarray:
        """Raw unsigned (order-preserving) encodings of a BIGINT column."""
        cached = self._derived.get("uints")
        if cached is None:
            cached = self._inherit("uint_values")
            if cached is None:
                cached = self.matrix.view(">u8").ravel() \
                    .astype(np.uint64)
            self._derived["uints"] = cached
        return cached

    # -- VARCHAR -------------------------------------------------------
    @property
    def padded_matrix(self) -> np.ndarray:
        """VARCHAR slices as a null-padded uint8 matrix.

        Valid encodings can never differ only by trailing ``\\x00``
        bytes (the 2-byte length prefix pins every slice's length), so
        raw row comparison on this matrix is exact slice equality —
        which is what the dictionary/RLE kernels need from it.
        """
        cached = self._derived.get("padded")
        if cached is None:
            cached = self._inherit("padded_matrix")
            if cached is None:
                widest = int(self.lengths.max(initial=0))
                cached = np.zeros((self.count, widest), dtype=np.uint8)
                flat_rows = np.repeat(np.arange(self.count), self.lengths)
                flat_cols = np.arange(self.payload.size) \
                    - np.repeat(self.offsets, self.lengths)
                cached[flat_rows, flat_cols] = self.payload
            self._derived["padded"] = cached
        return cached

    @property
    def comparison_matrix(self) -> np.ndarray:
        """The matrix raw-row equality is exact on, for any dtype."""
        return self.matrix if self.matrix is not None \
            else self.padded_matrix

    def slice_rows(self, start: int, count: int) -> "ColumnView":
        """A child view over rows ``[start, start + count)``.

        Array attributes are zero-copy slices; derived arrays resolve
        lazily through the parent so whole-batch derivations are
        shared by every child.
        """
        if self.matrix is not None:
            return ColumnView(self.dtype, count,
                              matrix=self.matrix[start:start + count],
                              parent=self, row_start=start)
        return ColumnView(self.dtype, count,
                          lengths=self.lengths[start:start + count],
                          parent=self, row_start=start)


def varchar_slice_lengths(unique_rows: np.ndarray) -> np.ndarray:
    """True slice lengths of unique padded VARCHAR rows.

    ``np.unique(..., axis=0)`` hands back null-padded rows; the real
    length is the 2-byte big-endian prefix plus the prefix itself.
    """
    return (unique_rows[:, 0].astype(np.int64) * 256
            + unique_rows[:, 1].astype(np.int64)
            + VarCharType.LENGTH_PREFIX_BYTES)


def kernels_cover(schema: Schema) -> bool:
    """Whether every column's dtype has size kernels."""
    return all(isinstance(col.dtype,
                          (CharType, VarCharType, IntegerType, BigIntType))
               for col in schema.columns)


def build_column_views(schema: Schema, buffer: np.ndarray,
                       offsets: np.ndarray) -> tuple[ColumnView, ...]:
    """Cut records into one view per column: the one record splitter.

    ``buffer`` holds the records back to back and ``offsets`` their
    ``n + 1`` fence posts, from 0 to ``buffer.size``. The checks are the
    ones ``decode_record`` and ``Schema.validate_row`` make per row,
    made once for the batch: a fixed-width schema needs every record to
    be exactly its width; otherwise the columns are walked for all
    records at once, each VARCHAR length prefix must fit its record and
    stay within ``max_len``, and no bytes may trail the last column. A
    failed check raises :class:`EncodingError`; an empty batch gives
    0-row views.

    A fixed-width column becomes a C-contiguous ``(n, width)`` matrix (a
    column slice of the record matrix when every column is fixed); a
    VARCHAR column becomes its slices, length prefixes included, packed
    into ``payload`` with their ``offsets`` and ``lengths``.
    """
    count = offsets.size - 1
    fixed = fixed_column_offsets(schema)
    if fixed is not None:
        sizes = np.diff(offsets)
        if (sizes != fixed[-1]).any():
            bad = int(sizes[np.argmax(sizes != fixed[-1])])
            raise EncodingError(
                f"record of {bad} bytes does not match fixed schema "
                f"width {fixed[-1]}")
        matrix = buffer.reshape(count, fixed[-1])
        return tuple(
            ColumnView(col.dtype, count, matrix=np.ascontiguousarray(
                matrix[:, fixed[i]:fixed[i + 1]]))
            for i, col in enumerate(schema.columns))
    ends = offsets[1:]
    cursor = offsets[:-1]

    def fits(stops: np.ndarray, name: str) -> None:
        if (stops > ends).any():
            raise EncodingError(f"record truncated in column {name!r}")

    views = []
    for col in schema.columns:
        dtype = col.dtype
        width = dtype.fixed_size
        if width is not None:
            fits(cursor + width, col.name)
            views.append(ColumnView(dtype, count, matrix=buffer[
                cursor[:, None] + np.arange(width)]))
            cursor = cursor + width
            continue
        if not isinstance(dtype, VarCharType):
            raise EncodingError(
                f"cannot split variable-width type {dtype.name}")
        fits(cursor + _PREFIX, col.name)
        lengths = buffer[cursor].astype(np.int64) * 256 + buffer[cursor + 1]
        if (lengths > dtype.max_len).any():
            raise EncodingError(f"value of length {int(lengths.max())} "
                                f"exceeds {dtype.name}")
        lengths += _PREFIX
        fits(cursor + lengths, col.name)
        views.append(ColumnView(dtype, count,
                                payload=gather_spans(buffer, cursor, lengths),
                                offsets=record_offsets(lengths)[:-1],
                                lengths=lengths))
        cursor = cursor + lengths
    if (cursor != ends).any():
        raise EncodingError("trailing bytes after splitting record")
    return tuple(views)


def build_leaf_views(parents: tuple[ColumnView, ...], bounds: np.ndarray,
                     ) -> list[tuple[ColumnView, ...]]:
    """Row slices of ``parents``, one set per leaf page.

    Leaf ``i`` holds rows ``bounds[i]`` to ``bounds[i + 1]``. Slicing one
    whole-index split instead of splitting every leaf shares the split
    and the derived arrays the codecs use (pad scans, integer decodes)
    across all leaves.
    """
    edges = bounds.tolist()
    return [tuple(parent.slice_rows(start, stop - start)
                  for parent in parents)
            for start, stop in zip(edges, edges[1:])]


# ----------------------------------------------------------------------
# Shared per-column sizing blocks
# ----------------------------------------------------------------------
def ns_column_size(view: ColumnView) -> int:
    """Trailing-mode null-suppression payload of one column.

    The exact counterpart of ``NullSuppression._compress_column`` for
    ``mode="trailing"``; used directly by the NS kernel and as the
    fallback pass of the prefix/delta kernels.
    """
    dtype = view.dtype
    if isinstance(dtype, CharType):
        return view.count * dtype.length_bytes \
            + int(view.char_stripped_lengths.sum())
    if isinstance(dtype, VarCharType):
        return int(view.lengths.sum())
    if isinstance(dtype, (IntegerType, BigIntType)):
        return view.count + int(minimal_int_widths(view.int_values).sum())
    raise KernelUnavailable(
        f"no NS size kernel for {dtype.name}")


def ns_runs_char_body_lengths(view: ColumnView) -> np.ndarray:
    """Per-row encoded body lengths of a CHAR column under NS ``runs``.

    The vectorized counterpart of ``_encode_runs`` applied to each
    row's trailing-stripped value: interior maximal runs of pad or
    ASCII-zero bytes are priced at the escape-token rate (3 bytes per
    255-byte chunk; a remainder shorter than the minimum run length
    stays literal), literal escape bytes cost 2, everything else 1.

    Runs are found on the row-major flattening of the byte matrix: a
    *run start* is a runnable byte at a row boundary, after a
    non-runnable byte, or after a different byte. Cumulative-summing
    the start mask labels every runnable byte with its run, and two
    ``bincount`` passes aggregate run lengths and per-row costs — no
    Python-level loop at any size.
    """
    from repro.compression.null_suppression import (_ESCAPE, _MIN_RUN,
                                                    _ZERO_BYTE)

    matrix = view.matrix
    count, width = matrix.shape
    stripped = view.char_stripped_lengths
    lengths = np.zeros(count, dtype=np.int64)
    if count == 0 or width == 0:
        return lengths
    # Bytes at or past a row's stripped length are the trailing pad the
    # header already accounts for; they never reach the body.
    valid = np.arange(width)[None, :] < stripped[:, None]
    runnable = valid & ((matrix == _PAD) | (matrix == _ZERO_BYTE))
    escapes = valid & (matrix == _ESCAPE)
    flat_runnable = runnable.ravel()
    flat_bytes = matrix.ravel()
    continues = np.zeros(count * width, dtype=bool)
    continues[1:] = (flat_runnable[1:] & flat_runnable[:-1]
                     & (flat_bytes[1:] == flat_bytes[:-1]))
    continues[::width] = False  # runs never cross a row boundary
    starts = flat_runnable & ~continues
    start_positions = np.flatnonzero(starts)
    run_costs = np.zeros(count, dtype=np.int64)
    if start_positions.size:
        run_ids = np.cumsum(starts) - 1
        run_lengths = np.bincount(run_ids[flat_runnable],
                                  minlength=start_positions.size)
        remainders = run_lengths % 255
        per_run = (3 * (run_lengths // 255)
                   + np.where(remainders >= _MIN_RUN, 3, remainders))
        run_costs = np.bincount(start_positions // width,
                                weights=per_run,
                                minlength=count).astype(np.int64)
    literals = (valid & ~runnable).sum(axis=1)
    return literals + escapes.sum(axis=1) + run_costs


def ns_runs_column_size(view: ColumnView) -> int:
    """Runs-mode null-suppression payload of one column.

    CHAR bodies pay the runs-mode header (sized for up to ``2k`` — an
    all-escape value doubles); VARCHAR and integer columns are
    mode-free and share the trailing-mode arithmetic.
    """
    dtype = view.dtype
    if isinstance(dtype, CharType):
        header = length_header_bytes(2 * dtype.k)
        return view.count * header \
            + int(ns_runs_char_body_lengths(view).sum())
    return ns_column_size(view)


def delta_column_size(view: ColumnView) -> int:
    """Delta-encoding payload of one integer column.

    BIGINT deltas can exceed int64, so they are carried as uint64
    magnitudes: the wrapped difference of the order-preserving raw
    encodings, bit-complemented when the true delta is negative —
    exactly the magnitude ``minimal_int_bytes`` ranges over.
    """
    dtype = view.dtype
    values = view.int_values
    first_width = 1 + int(minimal_int_widths(values[:1])[0])
    if view.count == 1:
        return first_width
    if isinstance(dtype, IntegerType):
        delta_widths = minimal_int_widths(np.diff(values))
    else:
        raw = view.uint_values
        wrapped = raw[1:] - raw[:-1]
        magnitudes = np.where(raw[1:] >= raw[:-1], wrapped, ~wrapped)
        delta_widths = magnitude_widths(magnitudes)
    return first_width + (view.count - 1) + int(delta_widths.sum())


def unique_rows(view: ColumnView) -> np.ndarray:
    """Distinct values of a column, as rows of its comparison matrix.

    Uses a 1-D unique over a void (memcmp) reinterpretation of the
    rows, which is an order of magnitude cheaper than
    ``np.unique(axis=0)`` at leaf-page cardinalities.
    """
    cached = view._derived.get("unique")
    if cached is None:
        matrix = np.ascontiguousarray(view.comparison_matrix)
        width = matrix.shape[1]
        flat = np.unique(matrix.view(np.dtype((np.void, width))).ravel())
        cached = flat.view(np.uint8).reshape(flat.size, width)
        view._derived["unique"] = cached
    return cached


def distinct_count(view: ColumnView) -> int:
    """Number of distinct values in a column (its cached unique rows)."""
    return int(unique_rows(view).shape[0])
