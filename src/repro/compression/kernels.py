"""Size-only vectorized compression kernels.

The paper's estimator is agnostic to codec internals: it consumes only
"bytes before" and "bytes after". The scalar path nevertheless pays for
fully self-describing compressed blobs — per-value pure-Python loops —
and then keeps nothing but ``payload_size``. This module provides the
fast path: each codec computes the exact payload of every leaf of an
index (or of one record range) in one vectorized pass per column,
without constructing a blob.

Three building blocks live here:

* :func:`build_column_views` — the one record splitter. Each column is
  compressed independently (Section II-A), so every size starts by
  cutting records into columns; the sample draw, ``Index.build`` over
  a whole table, repack, and the sizing of an unpickled index all cut
  them here, vectorized and validated. An index's leaf views are its
  records' views taken in key order (:meth:`ColumnView.take`), not a
  second split. Callers reach it through this module, so a wrapper set
  on it (the repository benchmark's traced run) sees every split.
  :func:`build_leaf_views` takes one view set per leaf page; nothing in
  the package calls it, but the benchmark's traced run wraps it by
  name.
* :class:`ColumnView` — one column of a record batch in columnar form.
  Fixed-width columns become a ``(n, width)`` ``uint8`` matrix; VARCHAR
  columns become an offsets + concatenated-payload pair. Derived
  per-row arrays the codecs share (null-suppressed sizes, integer
  widths, run changes, value codes, ...) are computed lazily, once per
  view, and serve every codec and every segment sized on it.
* segmented blocks — :func:`segment_run_starts`,
  :func:`segment_prefixes` and :func:`segment_entries` take a view and
  the ``bounds`` of its segments (leaf pages, or one record range) and
  return the per-segment quantities the codecs' size formulas need:
  run starts, common prefixes, and distinct values with their stored
  bytes.

Every kernel is **bit-exact** against its codec's scalar
``compress(...).payload_size`` summed over the segments — the parity
property suite asserts this for every registered algorithm — so
estimates computed through kernels are interchangeable with (and
cache-compatible with) scalar ones, including entries already
persisted in a :class:`~repro.store.store.SampleStore`.

Codecs opt in by implementing
:meth:`~repro.compression.base.CompressionAlgorithm.size_of`; anything
uncovered (an exotic dtype, a third-party algorithm) raises
:class:`~repro.errors.KernelUnavailable` and the caller falls
back to the scalar path. Setting ``REPRO_DISABLE_KERNELS=1`` forces
the fallback everywhere, which CI uses to keep the scalar path tested.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro.constants import PAD_BYTE
from repro.errors import EncodingError, KernelUnavailable
from repro.storage.record import (fixed_column_offsets, gather_spans,
                                  record_offsets)
from repro.storage.schema import Schema
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType, length_header_bytes)

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

#: Odd 64-bit multiplier of the row hash (the golden-ratio constant).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


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


def row_hashes(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a ``(n, w)`` uint64 matrix.

    Equal rows hash equal; unequal rows may too, so a caller that
    groups rows by hash must check the groups byte for byte.
    """
    hashes = words[:, 0] * _HASH_MULTIPLIER
    for column in range(1, words.shape[1]):
        hashes ^= hashes >> np.uint64(29)
        hashes += words[:, column]
        hashes *= _HASH_MULTIPLIER
    return hashes


def value_codes(matrix: np.ndarray) -> np.ndarray:
    """A dense int64 code per row: equal codes exactly for equal rows.

    Rows are zero-filled to whole 64-bit words. A row of one word is
    its own sort key; a wider row is keyed by :func:`row_hashes`, and
    every row is then compared with one row of its code, so rows that
    hash equal share a code only when they are byte-equal. On a hash
    collision the codes come from ``np.unique`` over the rows instead.
    Codes number the distinct keys in sorted key order.
    """
    count, width = matrix.shape
    words = max(1, -(-width // 8))
    if width == 8 * words:
        filled = np.ascontiguousarray(matrix)
    else:
        filled = np.zeros((count, 8 * words), dtype=np.uint8)
        filled[:, :width] = matrix
    rows = filled.view(np.uint64)
    keys = rows[:, 0] if words == 1 else row_hashes(rows)
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(count, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    codes = np.empty(count, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    if words > 1:
        holder = np.empty(count, dtype=np.int64)
        holder[codes] = np.arange(count)
        if not (rows == rows[holder[codes]]).all():
            _, codes = np.unique(
                filled.view(np.dtype((np.void, 8 * words))).ravel(),
                return_inverse=True)
    return codes


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

    Derived arrays (one entry per row, or per value code) are computed
    lazily, once per view: every codec sizing the index, and every
    segment of it (leaf page or repack range), reads the same
    trailing-pad scan, integer decode, run changes and value codes.
    Row-relative arrays (first differences, delta widths) describe each
    row against the row before it; a segment's first row ignores that
    entry. A view of some of another view's rows (:meth:`take`) derives
    its own arrays.
    """

    def __init__(self, dtype: DataType, count: int,
                 matrix: np.ndarray | None = None,
                 payload: np.ndarray | None = None,
                 offsets: np.ndarray | None = None,
                 lengths: np.ndarray | None = None,
                 grouped: bool = False) -> None:
        self.dtype = dtype
        self.count = count
        self.matrix = matrix
        self.payload = payload
        self.offsets = offsets
        self.lengths = lengths
        #: Whether equal rows are adjacent, as in an index's leading key
        #: column taken in key order.
        self.grouped = grouped
        self._derived: dict = {}

    def _derive(self, name: str,
                compute: Callable[[], np.ndarray]) -> np.ndarray:
        """The array of property ``name``: ``compute()``, cached on
        first use."""
        cached = self._derived.get(name)
        if cached is None:
            cached = self._derived[name] = compute()
        return cached

    # -- CHAR ----------------------------------------------------------
    @property
    def char_stripped_lengths(self) -> np.ndarray:
        """Null-suppressed lengths per row (CHAR columns)."""
        return self._derive("char_stripped_lengths",
                            lambda: stripped_lengths(self.matrix))

    # -- integers ------------------------------------------------------
    @property
    def int_values(self) -> np.ndarray:
        """Decoded int64 values (INTEGER and BIGINT columns).

        The stored encoding is big-endian with the sign bit flipped;
        flipping it back reinterprets the bits as two's complement,
        which int64 holds exactly for both widths.
        """
        def decode() -> np.ndarray:
            if isinstance(self.dtype, IntegerType):
                unsigned = self.matrix.view(">u4").ravel().astype(np.int64)
                return unsigned - np.int64(1 << 31)
            return (self.uint_values ^ _SIGN_FLIP_64).view(np.int64)

        return self._derive("int_values", decode)

    @property
    def uint_values(self) -> np.ndarray:
        """Raw unsigned (order-preserving) encodings of a BIGINT column."""
        return self._derive(
            "uint_values",
            lambda: self.matrix.view(">u8").ravel().astype(np.uint64))

    @property
    def delta_widths(self) -> np.ndarray:
        """Minimal width of each row's difference from the row before.

        BIGINT deltas can exceed int64, so they are carried as uint64
        magnitudes: the wrapped difference of the order-preserving raw
        encodings, bit-complemented when the true delta is negative —
        exactly the magnitude ``minimal_int_bytes`` ranges over.
        """
        def widths() -> np.ndarray:
            out = np.zeros(self.count, dtype=np.int64)
            if isinstance(self.dtype, IntegerType):
                out[1:] = minimal_int_widths(np.diff(self.int_values))
            else:
                raw = self.uint_values
                wrapped = raw[1:] - raw[:-1]
                out[1:] = magnitude_widths(
                    np.where(raw[1:] >= raw[:-1], wrapped, ~wrapped))
            return out

        return self._derive("delta_widths", widths)

    # -- VARCHAR -------------------------------------------------------
    @property
    def padded_matrix(self) -> np.ndarray:
        """VARCHAR slices as a null-padded uint8 matrix.

        Valid encodings can never differ only by trailing ``\\x00``
        bytes (the 2-byte length prefix pins every slice's length), so
        raw row comparison on this matrix is exact slice equality —
        which is what the dictionary/RLE kernels need from it.
        """
        def pad() -> np.ndarray:
            widest = int(self.lengths.max(initial=0))
            padded = np.zeros((self.count, widest), dtype=np.uint8)
            flat_rows = np.repeat(np.arange(self.count), self.lengths)
            flat_cols = np.arange(self.payload.size) \
                - np.repeat(self.offsets, self.lengths)
            padded[flat_rows, flat_cols] = self.payload
            return padded

        return self._derive("padded_matrix", pad)

    @property
    def comparison_matrix(self) -> np.ndarray:
        """The matrix raw-row equality is exact on, for any dtype."""
        return self.matrix if self.matrix is not None \
            else self.padded_matrix

    # -- shared by the codecs ------------------------------------------
    @property
    def ns_sizes(self) -> np.ndarray:
        """Bytes each value takes under trailing-mode null suppression.

        ``c + l_i`` for CHAR, the slice (length prefix included) for
        VARCHAR, a 1-byte width plus the minimal width for integers.
        This is also what RLE pays per run value and what a dictionary
        with null-suppressed entries pays per entry.
        """
        def sizes() -> np.ndarray:
            dtype = self.dtype
            if isinstance(dtype, CharType):
                return self.char_stripped_lengths + dtype.length_bytes
            if isinstance(dtype, VarCharType):
                return self.lengths
            if isinstance(dtype, (IntegerType, BigIntType)):
                return minimal_int_widths(self.int_values) + 1
            raise KernelUnavailable(f"no size kernel for {dtype.name}")

        return self._derive("ns_sizes", sizes)

    @property
    def ns_runs_sizes(self) -> np.ndarray:
        """Bytes each value takes under runs-mode null suppression.

        CHAR values pay the runs-mode header (sized for up to ``2k``:
        an all-escape value doubles) plus their escape-encoded body;
        VARCHAR and integer columns are mode-free.
        """
        def sizes() -> np.ndarray:
            if isinstance(self.dtype, CharType):
                return ns_runs_char_body_lengths(self) \
                    + length_header_bytes(2 * self.dtype.k)
            return self.ns_sizes

        return self._derive("ns_runs_sizes", sizes)

    @property
    def first_differences(self) -> np.ndarray:
        """Where each row first differs from the row before it.

        The index of the first differing comparison byte, or the
        matrix width where the two rows are equal.
        """
        def scan() -> np.ndarray:
            matrix = self.comparison_matrix
            count, width = matrix.shape
            first = np.zeros(count, dtype=np.int64)
            if count > 1:
                differs = np.empty((count - 1, width + 1), dtype=bool)
                np.not_equal(matrix[1:], matrix[:-1], out=differs[:, :width])
                differs[:, width] = True
                first[1:] = differs.argmax(axis=1)
            return first

        return self._derive("first_differences", scan)

    @property
    def codes(self) -> np.ndarray:
        """A dense value code per row (see :func:`value_codes`).

        A :attr:`grouped` view numbers its runs of equal rows instead,
        from :attr:`first_differences`, with no hash or sort.
        """
        def number() -> np.ndarray:
            if not self.grouped:
                return value_codes(self.comparison_matrix)
            starts = self.first_differences \
                < self.comparison_matrix.shape[1]
            starts[:1] = True
            return np.cumsum(starts) - 1

        return self._derive("codes", number)

    @property
    def code_ns_sizes(self) -> np.ndarray:
        """:attr:`ns_sizes` of each code's value, indexed by code."""
        def scatter() -> np.ndarray:
            codes = self.codes
            sizes = np.zeros(int(codes.max(initial=-1)) + 1,
                             dtype=np.int64)
            sizes[codes] = self.ns_sizes
            return sizes

        return self._derive("code_ns_sizes", scatter)

    def take(self, order: np.ndarray,
             grouped: bool = False) -> "ColumnView":
        """A view of this view's rows ``order``: row ``i`` is ``order[i]``.

        ``Index.build`` takes a batch's views in key order this way, so
        an index's leaf views are its records' views, sorted, with no
        second split; ``grouped`` says ``order`` puts equal rows next to
        each other (the leading key column). Nothing derived is carried
        over: the new view derives its own arrays, row-relative ones
        against the row before in ``order``.
        """
        if self.matrix is not None:
            return ColumnView(self.dtype, order.size,
                              matrix=self.matrix[order], grouped=grouped)
        lengths = self.lengths[order]
        return ColumnView(self.dtype, order.size,
                          payload=gather_spans(self.payload,
                                               self.offsets[order], lengths),
                          offsets=record_offsets(lengths)[:-1],
                          lengths=lengths, grouped=grouped)


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
    """``parents``' rows as one view set per leaf page (:meth:`take`).

    Leaf ``i`` holds rows ``bounds[i]`` to ``bounds[i + 1]``. Sizing
    does not need it — a size kernel takes the bounds themselves — but
    the repository benchmark's traced run wraps it by name.
    """
    edges = bounds.tolist()
    return [tuple(parent.take(np.arange(start, stop)) for parent in parents)
            for start, stop in zip(edges, edges[1:])]


# ----------------------------------------------------------------------
# Segmented blocks: one call sizes every segment of a view
# ----------------------------------------------------------------------
# ``bounds`` are int64 fence posts: segment ``i`` holds rows
# ``bounds[i]`` to ``bounds[i + 1]``, and every segment is non-empty.
# The blocks read rows ``bounds[0]`` to ``bounds[-1]`` only, so a range
# that does not start at row 0 (a repack probe) is one segment.
def segment_run_starts(view: ColumnView, bounds: np.ndarray) -> np.ndarray:
    """Rows of ``bounds[0]:bounds[-1]`` that begin a run of equal values.

    A run begins where a value differs from the row before, and at the
    start of every segment.
    """
    low = int(bounds[0])
    starts = view.first_differences[low:int(bounds[-1])] \
        < view.comparison_matrix.shape[1]
    starts[bounds[:-1] - low] = True
    return starts


def segment_prefixes(view: ColumnView, bounds: np.ndarray) -> np.ndarray:
    """Each segment's common prefix of stripped CHAR values, in bytes.

    Rows share their first ``p`` bytes exactly when every row shares
    them with the row before it, so a segment's prefix is the least of
    its rows' first differences (its first row's excluded) and of its
    stripped lengths (pads beyond a value's end never extend it).
    """
    low = int(bounds[0])
    lengths = view.char_stripped_lengths
    agree = np.minimum(view.first_differences[low:int(bounds[-1])],
                       lengths[low:int(bounds[-1])])
    agree[bounds[:-1] - low] = lengths[bounds[:-1]]
    return np.minimum.reduceat(agree, bounds[:-1] - low)


def segment_entries(view: ColumnView, bounds: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, its distinct values and their null-suppressed bytes.

    One sort of ``(segment, value code)`` keys finds every segment's
    distinct values at once; the second array sums :attr:`ColumnView.
    ns_sizes` over one row of each distinct value.
    """
    low = int(bounds[0])
    sizes = view.code_ns_sizes
    span = sizes.size
    counts = np.diff(bounds)
    keys = np.repeat(np.arange(counts.size, dtype=np.int64) * span, counts)
    keys += view.codes[low:int(bounds[-1])]
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    segments = keys // span
    distinct = np.bincount(segments, minlength=counts.size)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(distinct[:-1], out=starts[1:])
    return distinct, np.add.reduceat(sizes[keys - segments * span], starts)


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
