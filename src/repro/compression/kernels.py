"""Size-only vectorized compression kernels.

The paper's estimator is agnostic to codec internals: it consumes only
"bytes before" and "bytes after". The scalar path nevertheless pays for
fully self-describing compressed blobs — per-value pure-Python loops —
and then keeps nothing but ``payload_size``. This module provides the
fast path: each codec computes its exact payload size for a whole
column of a whole leaf (or index) in vectorized NumPy, without
constructing a blob.

Two building blocks live here:

* :class:`ColumnView` — one column of a record batch in columnar form.
  Fixed-width columns become a single ``(n, width)`` ``uint8`` matrix
  (one ``np.frombuffer`` reshape of the concatenated records); VARCHAR
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
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.constants import PAD_BYTE
from repro.errors import KernelUnavailable
from repro.storage.record import fixed_column_offsets, split_records
from repro.storage.schema import Schema
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType, length_header_bytes)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compression.base import CompressionAlgorithm

#: Environment switch: any non-empty value other than ``0`` disables
#: the vectorized kernels process-wide (scalar fallback everywhere).
DISABLE_KERNELS_ENV = "REPRO_DISABLE_KERNELS"

_PAD = PAD_BYTE[0]  # the pad byte the scalar codecs strip

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

    Exactly one of the two representations is populated:

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
                 row_start: int = 0,
                 raw_slices: Sequence[bytes] | None = None) -> None:
        self.dtype = dtype
        self.count = count
        self.matrix = matrix
        self.payload = payload
        self.offsets = offsets
        self.lengths = lengths
        #: The column's original byte slices, when they exist without a
        #: split (single-column schemas: the records themselves). A
        #: Python ``set`` over bytes hashes faster than any sort-based
        #: distinct at leaf cardinalities, so count-only consumers
        #: prefer this.
        self.raw_slices = raw_slices
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
                widest = int(self.lengths.max())
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


def fixed_column_views(schema: Schema, matrix: np.ndarray,
                       raw_slices: Sequence[bytes] | None = None,
                       ) -> tuple[ColumnView, ...]:
    """Per-column views of a fixed-width schema's ``(count, width)`` rows.

    Each view is a contiguous column slice of ``matrix`` (the matrix
    itself for a single-column schema, so no copy). ``raw_slices``
    attaches the original records to a single column's view.
    """
    offsets = fixed_column_offsets(schema)
    if offsets is None:
        raise KernelUnavailable(f"{schema} is not fixed-width")
    count = matrix.shape[0]
    raw = raw_slices if len(schema) == 1 else None
    return tuple(
        ColumnView(col.dtype, count,
                   matrix=np.ascontiguousarray(
                       matrix[:, offsets[i]:offsets[i + 1]]),
                   raw_slices=raw)
        for i, col in enumerate(schema.columns))


def build_column_views(schema: Schema, records: Sequence[bytes],
                       trusted_lengths: bool = False,
                       ) -> tuple[ColumnView, ...] | None:
    """Split a record batch into per-column kernel views, once.

    Returns ``None`` — meaning "use the scalar path" — for empty
    batches, records that do not match a fixed schema's width, or
    dtypes the kernels do not know. Fully fixed schemas reduce to one
    buffer concatenation plus a reshape; schemas with VARCHAR columns
    pay one Python split pass shared by every algorithm that sizes the
    batch. ``trusted_lengths`` skips the per-record width validation
    on fixed schemas; callers whose records provably came from the
    schema's own encoder (index leaves) set it, since the per-record
    ``len`` sweep would otherwise rival the sizing work itself.
    """
    from repro.errors import EncodingError

    count = len(records)
    if count == 0 or not kernels_cover(schema):
        return None
    offsets = fixed_column_offsets(schema)
    if offsets is not None:
        width = offsets[-1]
        buffer = b"".join(records)
        if not trusted_lengths:
            sizes = np.fromiter(map(len, records), dtype=np.int64,
                                count=count)
            if (sizes != width).any():
                return None
        flat = np.frombuffer(buffer, dtype=np.uint8)
        if flat.size != count * width:
            return None
        return fixed_column_views(schema, flat.reshape(count, width),
                                  raw_slices=records)
    try:
        columns = split_records(schema, records)
    except EncodingError:
        return None  # malformed records: let the scalar path diagnose
    views = []
    for col, slices in zip(schema.columns, columns):
        dtype = col.dtype
        raw = records if len(schema) == 1 else slices
        if isinstance(dtype, VarCharType):
            lengths = np.fromiter(map(len, slices),
                                  dtype=np.int64, count=count)
            starts = np.zeros(count, dtype=np.int64)
            np.cumsum(lengths[:-1], out=starts[1:])
            payload = np.frombuffer(b"".join(slices), dtype=np.uint8)
            views.append(ColumnView(dtype, count, payload=payload,
                                    offsets=starts, lengths=lengths,
                                    raw_slices=raw))
        else:
            flat = np.frombuffer(b"".join(slices), dtype=np.uint8)
            views.append(ColumnView(
                dtype, count,
                matrix=flat.reshape(count, dtype.fixed_size),
                raw_slices=raw))
    return tuple(views)


def build_leaf_views(schema: Schema,
                     leaves: Sequence[Sequence[bytes]],
                     parents: tuple[ColumnView, ...] | None = None,
                     ) -> list[tuple[ColumnView, ...]] | None:
    """Per-leaf views for a whole index, from one whole-index split.

    Concatenating every leaf's records into one parent view and
    handing each leaf a row-sliced child amortizes the expensive parts
    — the buffer join, the record split, and the derived arrays the
    codecs share (pad scans, integer decodes) — across all leaves,
    instead of paying per-leaf NumPy setup a hundred times over.
    ``parents`` optionally supplies already-built whole-batch views
    (index-scoped sizing builds the same ones), so one split serves
    both scopes. Returns ``None`` (scalar path) under the same
    conditions as :func:`build_column_views`, or when any leaf is
    empty.
    """
    counts = [len(leaf) for leaf in leaves]
    if not counts or min(counts) == 0:
        return None
    if parents is None:
        flat = [record for leaf in leaves for record in leaf]
        # Leaf records are produced by the index's own encoder, so the
        # per-record width sweep is provably redundant here.
        parents = build_column_views(schema, flat, trusted_lengths=True)
    if parents is None or parents[0].count != sum(counts):
        return None
    out = slice_leaf_views(parents, counts)
    if len(parents) == 1:
        for children, leaf in zip(out, leaves):
            children[0].raw_slices = leaf
    return out


def slice_leaf_views(parents: tuple[ColumnView, ...],
                     counts: Iterable[int],
                     ) -> list[tuple[ColumnView, ...]]:
    """Consecutive row slices of ``parents``, ``counts[i]`` rows each."""
    out: list[tuple[ColumnView, ...]] = []
    start = 0
    for count in counts:
        out.append(tuple(parent.slice_rows(start, int(count))
                         for parent in parents))
        start += int(count)
    return out


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
    """Number of distinct values in a column.

    Count-only consumers (fixed-entry dictionaries just multiply the
    cardinality by the entry width) take the cheapest available route:
    a Python ``set`` over the original byte slices when the column owns
    them, else the cached sort-based unique.
    """
    cached = view._derived.get("distinct")
    if cached is None:
        unique = view._derived.get("unique")
        if unique is not None:
            cached = int(unique.shape[0])
        elif view.raw_slices is not None:
            cached = len(set(view.raw_slices))
        else:
            cached = int(unique_rows(view).shape[0])
        view._derived["distinct"] = cached
    return cached
