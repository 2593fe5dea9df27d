"""The leaf level of an index as one sorted record buffer.

Step 3 of the paper's Figure 2 reads nothing of the index built on the
sample but its leaf records, in key order, cut into pages. A
:class:`LeafImage` is exactly that: every leaf record concatenated into
one ``uint8`` buffer, the record offsets, and the record positions
where each leaf page starts. It is the one place leaves are sized:
:meth:`LeafImage.estimate_compression` runs the vectorized size kernels
over column views read straight from the buffer, falling back to a
codec's scalar ``compress`` per block.

Two builders fill it:

* :meth:`LeafImage.from_leaves` copies the leaves of a built B+-tree
  (how a full :class:`~repro.storage.index.Index` is sized);
* :meth:`LeafImage.build` sorts and packs raw sampled records without
  decoding them (the sample index of the SampleCF path).

The B+-tree orders entries by Python's tuple order on decoded keys.
:meth:`LeafImage.build` gets the same order from ``memcmp`` on one byte
sort key per record, the concatenation, in key-column order, of:

* CHAR: the value without its trailing blanks, zero-filled to the
  column width, then that length as 2 big-endian bytes (the padded
  bytes alone would put ``"ab"`` after ``"ab\\x01"``);
* VARCHAR: the payload zero-filled to the batch's widest value, then
  its length as 2 big-endian bytes (trailing blanks count);
* INTEGER/BIGINT: the stored sign-flipped big-endian bytes.

A stable argsort keeps equal keys in draw order, as ``list.sort`` does,
and leaves are packed greedily by cumulative record bytes with the
B+-tree's rule. The layout-parity property suite holds both builders
byte-identical, with ``BPlusTree.bulk_load`` as the oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.constants import PAGE_HEADER_SIZE, SLOT_SIZE
from repro.errors import (CompressionError, EncodingError, IndexError_,
                          KernelUnavailable)
from repro.storage.page import pack_bounds
from repro.storage.record import (fixed_column_offsets, gather_spans,
                                  record_offsets)
from repro.storage.schema import Schema
from repro.storage.types import (BigIntType, CharType, IntegerType,
                                 VarCharType)
from repro.compression.base import CompressionAlgorithm, CompressionResult
from repro.compression.kernels import (ColumnView, build_column_views,
                                       fixed_column_views, kernels_cover,
                                       kernels_enabled, slice_leaf_views,
                                       stripped_lengths)
from repro.compression.repack import compressed_page_capacity, repack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.index import Accounting, Index

_PREFIX = VarCharType.LENGTH_PREFIX_BYTES
_SIGN_FLIP_64 = np.uint64(1 << 63)


def _be16(values: np.ndarray) -> np.ndarray:
    """Each value as 2 big-endian bytes, one row per value."""
    return values.astype(">u2").view(np.uint8).reshape(-1, 2)


class RecordColumns:
    """Where each column of each record sits in a record buffer.

    Construction is the vectorized form of the checks ``decode_record``
    plus ``Schema.validate_row`` make per row: a fixed-width schema
    needs every record to be exactly the schema width; otherwise the
    columns are walked once for all records, each VARCHAR length prefix
    must fit its record and stay within ``max_len``, and no bytes may
    trail the last column. Any failure raises :class:`EncodingError`.
    """

    def __init__(self, schema: Schema, buffer: np.ndarray,
                 offsets: np.ndarray) -> None:
        self.schema = schema
        self.buffer = buffer
        self.count = offsets.size - 1
        lengths = np.diff(offsets)
        fixed = fixed_column_offsets(schema)
        #: ``(count, width)`` rows of a fixed-width schema, else None.
        self.matrix: np.ndarray | None = None
        if fixed is not None:
            if (lengths != fixed[-1]).any():
                bad = int(lengths[np.argmax(lengths != fixed[-1])])
                raise EncodingError(
                    f"record of {bad} bytes does not match fixed schema "
                    f"width {fixed[-1]}")
            self.matrix = buffer.reshape(self.count, fixed[-1])
            return
        ends = offsets[1:]
        cursor = offsets[:-1].copy()
        self.starts = np.empty((self.count, len(schema)), dtype=np.int64)
        self.lengths = np.empty_like(self.starts)
        for position, col in enumerate(schema.columns):
            dtype = col.dtype
            if dtype.fixed_size is not None:
                width = np.full(self.count, dtype.fixed_size,
                                dtype=np.int64)
            elif isinstance(dtype, VarCharType):
                if (cursor + _PREFIX > ends).any():
                    raise EncodingError(
                        f"record truncated in column {col.name!r}")
                width = self.buffer[cursor].astype(np.int64) * 256 \
                    + self.buffer[cursor + 1]
                if (width > dtype.max_len).any():
                    raise EncodingError(
                        f"value of length {int(width.max())} exceeds "
                        f"{dtype.name}")
                width += _PREFIX
            else:
                raise EncodingError(
                    f"cannot decode variable-width type {dtype.name}")
            self.starts[:, position] = cursor
            self.lengths[:, position] = width
            cursor = cursor + width
            if (cursor > ends).any():
                raise EncodingError(
                    f"record truncated in column {col.name!r}")
        if (cursor != ends).any():
            raise EncodingError("trailing bytes after decoding record")

    def column(self, position: int) -> np.ndarray:
        """``(count, width)`` stored bytes of a fixed-width column."""
        matrix, fixed = self.matrix, fixed_column_offsets(self.schema)
        if matrix is not None and fixed is not None:
            return matrix[:, fixed[position]:fixed[position + 1]]
        width = self.schema.columns[position].dtype.fixed_size
        if width is None:
            raise EncodingError(f"column {position} is variable-width")
        return self.buffer[self.starts[:, position, None]
                           + np.arange(width)]

    def sort_key(self, position: int) -> np.ndarray:
        """``(count, width)`` bytes whose memcmp order is value order."""
        dtype = self.schema.columns[position].dtype
        if isinstance(dtype, CharType):
            stored = self.column(position)
            kept = stripped_lengths(stored)
            filled = np.where(np.arange(dtype.k) < kept[:, None], stored,
                              0).astype(np.uint8)
            return np.hstack([filled, _be16(kept)])
        if isinstance(dtype, VarCharType):
            starts = self.starts[:, position]
            lengths = self.lengths[:, position] - _PREFIX
            widest = int(lengths.max()) if self.count else 0
            filled = np.zeros((self.count, widest), dtype=np.uint8)
            rows = np.repeat(np.arange(self.count), lengths)
            cols = np.arange(rows.size) \
                - np.repeat(record_offsets(lengths)[:-1], lengths)
            filled[rows, cols] = self.buffer[
                np.repeat(starts + _PREFIX, lengths) + cols]
            return np.hstack([filled, _be16(lengths)])
        if isinstance(dtype, (IntegerType, BigIntType)):
            return self.column(position)
        raise IndexError_(f"no byte order for {dtype.name} keys")


class LeafImage:
    """An index's leaf records in key order, in one buffer, with leaves.

    ``buffer`` holds every leaf record back to back, ``offsets`` their
    ``n + 1`` fence posts, and ``bounds`` the record positions where
    each leaf page starts (plus ``n``), so leaf ``i`` holds records
    ``bounds[i]`` to ``bounds[i + 1]``. ``schema`` is the leaf records'
    schema; ``name`` only labels errors.
    """

    def __init__(self, name: str, schema: Schema, buffer: np.ndarray,
                 offsets: np.ndarray, bounds: np.ndarray,
                 page_size: int) -> None:
        self.name = name
        self.schema = schema
        self.buffer = buffer
        self.offsets = offsets
        self.bounds = bounds
        self.page_size = page_size
        # Column views for the size kernels, built lazily and shared by
        # every algorithm sizing this image: (whole-image views, per-leaf
        # row slices of them).
        self._views: tuple | None = None

    def __getstate__(self) -> dict:
        """Pickle without the view cache; views are cheap to rebuild."""
        state = dict(self.__dict__)
        state["_views"] = None
        return state

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_leaves(cls, name: str, schema: Schema,
                    leaves: Sequence[Sequence[bytes]],
                    page_size: int) -> "LeafImage":
        """The image of already-packed leaves (a built B+-tree's)."""
        counts = np.fromiter(map(len, leaves), dtype=np.int64,
                             count=len(leaves))
        buffer = np.frombuffer(b"".join([b"".join(leaf) for leaf in leaves]),
                               dtype=np.uint8)
        fixed = fixed_column_offsets(schema)
        total = int(counts.sum())
        if fixed is not None and buffer.size == total * fixed[-1]:
            # Index leaves come from the leaf schema's own encoder, so
            # a fixed schema needs no per-record length sweep.
            offsets = np.arange(total + 1, dtype=np.int64) * fixed[-1]
        else:
            offsets = record_offsets(np.fromiter(
                (len(record) for leaf in leaves for record in leaf),
                dtype=np.int64, count=total))
        return cls(name, schema, buffer, offsets, record_offsets(counts),
                   page_size)

    @classmethod
    def pack(cls, name: str, schema: Schema, buffer: np.ndarray,
             offsets: np.ndarray, page_size: int,
             fill_factor: float) -> "LeafImage":
        """Cut key-ordered records into leaves as ``bulk_load`` does.

        A leaf takes records while its header plus every record and
        slot entry stay within ``int(fill_factor * page_size)`` bytes,
        and always at least one record.
        """
        if not 0.0 < fill_factor <= 1.0:
            raise IndexError_(
                f"fill factor must be in (0, 1], got {fill_factor}")
        lengths = np.diff(offsets)
        if lengths.size and \
                PAGE_HEADER_SIZE + SLOT_SIZE + int(lengths.max()) > page_size:
            raise IndexError_(
                f"record of {int(lengths.max())} bytes cannot fit a "
                f"{page_size}-byte leaf page")
        return cls(name, schema, buffer, offsets,
                   pack_bounds(lengths, int(fill_factor * page_size)
                               - PAGE_HEADER_SIZE), page_size)

    @classmethod
    def build(cls, layout: "Index", buffer: np.ndarray,
              offsets: np.ndarray, rids: np.ndarray,
              ) -> tuple["LeafImage", int]:
        """Sort and pack raw table records into ``layout``'s leaf level.

        ``layout`` supplies the key columns, kind, leaf schema, page
        size and fill factor (its B+-tree stays empty); ``buffer`` /
        ``offsets`` are records of ``layout.table_schema`` and ``rids``
        their ``(page_id << 32) | slot`` locators. Returns the image
        and the number of distinct keys. A clustered leaf record is the
        table record; a non-clustered one is the key columns' stored
        bytes followed by the BIGINT encoding of the RID.
        """
        from repro.storage.index import IndexKind

        columns = RecordColumns(layout.table_schema, buffer, offsets)
        positions = [layout.table_schema.index_of(name)
                     for name in layout.key_columns]
        key = np.ascontiguousarray(
            np.hstack([columns.sort_key(p) for p in positions]))
        order = np.argsort(key.view(np.dtype((np.void, key.shape[1])))
                           .ravel(), kind="stable")
        ordered = key[order]
        distinct = int(np.count_nonzero(
            (ordered[1:] != ordered[:-1]).any(axis=1))) + 1 \
            if columns.count else 0
        clustered = layout.kind is IndexKind.CLUSTERED
        locators = (rids[order].astype(np.uint64) ^ _SIGN_FLIP_64) \
            .astype(">u8").view(np.uint8).reshape(-1, 8)
        if columns.matrix is not None:
            # Fixed widths: whole rows and columns, no per-byte index.
            leaf = columns.matrix[order] if clustered else np.hstack(
                [columns.column(p)[order] for p in positions]
                + [locators])
            leaf_buffer = leaf.reshape(-1)
            lengths = np.full(columns.count, leaf.shape[1], dtype=np.int64)
        else:
            if clustered:
                source = buffer
                starts = offsets[:-1][order, None]
                spans = np.diff(offsets)[order, None]
            else:
                source = np.concatenate([buffer, locators.reshape(-1)])
                starts = np.hstack([
                    columns.starts[order][:, positions],
                    buffer.size + 8 * np.arange(columns.count)[:, None]])
                spans = np.hstack([
                    columns.lengths[order][:, positions],
                    np.full((columns.count, 1), 8, dtype=np.int64)])
            leaf_buffer = gather_spans(source, starts.ravel(),
                                       spans.ravel())
            lengths = spans.sum(axis=1)
        image = cls.pack(layout.name, layout.leaf_schema, leaf_buffer,
                         record_offsets(lengths), layout.page_size,
                         layout.fill_factor)
        return image, distinct

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self.offsets.size - 1

    @property
    def num_leaf_pages(self) -> int:
        return self.bounds.size - 1

    @property
    def payload_bytes(self) -> int:
        """Record bytes across all leaves."""
        return int(self.offsets[-1])

    def uncompressed_size(self, accounting: "Accounting" = "payload",
                          ) -> int:
        """Leaf bytes under the chosen accounting."""
        if accounting == "payload":
            return self.payload_bytes
        if accounting == "physical":
            return self.num_leaf_pages * self.page_size
        raise CompressionError(f"unknown accounting {accounting!r}")

    def records(self, start: int = 0, stop: int | None = None,
                ) -> list[bytes]:
        """Records ``start`` to ``stop`` as byte strings."""
        stop = self.num_entries if stop is None else stop
        base = int(self.offsets[start])
        raw = self.buffer[base:int(self.offsets[stop])].tobytes()
        cuts = (self.offsets[start:stop + 1] - base).tolist()
        return [raw[a:b] for a, b in zip(cuts, cuts[1:])]

    # ------------------------------------------------------------------
    # Size-only compression (vectorized kernels with scalar fallback)
    # ------------------------------------------------------------------
    def estimate_compression(self, algorithm: CompressionAlgorithm,
                             accounting: "Accounting" = "payload",
                             repack_pages: bool = False,
                             on_kernel: Callable[[], None] | None = None,
                             on_fallback: Callable[[], None] | None = None,
                             ) -> CompressionResult:
        """Size-only ``Index.compress``: same result, no blobs built.

        The estimator only consumes sizes, so this path computes each
        block's exact ``payload_size`` with the vectorized kernels
        (:mod:`repro.compression.kernels`) where they apply, and falls
        back to the codec's scalar ``compress`` per block where they
        don't; results are bit-identical either way, which is what
        keeps kernel-produced estimates interchangeable with persisted
        scalar ones. Column views are cached on the image, so a batch
        of algorithms over one image splits its records once.

        ``on_kernel`` / ``on_fallback`` are per-block accounting hooks
        (one block per leaf page, or one for an index-scoped
        algorithm); the engine charges them to its
        ``size_kernel_hits`` / ``size_scalar_fallbacks`` stats.
        Repacked page-scope compression stays entirely on the scalar
        path: bin-packing compressed records into fresh pages needs
        the incremental trackers, not just totals.
        """
        if self.num_entries == 0:
            raise CompressionError(
                f"index {self.name!r} is empty; nothing to compress")
        if accounting not in ("payload", "physical"):
            raise CompressionError(f"unknown accounting {accounting!r}")
        pages_before = self.num_leaf_pages
        uncompressed = self.uncompressed_size(accounting)
        if algorithm.scope != "index" and repack_pages:
            if on_fallback is not None:
                on_fallback()
            return repacked_result(
                self.records(), self.schema, algorithm, self.page_size,
                accounting, uncompressed, pages_before)
        views = self._views_or_none()
        if algorithm.scope == "index":
            payload = self._block_payload(
                algorithm, 0, self.num_entries,
                views[0] if views is not None else None,
                on_kernel, on_fallback)
            capacity = compressed_page_capacity(self.page_size)
            pages_after = max(1, -(-payload // capacity))
            compressed = payload if accounting == "payload" \
                else pages_after * self.page_size
            return CompressionResult(
                algorithm=algorithm.name, accounting=accounting,
                uncompressed_bytes=uncompressed,
                compressed_bytes=compressed,
                row_count=self.num_entries, pages_before=pages_before,
                pages_after=pages_after,
                details={"compressed_payload": payload, "repacked": False})
        bounds = self.bounds.tolist()
        payload = 0
        for position, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            payload += self._block_payload(
                algorithm, start, stop,
                views[1][position] if views is not None else None,
                on_kernel, on_fallback)
        compressed = payload if accounting == "payload" \
            else pages_before * self.page_size
        return CompressionResult(
            algorithm=algorithm.name, accounting=accounting,
            uncompressed_bytes=uncompressed, compressed_bytes=compressed,
            row_count=self.num_entries, pages_before=pages_before,
            pages_after=pages_before,
            details={"compressed_payload": payload, "repacked": False})

    def _block_payload(self, algorithm: CompressionAlgorithm, start: int,
                       stop: int, views: tuple[ColumnView, ...] | None,
                       on_kernel: Callable[[], None] | None,
                       on_fallback: Callable[[], None] | None) -> int:
        """Records ``start``-``stop`` sized by kernel, else by scalar.

        The records are only sliced out of the buffer on the scalar
        fallback, so kernel-served blocks never materialize them.
        """
        if views is not None:
            try:
                size = algorithm.size_of(views, self.schema)
            except KernelUnavailable:
                size = None
            if size is not None:
                if on_kernel is not None:
                    on_kernel()
                return size
        if on_fallback is not None:
            on_fallback()
        return algorithm.compress(self.records(start, stop),
                                  self.schema).payload_size

    def _views_or_none(self) -> tuple | None:
        """Cached ``(whole-image views, per-leaf views)``, or ``None``.

        ``None`` (the scalar path) when kernels are disabled or a
        column's dtype has none. Fixed-width schemas take the parent
        views as column slices of the record matrix; VARCHAR schemas
        split each record once. Leaf views are row slices of the
        parents, so every leaf, scope and algorithm shares one split
        and one set of derived arrays.
        """
        if not kernels_enabled() or not kernels_cover(self.schema):
            return None
        if self._views is None:
            fixed = fixed_column_offsets(self.schema)
            parents: tuple[ColumnView, ...] | None
            if fixed is not None:
                parents = fixed_column_views(
                    self.schema,
                    self.buffer.reshape(self.num_entries, fixed[-1]))
            else:
                parents = build_column_views(self.schema, self.records(),
                                             trusted_lengths=True)
            if parents is None:
                return None
            self._views = (parents,
                           slice_leaf_views(parents, np.diff(self.bounds)))
        return self._views


def repacked_result(records: Sequence[bytes], schema: Schema,
                    algorithm: CompressionAlgorithm, page_size: int,
                    accounting: "Accounting", uncompressed: int,
                    pages_before: int) -> CompressionResult:
    """Page-scope compression with pages refilled to capacity."""
    result = repack(records, schema, algorithm, page_size)
    compressed = result.payload_size if accounting == "payload" \
        else result.physical_bytes
    return CompressionResult(
        algorithm=algorithm.name, accounting=accounting,
        uncompressed_bytes=uncompressed, compressed_bytes=compressed,
        row_count=len(records), pages_before=pages_before,
        pages_after=result.num_pages,
        details={"compressed_payload": result.payload_size,
                 "repacked": True})
