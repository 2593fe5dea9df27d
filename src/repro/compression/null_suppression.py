"""Null suppression (NS) — Section II-A of the paper.

Null suppression removes padding from stored values and records how much
was removed. For the paper's canonical ``char(k)`` column the stored size
of a value with null-suppressed length ``l_i`` is ``l_i + c`` bytes, where
``c`` is the small length header (1 byte for ``k <= 255``). The paper's
closed form follows::

    CF_NS = sum_i (l_i + c) / (n * k)

Two modes are provided:

* ``"trailing"`` (default, the paper's model): suppress the trailing pad
  of CHAR values, store integers at their minimal two's-complement width,
  and leave VARCHAR values as-is (their encoding is already minimal and
  trailing blanks are significant for VARCHAR).
* ``"runs"`` (the general form sketched in Figure 1.a): additionally
  replace *interior* runs of blanks and of ASCII zeros with a three-byte
  escape token, which helps values such as zero-padded identifiers.

Both modes are exactly invertible; the test suite round-trips them.
"""

from __future__ import annotations

from typing import Literal

from repro.constants import PAD_BYTE
from repro.errors import CompressionError
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType, length_header_bytes,
                                 minimal_int_bytes)
from repro.compression.base import CompressedColumn, CompressionAlgorithm

_ESCAPE = 0x1B  # ASCII ESC, rare in stored text
_TOKEN_LITERAL = 0x00
_TOKEN_PAD_RUN = 0x01
_TOKEN_ZERO_RUN = 0x02
_MIN_RUN = 4  # a run token costs 3 bytes; only runs >= 4 shrink
_ZERO_BYTE = ord("0")
_PAD = PAD_BYTE[0]

NSMode = Literal["trailing", "runs"]


def ns_header_bytes(dtype: DataType, mode: NSMode = "trailing") -> int:
    """The per-value length-header size ``c`` for ``dtype``.

    In ``runs`` mode escape tokens can expand pathological values (an
    all-ESC value doubles), so the header is sized for bodies up to
    ``2k`` to stay exactly invertible.
    """
    if isinstance(dtype, CharType):
        if mode == "trailing":
            return dtype.length_bytes
        return length_header_bytes(2 * dtype.k)
    if isinstance(dtype, VarCharType):
        return VarCharType.LENGTH_PREFIX_BYTES
    if isinstance(dtype, (IntegerType, BigIntType)):
        return 1
    raise CompressionError(f"null suppression unsupported for {dtype.name}")


def ns_stored_size(dtype: DataType, value, mode: NSMode = "trailing") -> int:
    """Stored bytes of one value under NS: ``c + body length``."""
    if isinstance(dtype, CharType):
        body = _char_body(dtype, dtype.encode(value), mode)
        return ns_header_bytes(dtype, mode) + len(body)
    if isinstance(dtype, VarCharType):
        return dtype.encoded_size(value)
    if isinstance(dtype, (IntegerType, BigIntType)):
        return 1 + minimal_int_bytes(value)
    raise CompressionError(f"null suppression unsupported for {dtype.name}")


def _encode_runs(raw: bytes) -> bytes:
    """Escape-encode runs of pads/zeros (and literal escape bytes)."""
    out = bytearray()
    i = 0
    length = len(raw)
    while i < length:
        byte = raw[i]
        if byte in (_PAD, _ZERO_BYTE):
            run = 1
            while i + run < length and raw[i + run] == byte and run < 255:
                run += 1
            if run >= _MIN_RUN:
                token = _TOKEN_PAD_RUN if byte == _PAD else _TOKEN_ZERO_RUN
                out.extend((_ESCAPE, token, run))
                i += run
                continue
            out.extend(raw[i:i + run])
            i += run
            continue
        if byte == _ESCAPE:
            out.extend((_ESCAPE, _TOKEN_LITERAL))
            i += 1
            continue
        out.append(byte)
        i += 1
    return bytes(out)


def _decode_runs(body: bytes) -> bytes:
    """Invert :func:`_encode_runs`."""
    out = bytearray()
    i = 0
    while i < len(body):
        byte = body[i]
        if byte != _ESCAPE:
            out.append(byte)
            i += 1
            continue
        if i + 1 >= len(body):
            raise CompressionError("truncated escape token")
        token = body[i + 1]
        if token == _TOKEN_LITERAL:
            out.append(_ESCAPE)
            i += 2
        elif token in (_TOKEN_PAD_RUN, _TOKEN_ZERO_RUN):
            if i + 2 >= len(body):
                raise CompressionError("truncated run token")
            run = body[i + 2]
            fill = _PAD if token == _TOKEN_PAD_RUN else _ZERO_BYTE
            out.extend(bytes([fill]) * run)
            i += 3
        else:
            raise CompressionError(f"unknown escape token {token}")
    return bytes(out)


def _char_body(dtype: CharType, slice_: bytes, mode: NSMode) -> bytes:
    """The stored body of one CHAR slice under the given NS mode."""
    stripped = slice_.rstrip(PAD_BYTE)
    if mode == "trailing":
        return stripped
    return _encode_runs(stripped)


class NullSuppression(CompressionAlgorithm):
    """Null suppression over whole pages, column by column."""

    scope = "page"

    def __init__(self, mode: NSMode = "trailing") -> None:
        if mode not in ("trailing", "runs"):
            raise CompressionError(f"unknown NS mode {mode!r}")
        self.mode: NSMode = mode
        self.name = "null_suppression" if mode == "trailing" \
            else "null_suppression_runs"

    # ------------------------------------------------------------------
    # Column hooks
    # ------------------------------------------------------------------
    def _compress_column(self, dtype: DataType, slices: list[bytes],
                         ) -> CompressedColumn:
        if isinstance(dtype, CharType):
            header = ns_header_bytes(dtype, self.mode)
            parts: list[bytes] = []
            payload = 0
            for slice_ in slices:
                body = _char_body(dtype, slice_, self.mode)
                parts.append(len(body).to_bytes(header, "big"))
                parts.append(body)
                payload += header + len(body)
            return CompressedColumn(b"".join(parts), payload)
        if isinstance(dtype, VarCharType):
            blob = b"".join(slices)
            return CompressedColumn(blob, len(blob))
        if isinstance(dtype, (IntegerType, BigIntType)):
            parts = []
            payload = 0
            for slice_ in slices:
                value = dtype.decode(slice_)
                width = minimal_int_bytes(value)
                parts.append(width.to_bytes(1, "big"))
                parts.append(value.to_bytes(width, "big", signed=True))
                payload += 1 + width
            return CompressedColumn(b"".join(parts), payload)
        raise CompressionError(
            f"null suppression unsupported for {dtype.name}")

    def _decompress_column(self, dtype: DataType, blob: bytes, count: int,
                           ) -> list[bytes]:
        out: list[bytes] = []
        offset = 0
        if isinstance(dtype, CharType):
            header = ns_header_bytes(dtype, self.mode)
            for _ in range(count):
                body_len = int.from_bytes(blob[offset:offset + header], "big")
                offset += header
                body = blob[offset:offset + body_len]
                if len(body) != body_len:
                    raise CompressionError("truncated NS body")
                offset += body_len
                raw = body if self.mode == "trailing" else _decode_runs(body)
                out.append(raw.ljust(dtype.k, PAD_BYTE))
        elif isinstance(dtype, VarCharType):
            prefix = VarCharType.LENGTH_PREFIX_BYTES
            for _ in range(count):
                body_len = int.from_bytes(blob[offset:offset + prefix], "big")
                end = offset + prefix + body_len
                chunk = blob[offset:end]
                if len(chunk) != prefix + body_len:
                    raise CompressionError("truncated VARCHAR slice")
                out.append(chunk)
                offset = end
        elif isinstance(dtype, (IntegerType, BigIntType)):
            for _ in range(count):
                width = blob[offset]
                offset += 1
                body = blob[offset:offset + width]
                if len(body) != width:
                    raise CompressionError("truncated NS integer")
                offset += width
                value = int.from_bytes(body, "big", signed=True)
                out.append(dtype.encode(value))
        else:
            raise CompressionError(
                f"null suppression unsupported for {dtype.name}")
        if offset != len(blob):
            raise CompressionError(
                f"{len(blob) - offset} trailing bytes in NS blob")
        return out

    def _size_column(self, dtype: DataType, view, bounds) -> int:
        """Vectorized NS payload for both modes: per-row sizes, summed.

        NS is layout-free, so segment bounds only delimit the range.
        ``trailing`` sizes are a pad scan plus minimal-int widths;
        ``runs`` additionally prices interior pad/zero runs at the
        escape-token rate (see
        :func:`~repro.compression.kernels.ns_runs_char_body_lengths`).
        """
        sizes = view.ns_runs_sizes if self.mode == "runs" else view.ns_sizes
        return int(sizes[int(bounds[0]):int(bounds[-1])].sum())

    # ------------------------------------------------------------------
    # The closed-form model
    # ------------------------------------------------------------------
    def cf_from_histogram(self, histogram, **layout) -> float:
        """Closed-form NS compression fraction on a column histogram.

        NS is layout-free: page boundaries do not change its size, so
        the ``layout`` keywords are accepted and ignored.
        """
        from repro.core.cf_models import ns_cf

        return ns_cf(histogram, mode=self.mode)
