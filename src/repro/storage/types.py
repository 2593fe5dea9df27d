"""SQL-style data types with byte-accurate encodings.

The paper's analysis is phrased for a single ``char(k)`` column; this
module provides that type plus the companions a realistic storage engine
needs (``VARCHAR``, 32/64-bit integers). Each type knows how to:

* validate a Python value,
* encode it to its uncompressed on-page bytes,
* decode those bytes back to the Python value, and
* report its *null-suppressed length* — the quantity the paper calls
  ``l_i``, i.e. the number of bytes that remain after pad suppression.

Integer encodings are big-endian with the sign bit flipped so that the
byte order of encodings matches the numeric order of values; index code
can therefore compare encoded keys with plain ``bytes`` comparison.
"""

from __future__ import annotations

import math
import struct
from abc import ABC, abstractmethod
from typing import Any

from repro.constants import PAD_BYTE
from repro.errors import EncodingError, SchemaError


def length_header_bytes(k: int) -> int:
    """Bytes needed to store a length in ``[0, k]``.

    This is the per-value overhead of null suppression: alongside the
    ``l_i`` retained bytes we must record how many bytes were retained.
    For ``k <= 255`` (including the paper's running ``char(20)`` example)
    this is a single byte.
    """
    if k < 0:
        raise SchemaError(f"length upper bound must be non-negative, got {k}")
    if k == 0:
        return 1
    bits = math.ceil(math.log2(k + 1))
    return max(1, math.ceil(bits / 8))


def minimal_int_bytes(value: int) -> int:
    """Smallest two's-complement width (in bytes) that can hold ``value``.

    This is the integer analogue of the paper's null-suppressed length:
    leading sign-extension bytes are suppressible, so a BIGINT holding 7
    needs one byte plus the length header.
    """
    length = 1
    while not -(1 << (8 * length - 1)) <= value <= (1 << (8 * length - 1)) - 1:
        length += 1
    return length


class DataType(ABC):
    """Abstract base class for column data types."""

    #: Short SQL-ish name, e.g. ``"char(20)"``.
    name: str

    @property
    @abstractmethod
    def fixed_size(self) -> int | None:
        """Uncompressed encoded size in bytes, or ``None`` if variable."""

    @property
    def is_fixed(self) -> bool:
        """Whether every encoded value of this type has the same width."""
        return self.fixed_size is not None

    @abstractmethod
    def validate(self, value: Any) -> None:
        """Raise :class:`EncodingError` if ``value`` is not storable."""

    @abstractmethod
    def encode(self, value: Any) -> bytes:
        """Encode ``value`` into its uncompressed byte representation."""

    @abstractmethod
    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""

    @abstractmethod
    def null_suppressed_length(self, value: Any) -> int:
        """The paper's ``l_i``: bytes that survive pad/zero suppression."""

    def encoded_size(self, value: Any) -> int:
        """Uncompressed encoded size of ``value`` in bytes."""
        if self.fixed_size is not None:
            return self.fixed_size
        return len(self.encode(value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.name == getattr(other, "name", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class CharType(DataType):
    """Fixed-width ``CHAR(k)`` column, blank-padded on the right.

    Values are stored in exactly ``k`` bytes; shorter strings are padded
    with ASCII blanks. Following SQL semantics, trailing blanks are not
    significant: :meth:`decode` strips them, and two values differing only
    in trailing blanks encode identically.

    Only ``latin-1``-encodable text is accepted so that one character
    always occupies one byte, which keeps the paper's byte arithmetic
    (``l_i`` vs ``k``) exact.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise SchemaError(f"CHAR width must be positive, got {k}")
        self.k = k
        self.name = f"char({k})"

    @property
    def fixed_size(self) -> int:
        return self.k

    @property
    def length_bytes(self) -> int:
        """Size of the null-suppression length header for this width."""
        return length_header_bytes(self.k)

    def validate(self, value: Any) -> None:
        if not isinstance(value, str):
            raise EncodingError(
                f"{self.name} expects str, got {type(value).__name__}")
        try:
            raw = value.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise EncodingError(
                f"{self.name} only stores latin-1 text: {value!r}") from exc
        if len(raw.rstrip(PAD_BYTE)) > self.k:
            raise EncodingError(
                f"value of length {len(raw)} exceeds {self.name}")

    def encode(self, value: str) -> bytes:
        self.validate(value)
        raw = value.encode("latin-1").rstrip(PAD_BYTE)
        return raw.ljust(self.k, PAD_BYTE)

    def decode(self, data: bytes) -> str:
        if len(data) != self.k:
            raise EncodingError(
                f"{self.name} expects {self.k} bytes, got {len(data)}")
        return data.rstrip(PAD_BYTE).decode("latin-1")

    def null_suppressed_length(self, value: str) -> int:
        self.validate(value)
        raw = value.encode("latin-1").rstrip(PAD_BYTE)
        return len(raw)


class VarCharType(DataType):
    """Variable-width ``VARCHAR(max_len)`` column.

    Encoded as a 2-byte big-endian length prefix followed by the raw
    bytes. Trailing blanks *are* significant for VARCHAR.
    """

    LENGTH_PREFIX_BYTES = 2

    def __init__(self, max_len: int) -> None:
        if max_len <= 0 or max_len > 0xFFFF:
            raise SchemaError(
                f"VARCHAR max length must be in [1, 65535], got {max_len}")
        self.max_len = max_len
        self.name = f"varchar({max_len})"

    @property
    def fixed_size(self) -> None:
        return None

    def validate(self, value: Any) -> None:
        if not isinstance(value, str):
            raise EncodingError(
                f"{self.name} expects str, got {type(value).__name__}")
        try:
            raw = value.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise EncodingError(
                f"{self.name} only stores latin-1 text: {value!r}") from exc
        if len(raw) > self.max_len:
            raise EncodingError(
                f"value of length {len(raw)} exceeds {self.name}")

    def encode(self, value: str) -> bytes:
        self.validate(value)
        raw = value.encode("latin-1")
        return struct.pack(">H", len(raw)) + raw

    def decode(self, data: bytes) -> str:
        if len(data) < self.LENGTH_PREFIX_BYTES:
            raise EncodingError(f"{self.name}: truncated length prefix")
        (length,) = struct.unpack_from(">H", data, 0)
        payload = data[self.LENGTH_PREFIX_BYTES:]
        if len(payload) != length:
            raise EncodingError(
                f"{self.name}: length prefix {length} does not match "
                f"payload of {len(payload)} bytes")
        return payload.decode("latin-1")

    def null_suppressed_length(self, value: str) -> int:
        self.validate(value)
        return len(value.encode("latin-1").rstrip(PAD_BYTE))

    def encoded_size(self, value: str) -> int:
        self.validate(value)
        return self.LENGTH_PREFIX_BYTES + len(value.encode("latin-1"))


class _FixedIntType(DataType):
    """Shared implementation for fixed-width signed integers.

    The encoding is big-endian with the sign bit flipped, which makes the
    lexicographic order of the encoded bytes equal to the numeric order of
    the values — a property the index's byte sort key relies on.
    Null suppression treats leading zero bytes of the encoding as
    suppressible (the integer analogue of the paper's zero suppression).
    """

    _size: int

    def __init__(self) -> None:
        bits = self._size * 8
        self._min = -(1 << (bits - 1))
        self._max = (1 << (bits - 1)) - 1
        self._flip = 1 << (bits - 1)

    @property
    def fixed_size(self) -> int:
        return self._size

    def validate(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise EncodingError(
                f"{self.name} expects int, got {type(value).__name__}")
        if not self._min <= value <= self._max:
            raise EncodingError(f"{value} out of range for {self.name}")

    def encode(self, value: int) -> bytes:
        self.validate(value)
        return (value + self._flip).to_bytes(self._size, "big")

    def decode(self, data: bytes) -> int:
        if len(data) != self._size:
            raise EncodingError(
                f"{self.name} expects {self._size} bytes, got {len(data)}")
        unsigned = int.from_bytes(data, "big")
        return unsigned - self._flip

    def null_suppressed_length(self, value: int) -> int:
        self.validate(value)
        return minimal_int_bytes(value)


class IntegerType(_FixedIntType):
    """32-bit signed integer column (``INTEGER``)."""

    _size = 4

    def __init__(self) -> None:
        self.name = "integer"
        super().__init__()


class BigIntType(_FixedIntType):
    """64-bit signed integer column (``BIGINT``)."""

    _size = 8

    def __init__(self) -> None:
        self.name = "bigint"
        super().__init__()


def parse_type(spec: str) -> DataType:
    """Parse a SQL-ish type name such as ``"char(20)"`` into a type object.

    Supported forms: ``char(k)``, ``varchar(m)``, ``integer``/``int``,
    ``bigint``. Parsing is case-insensitive and tolerant of whitespace.
    """
    text = spec.strip().lower()
    if text in ("integer", "int"):
        return IntegerType()
    if text == "bigint":
        return BigIntType()
    for prefix, factory in (("char", CharType), ("varchar", VarCharType)):
        if text.startswith(prefix + "(") and text.endswith(")"):
            inner = text[len(prefix) + 1:-1].strip()
            if not inner.isdigit():
                raise SchemaError(f"cannot parse type spec {spec!r}")
            return factory(int(inner))
    raise SchemaError(f"unknown type spec {spec!r}")
