"""Storage-engine constants shared across the package.

The defaults mirror the page organisation of mainstream commercial systems
(8 KiB pages, small fixed page header, 4-byte slot entries) so that the
``physical`` accounting mode of the engine produces realistic sizes, while
the ``payload`` mode strips all of these overheads and reproduces the
paper's analytical model exactly.
"""

from __future__ import annotations

#: Default page size in bytes (SQL Server uses 8 KiB pages).
DEFAULT_PAGE_SIZE: int = 8192

#: Bytes reserved at the start of every page for the page header
#: (page id, page type, slot count, free-space offset, flags, checksum).
PAGE_HEADER_SIZE: int = 16

#: Bytes per slot-directory entry (2-byte record offset + 2-byte length).
SLOT_SIZE: int = 4

#: Default dictionary pointer width in bytes. The paper treats the pointer
#: size ``p`` as a parameter (in general ``ceil(log2 d)`` bits); 2 bytes
#: covers dictionaries of up to 65536 distinct values and matches the
#: symbol width used by SQL Server page dictionaries.
DEFAULT_POINTER_BYTES: int = 2

#: Byte used to pad CHAR(k) values (an ASCII blank, as in the paper).
PAD_BYTE: bytes = b" "

#: Default leaf fill factor used when packing index leaves.
DEFAULT_FILL_FACTOR: float = 1.0

#: Minimum page size accepted by the engine. Small, but large enough for a
#: header, a couple of slots and a record; tests use tiny pages to force
#: many-page layouts cheaply.
MIN_PAGE_SIZE: int = 64
