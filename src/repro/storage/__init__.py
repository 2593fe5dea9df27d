"""From-scratch relational storage engine.

Types, schemas, records, slotted pages, heap files, tables and indexes
(each index held as its key-ordered leaf pages) — the substrate the
paper's estimator runs against. The README's "How an estimate is
computed" section walks through them.
"""

from repro.storage.catalog import CompressionSavingsReport, Database
from repro.storage.filestore import (load_heap, load_table, save_heap,
                                     save_table)
from repro.storage.heap import HeapFile
from repro.storage.index import (Accounting, Index, IndexKind, IndexSize,
                                 RID_COLUMN)
from repro.storage.page import Page, PageType, records_per_page
from repro.storage.record import decode_record, encode_record, split_record
from repro.storage.rid import RID, RID_BYTES
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.table import Table
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType, length_header_bytes,
                                 minimal_int_bytes, parse_type)

__all__ = [
    "Accounting",
    "BigIntType",
    "CharType",
    "Column",
    "CompressionSavingsReport",
    "DataType",
    "Database",
    "HeapFile",
    "Index",
    "IndexKind",
    "IndexSize",
    "IntegerType",
    "Page",
    "PageType",
    "RID",
    "RID_BYTES",
    "RID_COLUMN",
    "Schema",
    "Table",
    "VarCharType",
    "decode_record",
    "encode_record",
    "length_header_bytes",
    "load_heap",
    "load_table",
    "minimal_int_bytes",
    "save_heap",
    "save_table",
    "parse_type",
    "records_per_page",
    "single_char_schema",
    "split_record",
]
