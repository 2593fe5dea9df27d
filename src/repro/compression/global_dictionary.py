"""The paper's simplified global-dictionary model (Section III-B).

"Dictionary compression stores a 'global' dictionary in which each
distinct value is stored once and each row has a pointer to the
dictionary." Under this model, for a single ``char(k)`` column::

    CF_D = (d * k + n * p) / (n * k) = d/n + p/k

This algorithm is index-scoped: :meth:`compress` receives *all* records
of the index at once and builds one dictionary. Theorems 2 and 3 are
stated against exactly this model, which is why it exists as a separate
algorithm rather than a parameter of the paged variant.
"""

from __future__ import annotations

from typing import Sequence

from repro.constants import DEFAULT_POINTER_BYTES
from repro.errors import CompressionError
from repro.storage.schema import Schema
from repro.compression.base import CompressedBlock, CompressionAlgorithm
from repro.compression.dictionary import EntryStorage, _DictionaryCodec


class GlobalDictionaryCompression(CompressionAlgorithm):
    """One index-wide dictionary per column; rows store pointers."""

    scope = "index"

    def __init__(self, pointer_bytes: int | None = DEFAULT_POINTER_BYTES,
                 entry_storage: EntryStorage = "fixed") -> None:
        self._codec = _DictionaryCodec(pointer_bytes, entry_storage)
        suffix = "" if pointer_bytes is not None else "_derived"
        self.name = f"global_dictionary{suffix}"

    @property
    def pointer_bytes(self) -> int | None:
        return self._codec.pointer_bytes

    @property
    def entry_storage(self) -> EntryStorage:
        return self._codec.entry_storage

    def compress(self, records: Sequence[bytes], schema: Schema,
                 ) -> CompressedBlock:
        if not records:
            raise CompressionError("cannot compress an empty record set")
        columns = self.columnize(records, schema)
        compressed = tuple(
            self._codec.compress_column(col.dtype, slices)
            for col, slices in zip(schema.columns, columns))
        return CompressedBlock(algorithm=self.name, row_count=len(records),
                               columns=compressed)

    def size_of(self, views, schema: Schema, bounds) -> int:
        """Vectorized global-dictionary payload, one per segment.

        An index passes one segment, ``[0, n]``: one dictionary.
        """
        return sum(self._codec.size_of_column(col.dtype, view, bounds)
                   for col, view in zip(schema.columns, views))

    def decompress(self, block: CompressedBlock, schema: Schema,
                   ) -> list[bytes]:
        if len(block.columns) != len(schema):
            raise CompressionError(
                f"block has {len(block.columns)} columns, schema has "
                f"{len(schema)}")
        columns = [
            self._codec.decompress_column(col.dtype, comp.blob,
                                          block.row_count)
            for col, comp in zip(schema.columns, block.columns)]
        return self.recordize(columns)

    def cf_from_histogram(self, histogram, **layout) -> float:
        """The paper's closed form: ``d/n + p/k`` (general column form).

        The simplified global model ignores paging by construction, so
        the ``layout`` keywords are accepted and ignored.
        """
        from repro.core.cf_models import global_dictionary_cf

        return global_dictionary_cf(
            histogram, pointer_bytes=self._codec.pointer_bytes,
            entry_storage=self._codec.entry_storage)
