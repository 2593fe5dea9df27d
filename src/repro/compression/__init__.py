"""Database compression algorithms.

The two techniques the paper analyses — null suppression and dictionary
compression (page-scoped, plus the simplified global model) — together
with the extension algorithms that exercise SampleCF's claim of being
agnostic to the compression technique (RLE, prefix, composite PAGE).
"""

from repro.compression.base import (CompressedBlock, CompressedColumn,
                                    CompressionAlgorithm, CompressionResult)
from repro.compression.delta import DeltaEncoding, delta_stored_size
from repro.compression.dictionary import (DictionaryCompression,
                                          pointer_bytes_for)
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.kernels import (ColumnView, DISABLE_KERNELS_ENV,
                                       build_column_views, kernels_enabled)
from repro.compression.null_suppression import (NullSuppression,
                                                ns_header_bytes,
                                                ns_stored_size)
from repro.compression.page_compression import PageCompression
from repro.compression.prefix import PrefixCompression, common_prefix
from repro.compression.registry import (get_algorithm, list_algorithms,
                                        register_algorithm)
from repro.compression.repack import (COMPRESSION_INFO_BYTES, RepackResult,
                                      compressed_page_capacity, repack)
from repro.compression.rle import RunLengthEncoding, rle_run_stored_size

__all__ = [
    "CompressedBlock",
    "CompressedColumn",
    "CompressionAlgorithm",
    "CompressionResult",
    "DeltaEncoding",
    "delta_stored_size",
    "DictionaryCompression",
    "GlobalDictionaryCompression",
    "NullSuppression",
    "PageCompression",
    "PrefixCompression",
    "RunLengthEncoding",
    "COMPRESSION_INFO_BYTES",
    "ColumnView",
    "DISABLE_KERNELS_ENV",
    "RepackResult",
    "build_column_views",
    "common_prefix",
    "kernels_enabled",
    "compressed_page_capacity",
    "get_algorithm",
    "list_algorithms",
    "ns_header_bytes",
    "ns_stored_size",
    "pointer_bytes_for",
    "register_algorithm",
    "repack",
    "rle_run_stored_size",
]
