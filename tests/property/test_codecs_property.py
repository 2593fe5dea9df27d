"""Property tests: every compression codec is exactly invertible and its
payload accounting is consistent."""

import string

from hypothesis import given, settings, strategies as st

from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import CharType, IntegerType
from repro.compression.delta import DeltaEncoding
from repro.compression.dictionary import DictionaryCompression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.compression.page_compression import PageCompression
from repro.compression.prefix import PrefixCompression
from repro.compression.rle import RunLengthEncoding

K = 16

#: Text values storable in CHAR(16): latin-1, no trailing blanks wider
#: than the column. Trailing blanks are canonicalised by CHAR semantics,
#: so generate values without them to make round trips exact.
char_values = st.text(
    alphabet=string.ascii_letters + string.digits + " 0\x1b",
    min_size=0, max_size=K,
).map(lambda s: s.rstrip(" "))

value_lists = st.lists(char_values, min_size=1, max_size=40)

ALGORITHMS = [
    NullSuppression(),
    NullSuppression(mode="runs"),
    DictionaryCompression(),
    DictionaryCompression(pointer_bytes=None),
    DictionaryCompression(entry_storage="null_suppressed"),
    GlobalDictionaryCompression(),
    RunLengthEncoding(),
    PrefixCompression(),
    PageCompression(),
    DeltaEncoding(),
]


def records_of(values: list[str]) -> tuple:
    schema = single_char_schema(K)
    return schema, [encode_record(schema, (value,)) for value in values]


@settings(max_examples=60, deadline=None)
@given(values=value_lists)
def test_char_roundtrip_all_algorithms(values):
    schema, records = records_of(values)
    for algorithm in ALGORITHMS:
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records, \
            algorithm.name


@settings(max_examples=60, deadline=None)
@given(values=value_lists)
def test_payload_not_larger_than_serialized_plus_headers(values):
    """payload_size counts data; blobs add only self-description."""
    schema, records = records_of(values)
    for algorithm in ALGORITHMS:
        block = algorithm.compress(records, schema)
        assert block.payload_size >= 0
        assert block.row_count == len(records)


@settings(max_examples=60, deadline=None)
@given(values=value_lists)
def test_ns_payload_formula(values):
    """NS payload == sum(l_i + 1) exactly, for any value multiset."""
    schema, records = records_of(values)
    block = NullSuppression().compress(records, schema)
    expected = sum(len(value.encode("latin-1")) + 1 for value in values)
    assert block.payload_size == expected


@settings(max_examples=60, deadline=None)
@given(values=value_lists)
def test_dictionary_payload_formula(values):
    """Dictionary payload == d*K + n*p exactly, for any multiset."""
    schema, records = records_of(values)
    block = DictionaryCompression().compress(records, schema)
    distinct = len(set(values))
    assert block.payload_size == distinct * K + len(values) * 2


@settings(max_examples=40, deadline=None)
@given(values=value_lists,
       numbers=st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                        max_size=40))
def test_payload_never_shrinks_when_a_record_is_appended(values, numbers):
    """``compress(records[:i]).payload_size`` is non-decreasing in ``i``.

    In any record order, CHAR and INTEGER alike: ``repack`` searches
    for each page's last record by doubling and bisecting, which finds
    the greedy scan's pages only because of this.
    """
    int_schema = Schema([Column("n", IntegerType())])
    pages = [records_of(values),
             (int_schema, [encode_record(int_schema, (number,))
                           for number in numbers])]
    for schema, records in pages:
        for algorithm in ALGORITHMS:
            sizes = [algorithm.compress(records[:stop], schema).payload_size
                     for stop in range(1, len(records) + 1)]
            assert sizes == sorted(sizes), (algorithm.name, sizes)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                       max_size=30))
def test_integer_roundtrip(values):
    schema = Schema([Column("n", IntegerType())])
    records = [encode_record(schema, (value,)) for value in values]
    for algorithm in ALGORITHMS:
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records, \
            algorithm.name


@settings(max_examples=40, deadline=None)
@given(values=value_lists,
       numbers=st.lists(st.integers(-10**6, 10**6), min_size=1,
                        max_size=30))
def test_multicolumn_roundtrip(values, numbers):
    size = min(len(values), len(numbers))
    schema = Schema([Column("s", CharType(K)),
                     Column("n", IntegerType())])
    records = [encode_record(schema, (values[i], numbers[i]))
               for i in range(size)]
    if not records:
        return
    for algorithm in ALGORITHMS:
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records, \
            algorithm.name


@settings(max_examples=60, deadline=None)
@given(values=value_lists)
def test_sorted_rle_never_beaten_by_shuffled(values):
    """RLE on sorted input never uses more bytes than any permutation."""
    schema, records = records_of(sorted(values))
    sorted_block = RunLengthEncoding().compress(records, schema)
    schema, shuffled = records_of(values)
    shuffled_block = RunLengthEncoding().compress(shuffled, schema)
    assert sorted_block.payload_size <= shuffled_block.payload_size
