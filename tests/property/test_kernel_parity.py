"""Parity property suite: size kernels == scalar ``payload_size``.

Every registered algorithm (plus the non-default dictionary
configurations) is sized two ways over randomized pages drawn from the
repo's workload shapes — uniform/zipf/bimodal CHAR values, sorted and
shuffled integers, VARCHAR with empty/blank/NUL-bearing values, and
multi-column records — and the vectorized ``size_of`` must return the
exact integer the scalar ``compress`` path reports. Given the bounds of
several leaves, one ``size_of`` call must return the sum of the leaves'
``compress`` payloads, and raise where ``compress`` rejects a leaf
(a dictionary pointer overflow). ``repack``, which
sizes record ranges with those kernels, must find the pages its
definition (:func:`tests.btree_oracle.greedy_repack`) finds. The record
splitter (``build_column_views``) must cut random CHAR, VARCHAR,
INTEGER and BIGINT batches, empty ones included, into the slices the
reference ``split_records`` cuts, and reject the malformed records it
rejects. A final
test locks the end-to-end contract: estimates computed with kernels
force-disabled (``REPRO_DISABLE_KERNELS``) are bit-identical to
kernel-computed ones.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.dictionary import DictionaryCompression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.kernels import (DISABLE_KERNELS_ENV,
                                       build_column_views)
from repro.compression.page_compression import PageCompression
from repro.compression.registry import get_algorithm, list_algorithms
from repro.compression.repack import repack
from repro.core.samplecf import SampleCF
from repro.errors import CompressionError, EncodingError
from repro.storage.record import (encode_record, join_records,
                                  record_offsets, split_records)
from repro.storage.schema import Column, Schema
from repro.workloads.generators import make_histogram, make_table

from tests.btree_oracle import greedy_repack

#: Registered algorithms plus configuration corners the registry's
#: defaults do not reach (derived pointers, NS-compressed entries).
ALGORITHMS = [get_algorithm(name) for name in list_algorithms()] + [
    DictionaryCompression(pointer_bytes=None),
    DictionaryCompression(entry_storage="null_suppressed"),
    DictionaryCompression(pointer_bytes=None,
                          entry_storage="null_suppressed"),
    GlobalDictionaryCompression(pointer_bytes=None),
    GlobalDictionaryCompression(entry_storage="null_suppressed"),
]


def assert_parity(schema, records, context=""):
    """Kernel size == scalar payload for every registered algorithm.

    No :class:`~repro.errors.KernelUnavailable` escape hatch: every
    configuration in ``ALGORITHMS`` (NS ``runs`` mode included) now has
    a size kernel, so a raise here is a regression, not a skip.
    """
    views = build_column_views(schema, *join_records(records))
    assert views is not None, context
    bounds = np.array([0, len(records)], dtype=np.int64)
    for algorithm in ALGORITHMS:
        want = algorithm.compress(records, schema).payload_size
        got = algorithm.size_of(views, schema, bounds)
        assert got == want, \
            f"{algorithm.name} ({context}): kernel {got} != scalar {want}"


# ----------------------------------------------------------------------
# Workload-generator pages (the ISSUE's named shapes)
# ----------------------------------------------------------------------
K = 20


def char_records(values):
    schema = Schema([Column.of("a", f"char({K})")])
    return schema, [encode_record(schema, (value,)) for value in values]


@pytest.mark.parametrize("distribution", ["uniform", "zipf",
                                          "singleton_heavy"])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_char_distribution_pages(distribution, order):
    histogram = make_histogram(400, 35, K, distribution=distribution,
                               seed=19)
    values = histogram.expand(order, seed=20)
    schema, records = char_records(list(values))
    assert_parity(schema, records, f"{distribution}/{order}")


def test_bimodal_length_strings():
    # short ids mixed with near-full-width values: both modes of the
    # Theorem 1 bimodal workload, in one page
    short = make_histogram(150, 12, K, min_len=1, max_len=3, seed=31)
    long_ = make_histogram(150, 12, K, min_len=K - 2, max_len=K, seed=32)
    values = list(short.expand("shuffled", seed=33)) \
        + list(long_.expand("shuffled", seed=34))
    schema, records = char_records(values)
    assert_parity(schema, records, "bimodal")


@pytest.mark.parametrize("sort", [False, True])
def test_integer_pages(sort):
    import random

    rng = random.Random(47)
    schema = Schema([Column.of("n", "integer"), Column.of("b", "bigint")])
    rows = [(rng.choice([0, 1, -1, 2 ** 31 - 1, -2 ** 31,
                         rng.randrange(-10 ** 6, 10 ** 6)]),
             rng.choice([0, -1, 2 ** 63 - 1, -2 ** 63,
                         rng.randrange(-10 ** 12, 10 ** 12)]))
            for _ in range(300)]
    if sort:
        rows.sort()
    records = [encode_record(schema, row) for row in rows]
    assert_parity(schema, records, f"integers sort={sort}")


def test_varchar_pages():
    import random

    rng = random.Random(53)
    pool = ["", " ", "x", "a\x00b", "trailing  ", "interior gap",
            "Ω".encode("latin-1", "replace").decode("latin-1"),
            "a" * 30, "ab" * 15]
    schema = Schema([Column.of("v", "varchar(30)")])
    rows = [(rng.choice(pool),) for _ in range(250)]
    records = [encode_record(schema, row) for row in rows]
    assert_parity(schema, records, "varchar")


def test_multicolumn_pages():
    import random

    rng = random.Random(61)
    schema = Schema([Column.of("status", "char(10)"),
                     Column.of("qty", "integer"),
                     Column.of("note", "varchar(16)"),
                     Column.of("uid", "bigint")])
    rows = [(rng.choice(["open", "closed", "pending", "", "x y"]),
             rng.randrange(-5000, 5000),
             rng.choice(["", "n/a", "see detail", "a\x00"]),
             rng.randrange(-2 ** 40, 2 ** 40))
            for _ in range(300)]
    records = [encode_record(schema, row) for row in rows]
    assert_parity(schema, records, "multicolumn")


# ----------------------------------------------------------------------
# Hypothesis-randomized pages
# ----------------------------------------------------------------------
char_values = st.text(
    alphabet=string.ascii_letters + string.digits + " 0\x1b\x00",
    min_size=0, max_size=K,
).map(lambda s: s.rstrip(" "))


@settings(max_examples=50, deadline=None)
@given(values=st.lists(char_values, min_size=1, max_size=60))
def test_random_char_pages(values):
    schema, records = char_records(values)
    assert_parity(schema, records, "hypothesis char")


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(
    st.tuples(st.integers(-2 ** 31, 2 ** 31 - 1),
              st.integers(-2 ** 63, 2 ** 63 - 1)),
    min_size=1, max_size=60))
def test_random_int_pages(rows):
    schema = Schema([Column.of("n", "integer"), Column.of("b", "bigint")])
    records = [encode_record(schema, row) for row in rows]
    assert_parity(schema, records, "hypothesis ints")


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(
    st.tuples(char_values,
              st.text(alphabet=string.printable, min_size=0, max_size=12)),
    min_size=1, max_size=50))
def test_random_mixed_pages(rows):
    schema = Schema([Column.of("a", f"char({K})"),
                     Column.of("v", "varchar(12)")])
    records = [encode_record(schema, row) for row in rows]
    assert_parity(schema, records, "hypothesis mixed")


LEAF_SCHEMAS = {
    "char": Schema([Column.of("a", f"char({K})")]),
    "mixed": Schema([Column.of("a", f"char({K})"),
                     Column.of("v", "varchar(12)"),
                     Column.of("n", "integer"),
                     Column.of("b", "bigint")]),
}

leaf_rows = st.tuples(
    char_values, st.text(alphabet="ab \x00", max_size=12),
    st.integers(-2 ** 31, 2 ** 31 - 1), st.integers(-2 ** 63, 2 ** 63 - 1))


@settings(max_examples=50, deadline=None)
@given(layout=st.sampled_from(sorted(LEAF_SCHEMAS)),
       pool=st.lists(leaf_rows, min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), min_size=1, max_size=80),
       cuts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       skip=st.integers(0, 5))
def test_random_leaf_slicing(layout, pool, picks, cuts, skip):
    """One kernel call over leaf bounds equals per-leaf compression.

    Rows repeat values from a small pool, so leaves hold runs and
    repeated dictionary entries. The leaves tile the rows from
    ``skip`` on, as a repack probe's range need not start at row 0;
    the rows before it are split with the rest but never sized.
    """
    schema = LEAF_SCHEMAS[layout]
    rows = [pool[pick % len(pool)][:len(schema)] for pick in picks]
    records = [encode_record(schema, row) for row in rows]
    skip = min(skip, len(records) - 1)
    leaves, start, i = [], skip, 0
    while start < len(records):
        step = cuts[i % len(cuts)]
        leaves.append(records[start:start + step])
        start += step
        i += 1
    bounds = skip + record_offsets(np.array([len(leaf) for leaf in leaves]))
    views = build_column_views(schema, *join_records(records))
    for algorithm in ALGORITHMS:
        got = algorithm.size_of(views, schema, bounds)
        want = sum(algorithm.compress(leaf, schema).payload_size
                   for leaf in leaves)
        assert got == want, algorithm.name


@pytest.mark.parametrize("spec", ["char(6)", "integer"])
def test_derived_pointers_are_sized_per_leaf(spec):
    """A 300-entry leaf takes 2-byte pointers, its 3-entry neighbour 1."""
    schema = Schema([Column.of("a", spec)])
    values = list(range(300)) + [0, 1, 2] * 4
    records = [encode_record(schema, (str(v) if spec != "integer" else v,))
               for v in values]
    bounds = np.array([0, 300, len(records)], dtype=np.int64)
    views = build_column_views(schema, *join_records(records))
    for algorithm in (DictionaryCompression(pointer_bytes=None),
                      DictionaryCompression(pointer_bytes=None,
                                            entry_storage="null_suppressed")):
        leaves = [algorithm.compress(records[a:b], schema).payload_size
                  for a, b in ((0, 300), (300, len(records)))]
        assert algorithm.size_of(views, schema, bounds) == sum(leaves)


@pytest.mark.parametrize("spec", ["char(6)", "integer"])
@pytest.mark.parametrize("algorithm", [
    DictionaryCompression(pointer_bytes=1), PageCompression(pointer_bytes=1)],
    ids=["dictionary", "page"])
def test_pointer_overflow_in_one_leaf_raises_on_both_routes(spec,
                                                            algorithm):
    """257 entries in one leaf overflow a 1-byte pointer either way."""
    schema = Schema([Column.of("a", spec)])
    values = list(range(257)) + [0] * 5
    records = [encode_record(schema, (str(v) if spec != "integer" else v,))
               for v in values]
    views = build_column_views(schema, *join_records(records))
    with pytest.raises(CompressionError):
        algorithm.compress(records[:257], schema)
    assert algorithm.compress(records[257:], schema).payload_size > 0
    with pytest.raises(CompressionError):
        algorithm.size_of(views, schema,
                          np.array([0, 257, len(records)], dtype=np.int64))
    assert algorithm.size_of(
        views, schema, np.array([257, len(records)], dtype=np.int64)) \
        == algorithm.compress(records[257:], schema).payload_size


@settings(max_examples=25, deadline=None)
@given(pool=st.lists(
    st.tuples(char_values, st.integers(-2 ** 31, 2 ** 31 - 1)),
    min_size=1, max_size=40),
       count=st.integers(1, 160), seed=st.integers(0, 2 ** 16),
       ordered=st.booleans(), page_size=st.integers(64, 1024))
def test_repack_matches_its_definition(pool, count, seed, ordered,
                                       page_size):
    """The page search finds the pages greedy-by-``compress`` finds.

    Rows repeat values from a small pool, in key order or not, so
    pages span the dictionary, run and prefix regimes.
    """
    import random

    rows = random.Random(seed).choices(pool, k=count)
    if ordered:
        rows.sort()
    schema = Schema([Column.of("a", f"char({K})"),
                     Column.of("n", "integer")])
    records = [encode_record(schema, row) for row in rows]
    for algorithm in ALGORITHMS:
        assert repack(records, schema, algorithm, page_size) == \
            greedy_repack(records, schema, algorithm, page_size), \
            algorithm.name


# ----------------------------------------------------------------------
# The record splitter equals the reference split
# ----------------------------------------------------------------------
column_specs = st.one_of(
    st.integers(1, 8).map(lambda k: f"char({k})"),
    st.integers(1, 8).map(lambda m: f"varchar({m})"),
    st.just("integer"), st.just("bigint"))


def spec_values(spec):
    if spec.startswith("char("):
        return st.text(alphabet="ab 0\x00", max_size=int(spec[5:-1])) \
            .map(lambda s: s.rstrip(" "))
    if spec.startswith("varchar("):
        # empty, NUL-bearing and all-blank values included
        return st.one_of(st.sampled_from(["", "\x00", " "]),
                         st.text(alphabet="ab \x00",
                                 max_size=int(spec[8:-1])))
    bits = 31 if spec == "integer" else 63
    return st.integers(-2 ** bits, 2 ** bits - 1)


@st.composite
def batches(draw):
    """A schema over 1-4 columns and 0-30 records of it."""
    specs = draw(st.lists(column_specs, min_size=1, max_size=4))
    schema = Schema([Column.of(f"c{i}", spec)
                     for i, spec in enumerate(specs)])
    rows = draw(st.lists(st.tuples(*map(spec_values, specs)),
                         max_size=30))
    return schema, [encode_record(schema, row) for row in rows]


def column_bytes(view):
    if view.matrix is not None:
        assert view.matrix.flags.c_contiguous
        return [row.tobytes() for row in view.matrix]
    return [view.payload[start:start + length].tobytes()
            for start, length in zip(view.offsets.tolist(),
                                     view.lengths.tolist())]


@settings(max_examples=100, deadline=None)
@given(batch=batches())
def test_splitter_equals_split_records(batch):
    schema, records = batch
    views = build_column_views(schema, *join_records(records))
    assert [view.count for view in views] == [len(records)] * len(schema)
    assert [column_bytes(view) for view in views] == \
        split_records(schema, records)


@pytest.mark.parametrize("spec, record", [
    ("char(6)", b"short"),                   # narrower than the schema
    ("char(6)", b"too long"),                # wider than the schema
    ("varchar(4)", b"\x00\x05hello"),        # prefix past max_len
    ("varchar(4)", b"\x00\x03ab"),           # prefix past the record
    ("varchar(4)", b"\x00\x01ab"),           # trailing bytes
])
def test_malformed_records_fail_both_splits(spec, record):
    schema = Schema([Column.of("a", spec)])
    records = [encode_record(schema, ("ab",))] * 3 + [record]
    with pytest.raises(EncodingError):
        build_column_views(schema, *join_records(records))
    with pytest.raises(EncodingError):
        split_records(schema, records)


# ----------------------------------------------------------------------
# NS runs mode: the interior-run escape encoding's dedicated corners
# ----------------------------------------------------------------------
def test_ns_runs_long_run_pages():
    """Runs past the 255-byte token cap, escapes, and interior pads."""
    k = 300
    schema = Schema([Column.of("a", f"char({k})")])
    values = [
        "",
        "A" + "0" * 298 + "B",        # interior zero run > 255
        " " * 260 + "Z",              # leading pad run > 255 (kept by Z)
        "0" * k,                      # the whole value is one run
        "\x1b" * 10 + "0" * 4,        # escape literals next to a run
        "ab 0 c  00   d",             # sub-minimum runs stay literal
        "x" + " " * 255 + "y",        # run of exactly the token cap
        "x" + " " * 256 + "y",        # cap + 1: chunk plus 1 literal
        "x" + " " * 259 + "y",        # cap + 4: chunk plus a short token
        ("0" * 7 + " " * 7 + "\x1b") * 19,  # alternating runs + escapes
    ]
    records = [encode_record(schema, (value,)) for value in values]
    assert_parity(schema, records, "ns-runs long")


@settings(max_examples=50, deadline=None)
@given(values=st.lists(
    st.text(alphabet=" 0\x1bAB", min_size=0, max_size=40
            ).map(lambda s: s.rstrip(" ")),
    min_size=1, max_size=40))
def test_ns_runs_random_runnable_pages(values):
    """Pages biased toward pads/zeros/escapes, the runs-mode hot path."""
    schema = Schema([Column.of("a", "char(40)")])
    records = [encode_record(schema, (value,)) for value in values]
    assert_parity(schema, records, "ns-runs hypothesis")


# ----------------------------------------------------------------------
# End-to-end: the numpy-fallback path gives identical estimates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["null_suppression",
                                       "null_suppression_runs",
                                       "dictionary",
                                       "global_dictionary", "rle",
                                       "prefix", "page", "delta"])
def test_disabled_kernels_identical_estimates(algorithm, monkeypatch):
    from repro.engine.engine import EstimationEngine

    table = make_table(600, 30, 14, seed=71)

    def estimate():
        estimator = SampleCF(algorithm, engine=EstimationEngine(seed=88))
        return estimator.estimate_table(table, 0.25, ["a"], seed=13)

    fast = estimate()
    monkeypatch.setenv(DISABLE_KERNELS_ENV, "1")
    slow = estimate()
    assert fast == slow
