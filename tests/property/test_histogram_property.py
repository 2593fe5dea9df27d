"""Property tests: histogram invariants and sampler mass conservation."""

import string

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.compression.dictionary import _entry_stored_size
from repro.compression.kernels import build_column_views
from repro.compression.null_suppression import ns_stored_size
from repro.sampling.rng import make_rng
from repro.sampling.row_samplers import (BernoulliSampler,
                                         WithoutReplacementSampler,
                                         WithReplacementSampler)
from repro.storage.index import key_order
from repro.storage.record import encode_record, join_records
from repro.storage.schema import Column, Schema
from repro.storage.types import BigIntType, CharType, IntegerType, VarCharType
from repro.core.cf_models import (ColumnHistogram, global_dictionary_cf,
                                  ns_cf, paged_dictionary_cf, paged_rle_cf)

K = 12

distinct_values = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1,
            max_size=K),
    min_size=1, max_size=30, unique=True)


@st.composite
def histograms(draw):
    values = draw(distinct_values)
    counts = draw(st.lists(st.integers(1, 500), min_size=len(values),
                           max_size=len(values)))
    return ColumnHistogram(CharType(K), values, counts)


@settings(max_examples=60, deadline=None)
@given(histogram=histograms())
def test_mass_and_distinct_counts(histogram):
    assert histogram.n == int(histogram.counts.sum())
    assert histogram.d == len(histogram.values)
    assert histogram.total_bytes == histogram.n * K


@settings(max_examples=60, deadline=None)
@given(histogram=histograms())
def test_frequency_of_frequencies_conserves(histogram):
    freqs = histogram.frequency_of_frequencies()
    assert sum(freqs.values()) == histogram.d
    assert sum(j * count for j, count in freqs.items()) == histogram.n


@settings(max_examples=60, deadline=None)
@given(histogram=histograms())
def test_cf_bounds(histogram):
    """CF_NS in (0, (k+c)/k]; CF_D in (0, 1 + p/k]."""
    ns = ns_cf(histogram)
    assert 0 < ns <= (K + 1) / K
    dictionary = global_dictionary_cf(histogram, pointer_bytes=2)
    assert 0 < dictionary <= 1 + 2 / K


@settings(max_examples=60, deadline=None)
@given(histogram=histograms())
def test_paged_dictionary_at_least_global(histogram):
    paged = paged_dictionary_cf(histogram, page_size=256)
    simple = global_dictionary_cf(histogram, pointer_bytes=2)
    assert paged >= simple - 1e-12


@settings(max_examples=60, deadline=None)
@given(histogram=histograms())
def test_sorted_is_permutation(histogram):
    ordered = histogram.sorted_by_value()
    assert sorted(ordered.values) == list(ordered.values)
    assert set(zip(ordered.values, ordered.counts.tolist())) == \
        set(zip(histogram.values, histogram.counts.tolist()))


#: Short texts over blanks, bytes below 0x20 and high latin-1, so that
#: values are often prefixes of one another.
key_texts = st.text(alphabet="\x00\x01\x1f ab~\xff", max_size=6)


@st.composite
def key_columns(draw):
    """A key dtype and distinct values of it, in no particular order."""
    dtype = draw(st.sampled_from(
        [CharType(6), VarCharType(6), IntegerType(), BigIntType()]))
    if isinstance(dtype, CharType):
        # A CHAR value has no trailing blanks (its padding).
        values = key_texts.map(lambda text: text.rstrip(" "))
    elif isinstance(dtype, VarCharType):
        values = key_texts
    else:
        bits = 8 * dtype.fixed_size - 1
        values = st.integers(-(1 << bits), (1 << bits) - 1)
    return dtype, draw(st.lists(values, min_size=1, max_size=25,
                                unique=True))


@settings(max_examples=200, deadline=None)
@given(column=key_columns())
def test_sorted_by_value_is_key_order(column):
    """The paged models' value order is the index's key order."""
    dtype, values = column
    histogram = ColumnHistogram(dtype, values, [1] * len(values))
    schema = Schema([Column("a", dtype)])
    views = build_column_views(schema, *join_records(
        [encode_record(schema, (value,)) for value in values]))
    order, distinct = key_order(views)
    assert distinct == len(values)
    assert [values[i] for i in order] == \
        list(histogram.sorted_by_value().values)


@settings(max_examples=40, deadline=None)
@given(histogram=histograms(), seed=st.integers(0, 2**31),
       fraction=st.floats(0.05, 1.0))
def test_with_replacement_sample_mass(histogram, seed, fraction):
    r = max(1, round(fraction * histogram.n))
    sample = WithReplacementSampler().sample_histogram(
        histogram, r, make_rng(seed))
    assert sample.n == r
    assert set(sample.values).issubset(set(histogram.values))


@settings(max_examples=40, deadline=None)
@given(histogram=histograms(), seed=st.integers(0, 2**31),
       fraction=st.floats(0.05, 1.0))
def test_without_replacement_never_exceeds_counts(histogram, seed,
                                                  fraction):
    r = max(1, round(fraction * histogram.n))
    assume(r <= histogram.n)
    sample = WithoutReplacementSampler().sample_histogram(
        histogram, r, make_rng(seed))
    assert sample.n == r
    originals = dict(zip(histogram.values, histogram.counts.tolist()))
    for value, count in zip(sample.values, sample.counts.tolist()):
        assert count <= originals[value]


@settings(max_examples=40, deadline=None)
@given(histogram=histograms(), seed=st.integers(0, 2**31))
def test_bernoulli_thinning_bounded(histogram, seed):
    sample = BernoulliSampler(0.5).sample_histogram(
        histogram, 0, make_rng(seed))
    originals = dict(zip(histogram.values, histogram.counts.tolist()))
    for value, count in zip(sample.values, sample.counts.tolist()):
        assert count <= originals[value]


@settings(max_examples=40, deadline=None)
@given(histogram=histograms(), seed=st.integers(0, 2**31))
def test_expand_conserves_multiset(histogram, seed):
    expanded = histogram.expand("shuffled", seed=seed)
    assert len(expanded) == histogram.n
    counts = {}
    for value in expanded:
        counts[value] = counts.get(value, 0) + 1
    assert counts == dict(zip(histogram.values,
                              (int(c) for c in histogram.counts)))


# ----------------------------------------------------------------------
# Cached size arrays: kernels (or the scalar route) against the scalar
# references, on a root, its samples and their sorted copies
# ----------------------------------------------------------------------
WIDTH = 10

#: CHAR pieces: single bytes (below 0x20, the escape byte, high latin-1)
#: and runs of blanks or ASCII zeros long enough for runs-mode escapes.
char_pieces = st.one_of(
    st.sampled_from(["\x00", "\x01", "\x1b", "\x1f", "a", "Z", "\xff"]),
    st.builds(lambda byte, run: byte * run, st.sampled_from([" ", "0"]),
              st.integers(1, 8)))

#: Cut to the width, so long draws fill it.
char_values = st.lists(char_pieces, max_size=6).map(
    lambda pieces: "".join(pieces)[:WIDTH])


@st.composite
def sized_histograms(draw):
    dtype = draw(st.sampled_from([CharType(WIDTH), VarCharType(WIDTH),
                                  IntegerType(), BigIntType()]))
    if isinstance(dtype, CharType):
        values = char_values
    elif isinstance(dtype, VarCharType):
        values = st.text(alphabet="\x00\x01 0ab\xff", max_size=WIDTH)
    else:
        bits = 8 * dtype.fixed_size - 1
        values = st.one_of(st.integers(-(1 << bits), (1 << bits) - 1),
                           st.integers(-300, 300))
    distinct = draw(st.lists(values, min_size=1, max_size=40, unique=True))
    counts = draw(st.lists(st.integers(1, 60), min_size=len(distinct),
                           max_size=len(distinct)))
    return ColumnHistogram(dtype, distinct, counts)


def thinned(histogram, rng):
    """``histogram`` with binomially thinned counts, through with_counts."""
    counts = rng.binomial(histogram.counts, 0.5)
    if not counts.any():
        counts[rng.integers(counts.size)] = 1
    return histogram.with_counts(counts)


def assert_sizes_are_the_scalar_references(histogram):
    dtype, values = histogram.dtype, histogram.values
    encoded = [dtype.encode(value) for value in values]
    assert histogram.uncompressed_value_sizes().tolist() == \
        [dtype.encoded_size(value) for value in values]
    for mode in ("trailing", "runs"):
        assert histogram.ns_stored_sizes(mode).tolist() == \
            [ns_stored_size(dtype, value, mode) for value in values]
    for storage in ("fixed", "null_suppressed"):
        assert histogram.dictionary_entry_sizes(storage).tolist() == \
            [_entry_stored_size(dtype, raw, storage) for raw in encoded]
    assert histogram.n == int(histogram.counts.sum())
    assert histogram.total_bytes == sum(
        dtype.encoded_size(value) * int(count)
        for value, count in zip(values, histogram.counts))


def closed_forms(histogram):
    layout = {"page_size": 256, "record_bytes": 16}
    return [ns_cf(histogram, "trailing"), ns_cf(histogram, "runs"),
            global_dictionary_cf(histogram),
            global_dictionary_cf(histogram, pointer_bytes=None),
            global_dictionary_cf(histogram, entry_storage="null_suppressed"),
            paged_dictionary_cf(histogram, **layout),
            paged_dictionary_cf(histogram, entry_storage="null_suppressed",
                                **layout),
            paged_rle_cf(histogram, **layout)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(histogram=sized_histograms(), seed=st.integers(0, 2**31))
def test_cached_sizes_match_the_scalar_references(histogram, seed):
    """Root, sample, sample of the sample and each one's sorted copy."""
    rng = make_rng(seed)
    sample = thinned(histogram, rng)
    resample = thinned(sample, rng)
    for derived in (histogram, sample, resample):
        ordered = derived.sorted_by_value()
        assert list(ordered.values) == sorted(derived.values)
        assert dict(zip(ordered.values, ordered.counts.tolist())) == \
            dict(zip(derived.values, derived.counts.tolist()))
        for checked in (derived, ordered):
            assert_sizes_are_the_scalar_references(checked)
    for derived in (sample, resample):
        # A gather from the wrong positions sizes the wrong values.
        fresh = ColumnHistogram(derived.dtype, derived.values,
                                derived.counts)
        assert closed_forms(derived) == closed_forms(fresh)
        assert closed_forms(derived.sorted_by_value()) == \
            closed_forms(fresh)
