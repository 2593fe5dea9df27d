"""Property tests: histogram invariants and sampler mass conservation."""

import string

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.compression.kernels import build_column_views
from repro.sampling.rng import make_rng
from repro.sampling.row_samplers import (BernoulliSampler,
                                         WithoutReplacementSampler,
                                         WithReplacementSampler)
from repro.storage.index import key_order
from repro.storage.record import encode_record, join_records
from repro.storage.schema import Column, Schema
from repro.storage.types import BigIntType, CharType, IntegerType, VarCharType
from repro.core.cf_models import (ColumnHistogram, global_dictionary_cf,
                                  ns_cf, paged_dictionary_cf)

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
