"""Unit tests for repro.core.cf_models."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.sampling.rng import make_rng
from repro.sampling.row_samplers import WithoutReplacementSampler
from repro.storage.page import records_per_page
from repro.storage.types import CharType, IntegerType
from repro.workloads.generators import make_histogram
from repro.core.cf_models import (ColumnHistogram,
                                  expected_distinct_in_sample,
                                  global_dictionary_cf,
                                  layout_rows_per_page, ns_cf,
                                  paged_dictionary_cf, paged_rle_cf,
                                  pages_spanned)


@pytest.fixture
def char8() -> CharType:
    return CharType(8)


class TestColumnHistogram:
    def test_from_values(self, char8):
        histogram = ColumnHistogram.from_values(
            char8, ["a", "b", "a", "c", "a"])
        assert histogram.n == 5
        assert histogram.d == 3
        assert dict(zip(histogram.values, histogram.counts))["a"] == 3

    def test_from_counts_mapping(self, char8):
        histogram = ColumnHistogram.from_counts(char8, {"x": 2, "y": 5})
        assert histogram.n == 7
        assert histogram.d == 2

    def test_from_counts_pairs(self, char8):
        histogram = ColumnHistogram.from_counts(char8, [("x", 1), ("y", 2)])
        assert histogram.n == 3

    def test_empty_rejected(self, char8):
        with pytest.raises(EstimationError):
            ColumnHistogram.from_values(char8, [])
        with pytest.raises(EstimationError):
            ColumnHistogram(char8, [], [])

    def test_duplicates_rejected(self, char8):
        with pytest.raises(EstimationError):
            ColumnHistogram(char8, ["a", "a"], [1, 2])

    def test_nonpositive_counts_rejected(self, char8):
        with pytest.raises(EstimationError):
            ColumnHistogram(char8, ["a"], [0])

    def test_invalid_value_rejected(self, char8):
        with pytest.raises(Exception):
            ColumnHistogram(char8, ["way too long for char8"], [1])

    def test_with_counts_drops_zeros(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b", "c"], [5, 5, 5])
        sample = histogram.with_counts([2, 0, 1])
        assert sample.values == ("a", "c")
        assert sample.n == 3

    def test_with_counts_wrong_length(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [1])
        with pytest.raises(EstimationError):
            histogram.with_counts([1, 2])

    def test_with_counts_all_zero_rejected(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [1])
        with pytest.raises(EstimationError):
            histogram.with_counts([0])

    def test_with_counts_negative_rejected(self, char8):
        # Counts the constructor rejects must not vanish with the zeros.
        histogram = ColumnHistogram(char8, ["a", "b", "c"], [5, 5, 5])
        with pytest.raises(EstimationError, match="negative"):
            histogram.with_counts([-3, 2, 0])

    def test_frequency_of_frequencies(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b", "c", "d"],
                                    [1, 1, 2, 5])
        assert histogram.frequency_of_frequencies() == {1: 2, 2: 1, 5: 1}

    def test_total_bytes_char(self, char8):
        histogram = ColumnHistogram(char8, ["a", "bb"], [3, 2])
        assert histogram.total_bytes == 5 * 8

    def test_ns_stored_sizes(self, char8):
        histogram = ColumnHistogram(char8, ["a", "bbb"], [1, 1])
        assert histogram.ns_stored_sizes().tolist() == [2, 4]

    def test_sorted_by_value(self, char8):
        histogram = ColumnHistogram(char8, ["c", "a", "b"], [1, 2, 3])
        ordered = histogram.sorted_by_value()
        assert ordered.values == ("a", "b", "c")
        assert ordered.counts.tolist() == [2, 3, 1]

    def test_sorted_cached(self, char8):
        histogram = ColumnHistogram(char8, ["b", "a"], [1, 1])
        assert histogram.sorted_by_value() is histogram.sorted_by_value()

    def test_expand_sorted(self, char8):
        histogram = ColumnHistogram(char8, ["b", "a"], [2, 1])
        assert histogram.expand("sorted") == ["a", "b", "b"]

    def test_expand_shuffled_same_multiset(self, char8):
        histogram = ColumnHistogram(char8, ["b", "a"], [2, 3])
        shuffled = histogram.expand("shuffled", seed=1)
        assert sorted(shuffled) == ["a", "a", "a", "b", "b"]

    def test_expand_bad_order(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [1])
        with pytest.raises(EstimationError):
            histogram.expand("sideways")
        with pytest.raises(EstimationError):
            histogram.expand_codes("sideways")

    def test_expand_codes_index_the_sorted_values(self, char8):
        """Codes reproduce the permutation a value-by-value expansion
        with the same seed's ``permutation`` gives."""
        histogram = ColumnHistogram(char8, ["b", "a", "c"], [2, 3, 1])
        values = histogram.sorted_by_value().values
        sorted_rows = ["a", "a", "a", "b", "b", "c"]
        assert [values[code] for code in histogram.expand_codes()] == \
            sorted_rows
        permutation = np.random.default_rng(4).permutation(6)
        assert [values[code] for code in
                histogram.expand_codes("shuffled", seed=4)] == \
            [sorted_rows[i] for i in permutation]
        assert histogram.expand("shuffled", seed=4) == \
            [sorted_rows[i] for i in permutation]

    def test_integer_histogram(self):
        histogram = ColumnHistogram(IntegerType(), [5, -1, 300], [1, 2, 3])
        assert histogram.total_bytes == 6 * 4
        ordered = histogram.sorted_by_value()
        assert ordered.values == (-1, 5, 300)


class TestNsCF:
    def test_formula(self, char8):
        histogram = ColumnHistogram(char8, ["a", "bbb"], [3, 1])
        expected = (3 * (1 + 1) + 1 * (3 + 1)) / (4 * 8)
        assert ns_cf(histogram) == pytest.approx(expected)

    def test_full_width_values_give_cf_above_one_numerator(self, char8):
        histogram = ColumnHistogram(char8, ["x" * 8], [10])
        # Full-width values plus length header: CF slightly above 1.
        assert ns_cf(histogram) == pytest.approx(9 / 8)


class TestGlobalDictionaryCF:
    def test_paper_formula(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b"], [50, 50])
        assert global_dictionary_cf(histogram, pointer_bytes=2) == \
            pytest.approx(2 / 100 + 2 / 8)

    def test_derived_pointer(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b"], [50, 50])
        assert global_dictionary_cf(histogram, pointer_bytes=None) == \
            pytest.approx(2 / 100 + 1 / 8)

    def test_ns_entries(self, char8):
        histogram = ColumnHistogram(char8, ["a", "bb"], [1, 1])
        value = global_dictionary_cf(histogram, pointer_bytes=2,
                                     entry_storage="null_suppressed")
        assert value == pytest.approx(((2 + 3) + 2 * 2) / 16)


class TestPagedModels:
    def test_pages_spanned_basic(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b"], [10, 10])
        spans = pages_spanned(histogram, rows_per_page=10)
        assert spans.tolist() == [1, 1]

    def test_pages_spanned_straddling(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b"], [15, 5])
        spans = pages_spanned(histogram, rows_per_page=10)
        assert spans.tolist() == [2, 1]

    def test_pages_spanned_heavy_value(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [95])
        assert pages_spanned(histogram, 10).tolist() == [10]

    def test_pages_spanned_bad_rows(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [5])
        with pytest.raises(EstimationError):
            pages_spanned(histogram, 0)

    def test_layout_rows_per_page_default_record(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [5])
        assert layout_rows_per_page(histogram, page_size=256) == \
            records_per_page(256, 8)

    def test_layout_rows_per_page_override(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [5])
        assert layout_rows_per_page(histogram, page_size=256,
                                    record_bytes=16) == \
            records_per_page(256, 16)

    def test_paged_dictionary_cf_exceeds_global(self, char8):
        values = [f"v{i}" for i in range(20)]
        histogram = ColumnHistogram(char8, values, [50] * 20)
        paged = paged_dictionary_cf(histogram, page_size=256)
        simple = global_dictionary_cf(histogram)
        assert paged >= simple  # paging stores entries once per page

    def test_paged_dictionary_requires_fixed_pointer(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [5])
        with pytest.raises(EstimationError):
            paged_dictionary_cf(histogram, pointer_bytes=None)

    def test_paged_rle_cf(self, char8):
        histogram = ColumnHistogram(char8, ["aa", "bb"], [100, 100])
        value = paged_rle_cf(histogram, page_size=256)
        rows = records_per_page(256, 8)
        spans = pages_spanned(histogram, rows)
        expected = (int(spans.sum()) * (4 + 1 + 2)) / (200 * 8)
        assert value == pytest.approx(expected)


class TestExpectedDistinct:
    def test_full_sample_sees_everything(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b", "c"], [5, 5, 5])
        expected = expected_distinct_in_sample(histogram, 10**6)
        assert expected == pytest.approx(3.0, abs=1e-6)

    def test_small_sample_sees_less(self, char8):
        histogram = ColumnHistogram(char8, [f"v{i}" for i in range(100)],
                                    [1] * 100)
        expected = expected_distinct_in_sample(histogram, 10)
        assert 9 < expected < 11  # ~r draws over n=100 singletons

    def test_without_replacement(self, char8):
        histogram = ColumnHistogram(char8, ["a", "b"], [50, 50])
        expected = expected_distinct_in_sample(histogram, 100,
                                               with_replacement=False)
        assert expected == pytest.approx(2.0, abs=1e-9)

    def test_without_replacement_oversample_rejected(self, char8):
        histogram = ColumnHistogram(char8, ["a"], [5])
        with pytest.raises(EstimationError):
            expected_distinct_in_sample(histogram, 6,
                                        with_replacement=False)

    def test_monte_carlo_agreement(self, char8):
        from repro.sampling.row_samplers import WithReplacementSampler
        from repro.sampling.rng import make_rng

        values = [f"v{i}" for i in range(50)]
        counts = np.arange(1, 51)
        histogram = ColumnHistogram(char8, values, counts)
        analytic = expected_distinct_in_sample(histogram, 100)
        sampler = WithReplacementSampler()
        rng = make_rng(5)
        observed = np.mean([
            sampler.sample_histogram(histogram, 100, rng).d
            for _ in range(300)])
        assert observed == pytest.approx(analytic, rel=0.05)


def closed_forms(histogram):
    return (ns_cf(histogram), ns_cf(histogram, "runs"),
            global_dictionary_cf(histogram),
            global_dictionary_cf(histogram, entry_storage="null_suppressed"),
            paged_dictionary_cf(histogram, page_size=256),
            paged_rle_cf(histogram, page_size=256), histogram.total_bytes)


class TestSharedSizes:
    """A histogram sizes its values once; derived ones gather."""

    def test_construction_sizes_nothing(self, char8, monkeypatch):
        histogram = ColumnHistogram(char8, ["b", "a", "c"], [2, 3, 1])

        def refuse(value):
            raise AssertionError("encoded a value")

        monkeypatch.setattr(char8, "encode", refuse)
        # What table set-ups read needs no size.
        assert histogram.sorted_by_value().values == ("a", "b", "c")
        assert histogram.expand_codes().tolist() == [0, 0, 0, 1, 1, 2]
        with pytest.raises(AssertionError, match="encoded a value"):
            ns_cf(histogram)

    def test_samples_validate_and_size_nothing(self, char8, monkeypatch):
        values = [f"v{i}" for i in range(60)]
        parent = ColumnHistogram(char8, values, np.arange(1, 61))
        closed_forms(parent)

        def refuse(value):
            raise AssertionError("validated a value")

        monkeypatch.setattr(char8, "validate", refuse)
        sample = WithoutReplacementSampler().sample_histogram(
            parent, 200, make_rng(4))
        resample = sample.with_counts(np.minimum(sample.counts, 1))
        derived = (sample, resample, resample.sorted_by_value())
        cfs = [closed_forms(histogram) for histogram in derived]
        monkeypatch.undo()
        assert [closed_forms(ColumnHistogram(char8, histogram.values,
                                             histogram.counts))
                for histogram in derived] == cfs

    def test_threads_size_one_fresh_parent(self):
        def parent():
            return make_histogram(20_000, 3_000, 20, seed=8)

        def estimates(histogram):
            sampler = WithoutReplacementSampler()
            return [closed_forms(sampler.sample_histogram(
                histogram, 500, make_rng(seed))) for seed in range(6)]

        serial = estimates(parent())
        shared = parent()
        results, errors = {}, []
        barrier = threading.Barrier(8, timeout=30)

        def worker(number):
            try:
                barrier.wait()
                results[number] = estimates(shared)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(number,),
                                        daemon=True)
                       for number in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert results == {number: serial for number in range(8)}
