"""Unit tests for repro.core.samplecf — the paper's estimator."""

import numpy as np
import pytest

from repro.errors import EstimationError, SamplingError
from repro.sampling.block import BlockSampler
from repro.sampling.row_samplers import WithoutReplacementSampler
from repro.storage.index import Index, IndexKind
from repro.storage.schema import single_char_schema
from repro.storage.table import Table
from repro.storage.types import CharType
from repro.compression.dictionary import DictionaryCompression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.core.cf_models import ColumnHistogram, ns_cf
from repro.core.samplecf import (SampleCF, SampleCFEstimate, sample_cf,
                                 true_cf_histogram, true_cf_table)

PAGE = 512


@pytest.fixture
def table(medium_table) -> Table:
    return medium_table


@pytest.fixture
def histogram() -> ColumnHistogram:
    values = [f"v{i:03d}" + "w" * (i % 11) for i in range(80)]
    counts = np.arange(1, 81) * 7
    return ColumnHistogram(CharType(20), values, counts)


class TestEstimateTable:
    def test_returns_sensible_estimate(self, table):
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        result = estimator.estimate_table(table, 0.05, ["a"], seed=1)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        assert isinstance(result, SampleCFEstimate)
        assert result.path == "storage"
        assert result.sample_rows == round(0.05 * table.num_rows)
        assert abs(result.estimate - truth) < 0.1

    def test_algorithm_by_name(self, table):
        estimator = SampleCF("null_suppression", page_size=PAGE)
        result = estimator.estimate_table(table, 0.05, ["a"], seed=1)
        assert result.algorithm == "null_suppression"

    def test_reproducible_with_seed(self, table):
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        first = estimator.estimate_table(table, 0.05, ["a"], seed=42)
        second = estimator.estimate_table(table, 0.05, ["a"], seed=42)
        assert first.estimate == second.estimate

    def test_different_seeds_differ(self, table):
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        estimates = {estimator.estimate_table(table, 0.02, ["a"],
                                              seed=s).estimate
                     for s in range(5)}
        assert len(estimates) > 1

    def test_empty_table_rejected(self):
        table = Table("empty", single_char_schema(8), page_size=PAGE)
        estimator = SampleCF(NullSuppression())
        with pytest.raises(EstimationError):
            estimator.estimate_table(table, 0.1, ["a"])

    def test_full_fraction_without_replacement_is_exact(self, table):
        estimator = SampleCF(NullSuppression(),
                             sampler=WithoutReplacementSampler(),
                             page_size=PAGE)
        result = estimator.estimate_table(table, 1.0, ["a"], seed=3)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        assert result.estimate == pytest.approx(truth)

    def test_nonclustered_kind(self, table):
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        result = estimator.estimate_table(
            table, 0.05, ["a"], kind=IndexKind.NONCLUSTERED, seed=1)
        assert result.estimate > 0
        # Non-clustered leaves carry key + 8-byte RID per entry.
        assert result.uncompressed_sample_bytes == \
            result.sample_rows * (20 + 8)

    def test_block_sampler_path(self, table):
        estimator = SampleCF(NullSuppression(), sampler=BlockSampler(),
                             page_size=PAGE)
        result = estimator.estimate_table(table, 0.05, ["a"], seed=1)
        assert result.path == "block"
        assert result.details["pages_sampled"] >= 1
        assert result.sample_rows >= round(0.05 * table.num_rows)

    def test_sample_distinct_tracked(self, table):
        estimator = SampleCF(GlobalDictionaryCompression(), page_size=PAGE)
        result = estimator.estimate_table(table, 0.10, ["a"], seed=1)
        assert 1 <= result.sample_distinct <= 100


class TestEstimateIndex:
    def test_matches_table_path_distribution(self, table):
        index = Index.over(table, ["a"], kind=IndexKind.CLUSTERED)
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        result = estimator.estimate_index(index, 0.1, seed=5)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        assert result.path == "index"
        assert abs(result.estimate - truth) < 0.1

    def test_block_sampling_over_leaves(self, table):
        index = Index.over(table, ["a"], kind=IndexKind.CLUSTERED)
        estimator = SampleCF(NullSuppression(), sampler=BlockSampler(),
                             page_size=PAGE)
        result = estimator.estimate_index(index, 0.1, seed=5)
        assert result.path == "index_block"
        assert result.details["pages_sampled"] >= 1

    def test_runs_on_the_engine_cache_and_store(self, table, tmp_path):
        """Repeated calls share one sample; a rebuilt index hits disk."""
        from repro.engine import EstimationEngine
        from repro.store import SampleStore

        def estimate(engine, index):
            return SampleCF(NullSuppression(), engine=engine) \
                .estimate_index(index, 0.1, seed=5)

        index = Index.over(table, ["a"], kind=IndexKind.CLUSTERED)
        engine = EstimationEngine(seed=0)
        first = estimate(engine, index)
        assert estimate(engine, index) == first
        assert engine.stats["samples_materialized"] == 1
        assert engine.stats["sample_cache_hits"] == 1
        assert estimate(EstimationEngine(seed=0, store=SampleStore(
            tmp_path)), index) == first
        rebuilt = Index.over(table, ["a"], kind=IndexKind.CLUSTERED)
        fresh = EstimationEngine(seed=0, store=SampleStore(tmp_path))
        assert estimate(fresh, rebuilt) == first
        assert fresh.stats["samples_materialized"] == 0
        assert fresh.stats["estimate_store_hits"] == 1

    def test_empty_index_rejected(self):
        index = Index("ix", single_char_schema(8), ["a"], page_size=PAGE)
        with pytest.raises(EstimationError):
            SampleCF(NullSuppression()).estimate_index(index, 0.1)


class TestEstimateHistogram:
    def test_ns_estimate_near_truth(self, histogram):
        estimator = SampleCF(NullSuppression())
        result = estimator.estimate_histogram(histogram, 0.2, seed=1)
        assert result.path == "histogram"
        assert abs(result.estimate - ns_cf(histogram)) < 0.05

    def test_sample_rows_respected(self, histogram):
        estimator = SampleCF(NullSuppression())
        result = estimator.estimate_histogram(histogram, 0.1, seed=1)
        assert result.sample_rows == round(0.1 * histogram.n)

    def test_block_sampler_rejected(self, histogram):
        estimator = SampleCF(NullSuppression(), sampler=BlockSampler())
        with pytest.raises(SamplingError):
            estimator.estimate_histogram(histogram, 0.1)

    def test_physical_accounting_rejected(self, histogram):
        estimator = SampleCF(NullSuppression(), accounting="physical")
        with pytest.raises(EstimationError):
            estimator.estimate_histogram(histogram, 0.1)

    def test_dictionary_estimate_formula(self, histogram):
        estimator = SampleCF(GlobalDictionaryCompression())
        result = estimator.estimate_histogram(histogram, 0.1, seed=4)
        expected = result.sample_distinct / result.sample_rows + 2 / 20
        assert result.estimate == pytest.approx(expected)

    def test_paged_dictionary_uses_page_size(self, histogram):
        small = SampleCF(DictionaryCompression(), page_size=256)
        large = SampleCF(DictionaryCompression(), page_size=8192)
        est_small = small.estimate_histogram(histogram, 0.5, seed=2)
        est_large = large.estimate_histogram(histogram, 0.5, seed=2)
        # Smaller pages -> more pages -> more dictionary copies.
        assert est_small.estimate >= est_large.estimate


class TestConvenienceAndTruth:
    def test_sample_cf_function(self, table):
        value = sample_cf(table, 0.05, ["a"], "null_suppression", seed=8)
        truth = true_cf_table(table, ["a"], "null_suppression")
        assert abs(value - truth) < 0.1

    def test_true_cf_table_accepts_names(self, table):
        assert true_cf_table(table, ["a"], "null_suppression") == \
            true_cf_table(table, ["a"], NullSuppression())

    def test_true_cf_histogram(self, histogram):
        truth = true_cf_histogram(histogram, "null_suppression")
        assert truth == pytest.approx(ns_cf(histogram))

    def test_zero_estimate_allowed(self):
        # A perfectly compressible sample (compressed bytes == 0) is a
        # legitimate CF-0 outcome, not an error.
        estimate = SampleCFEstimate(
            estimate=0.0, sample_rows=1, sampling_fraction=0.1,
            algorithm="x", accounting="payload", path="test",
            uncompressed_sample_bytes=1, compressed_sample_bytes=0)
        assert estimate.estimate == 0.0

    def test_negative_estimate_rejected(self):
        with pytest.raises(EstimationError):
            SampleCFEstimate(
                estimate=-0.1, sample_rows=1, sampling_fraction=0.1,
                algorithm="x", accounting="payload", path="test",
                uncompressed_sample_bytes=1, compressed_sample_bytes=0)
