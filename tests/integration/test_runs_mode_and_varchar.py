"""Integration: the run-based NS variant and VARCHAR columns.

The run variant is Figure 1.a's general form — it must beat trailing NS
exactly on the zero-padded-identifier workloads that motivate it, agree
with its closed form on the engine, and stay estimable by SampleCF.
VARCHAR columns exercise the variable-width record paths end to end.
"""

import pytest

from repro.storage.index import Index, IndexKind
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import VarCharType
from repro.compression.null_suppression import NullSuppression
from repro.core.cf_models import ColumnHistogram, ns_cf
from repro.core.samplecf import SampleCF, true_cf_table
from repro.workloads.generators import histogram_to_table
from repro.workloads.scenarios import get_scenario

PAGE = 1024


class TestRunsModeOnZeroPaddedIds:
    @pytest.fixture(scope="class")
    def histogram(self):
        return get_scenario("zero_padded_ids").build(5000, seed=3)

    def test_runs_beats_trailing(self, histogram):
        trailing = ns_cf(histogram, mode="trailing")
        runs = ns_cf(histogram, mode="runs")
        assert runs < trailing
        # Zero-padded ids barely shrink under trailing NS.
        assert trailing > 0.6
        assert runs < 0.5

    def test_model_equals_engine_runs_mode(self, histogram):
        table = histogram_to_table(histogram, page_size=PAGE, seed=4)
        algorithm = NullSuppression(mode="runs")
        engine = true_cf_table(table, ["a"], algorithm, page_size=PAGE)
        model = ns_cf(histogram, mode="runs")
        assert engine == pytest.approx(model, abs=1e-12)

    def test_samplecf_estimates_runs_mode(self, histogram):
        estimator = SampleCF(NullSuppression(mode="runs"))
        truth = ns_cf(histogram, mode="runs")
        estimate = estimator.estimate_histogram(histogram, 0.05, seed=5)
        assert abs(estimate.estimate - truth) < 0.05

    def test_theorem1_bound_applies_to_runs_mode(self, histogram):
        """Theorem 1's argument only needs bounded per-tuple fractions,
        so the run variant obeys the same sigma bound."""
        import numpy as np

        from repro.core.bounds import ns_stddev_bound

        estimator = SampleCF(NullSuppression(mode="runs"))
        estimates = np.array([
            estimator.estimate_histogram(histogram, 0.02,
                                         seed=s).estimate
            for s in range(100)])
        assert estimates.std(ddof=1) <= \
            ns_stddev_bound(n=histogram.n, f=0.02)


class TestVarCharEndToEnd:
    @pytest.fixture(scope="class")
    def table(self):
        schema = Schema([Column("note", VarCharType(40))])
        values = [f"note {i % 37}: {'x' * (i % 37 % 23)}"
                  for i in range(800)]
        return Table.from_rows("notes", schema,
                               [(v,) for v in values], page_size=PAGE)

    def test_variable_records_roundtrip_through_heap(self, table):
        rows = list(table.rows())
        assert len(rows) == 800
        assert rows[5] == ("note 5: xxxxx",)

    def test_index_and_compress(self, table):
        index = Index.over(table, ["note"], kind=IndexKind.CLUSTERED)
        result = index.estimate_compression(NullSuppression())
        # VARCHAR is already minimal: NS is the identity, CF == 1.
        assert result.compression_fraction == pytest.approx(1.0)

    def test_dictionary_still_compresses_varchar(self, table):
        from repro.compression.dictionary import DictionaryCompression

        truth = true_cf_table(table, ["note"], DictionaryCompression(),
                              page_size=PAGE)
        assert truth < 1.0  # 37 distinct notes repeat heavily

    def test_histogram_model_supports_varchar(self):
        dtype = VarCharType(30)
        histogram = ColumnHistogram(dtype, ["ab", "a much longer note"],
                                    [10, 5])
        value = ns_cf(histogram)
        assert value == pytest.approx(1.0)  # identity for VARCHAR

    def test_samplecf_on_varchar_histogram(self):
        dtype = VarCharType(30)
        histogram = ColumnHistogram(
            dtype, [f"v{i}" + "y" * (i % 9) for i in range(40)],
            [25] * 40)
        estimator = SampleCF(NullSuppression())
        estimate = estimator.estimate_histogram(histogram, 0.2, seed=9)
        assert estimate.estimate == pytest.approx(1.0)
