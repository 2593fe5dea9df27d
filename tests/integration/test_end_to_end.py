"""Integration: full workflows a downstream user would run."""

import pytest

from repro import (BlockSampler, Index, IndexKind, NullSuppression, Query,
                   SampleCF, TableStats, get_algorithm, list_algorithms,
                   make_table, ratio_error, sample_cf, true_cf_table)
from repro.advisor import (CostModel, enumerate_candidates, plan_capacity,
                           select_indexes)
from repro.workloads.generators import make_multicolumn_table

PAGE = 1024


class TestFigure2Workflow:
    """The paper's pseudocode, run literally end to end."""

    def test_every_algorithm_estimates_every_layout(self):
        """Every algorithm runs through both index kinds.

        Accuracy at this tiny sample (r = 150) is only asserted loosely:
        dictionary-family and RLE estimators overestimate when ``d`` is
        comparable to ``r`` — exactly the hardness the paper traces to
        distinct-value estimation. Tight accuracy is asserted in the
        theorem tests, which run in the regimes the theorems cover.
        """
        table = make_table(n=3000, d=80, k=20, page_size=PAGE, seed=41)
        for name in list_algorithms():
            algorithm = get_algorithm(name)
            for kind in (IndexKind.CLUSTERED, IndexKind.NONCLUSTERED):
                estimator = SampleCF(algorithm, page_size=PAGE)
                estimate = estimator.estimate_table(
                    table, 0.05, ["a"], kind=kind, seed=43)
                truth = true_cf_table(table, ["a"], algorithm, kind=kind,
                                      page_size=PAGE)
                assert ratio_error(truth, estimate.estimate) < 10.0, \
                    (name, kind)
        # Null suppression is tight even at r = 150 (Theorem 1).
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        estimate = estimator.estimate_table(table, 0.05, ["a"], seed=43)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        assert ratio_error(truth, estimate.estimate) < 1.2

    def test_index_sampling_shortcut(self):
        table = make_table(n=3000, d=80, k=20, page_size=PAGE, seed=47)
        index = Index.over(table, ["a"], kind=IndexKind.CLUSTERED)
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        from_index = estimator.estimate_index(index, 0.1, seed=3)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        assert ratio_error(truth, from_index.estimate) < 1.2

    def test_block_sampling_workflow(self):
        table = make_table(n=3000, d=80, k=20, page_size=PAGE, seed=53,
                           order="shuffled")
        estimator = SampleCF(NullSuppression(), sampler=BlockSampler(),
                             page_size=PAGE)
        estimate = estimator.estimate_table(table, 0.05, ["a"], seed=3)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        assert ratio_error(truth, estimate.estimate) < 1.3

    def test_one_call_convenience(self):
        table = make_table(n=1000, d=50, k=20, page_size=PAGE, seed=59)
        value = sample_cf(table, 0.1, ["a"], "null_suppression", seed=61)
        assert 0 < value < 1.5


class TestAdvisorWorkflow:
    def test_full_design_loop(self):
        orders = make_multicolumn_table(
            "orders", 3000, [("status", 10, 5), ("customer", 24, 300)],
            page_size=PAGE, seed=67)
        tables = {"orders": orders}
        queries = [
            Query("by_status", "orders", ("status",), selectivity=0.3,
                  weight=8),
            Query("by_customer", "orders", ("customer",),
                  selectivity=0.02, weight=4),
        ]
        candidates = enumerate_candidates(tables, queries, fraction=0.05,
                                          seed=71)
        stats = {"orders": TableStats("orders", orders.num_rows,
                                      orders.heap.num_pages)}
        result = select_indexes(candidates, queries, stats,
                                storage_bound_bytes=120_000,
                                model=CostModel(page_size=PAGE))
        assert result.cost_after < result.cost_before
        assert result.bytes_used <= 120_000

    def test_estimated_vs_exact_decisions_agree(self):
        """SampleCF estimates should lead to the same design as exact
        sizes on this workload — the motivating property."""
        orders = make_multicolumn_table(
            "orders", 2000, [("status", 10, 5), ("customer", 24, 200)],
            page_size=PAGE, seed=73)
        tables = {"orders": orders}
        queries = [
            Query("q1", "orders", ("status",), selectivity=0.3, weight=8),
            Query("q2", "orders", ("customer",), selectivity=0.02,
                  weight=4),
        ]
        stats = {"orders": TableStats("orders", orders.num_rows,
                                      orders.heap.num_pages)}
        bound = 90_000
        chosen = {}
        for source in ("samplecf", "exact"):
            candidates = enumerate_candidates(
                tables, queries, fraction=0.1, size_source=source,
                seed=79)
            result = select_indexes(candidates, queries, stats, bound,
                                    CostModel(page_size=PAGE))
            chosen[source] = {(c.table, c.key_columns, c.compressed)
                              for c in result.chosen}
        assert chosen["samplecf"] == chosen["exact"]


class TestCapacityWorkflow:
    def test_plan_tracks_truth(self):
        table = make_table(n=4000, d=100, k=40, page_size=PAGE, seed=83)
        plan = plan_capacity([table], fraction=0.05, seed=89)
        truth = true_cf_table(table, ["a"], NullSuppression(),
                              page_size=PAGE)
        entry = plan.entries[0]
        assert ratio_error(truth, entry.estimated_cf) < 1.2
        assert entry.interval.contains(truth)
