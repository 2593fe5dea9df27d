"""Unit tests for the physical-design advisor (cost, candidates,
selection, capacity)."""

import pytest

from repro.errors import AdvisorError
from repro.workloads.generators import make_multicolumn_table, make_table
from repro.advisor.candidates import (CandidateIndex, enumerate_candidates,
                                      uncompressed_index_bytes)
from repro.advisor.capacity import plan_capacity
from repro.advisor.cost import (CostModel, Query, TableStats, covers,
                                stats_for_tables, workload_cost)
from repro.advisor.selection import (advise_from_data, design_summary,
                                     select_indexes)
from repro.advisor.whatif import WhatIfAdvisor
from repro.engine.requests import EstimationRequest
from repro.storage.index import Index, IndexKind
from repro.storage.schema import Schema
from repro.storage.table import Table

PAGE = 1024


@pytest.fixture(scope="module")
def tables():
    orders = make_multicolumn_table(
        "orders", 2000, [("status", 10, 5), ("customer", 24, 200)],
        page_size=PAGE, seed=5)
    parts = make_multicolumn_table(
        "parts", 1000, [("sku", 24, 100)], page_size=PAGE, seed=6)
    return {"orders": orders, "parts": parts}


@pytest.fixture(scope="module")
def stats(tables):
    return {name: TableStats(name, t.num_rows, t.heap.num_pages)
            for name, t in tables.items()}


@pytest.fixture(scope="module")
def queries():
    return [
        Query("q_status", "orders", ("status",), selectivity=0.2,
              weight=10),
        Query("q_customer", "orders", ("customer",), selectivity=0.05,
              weight=5),
        Query("q_sku", "parts", ("sku",), selectivity=0.1, weight=2),
    ]


class TestCostModel:
    def test_query_validation(self):
        with pytest.raises(AdvisorError):
            Query("q", "t", ())
        with pytest.raises(AdvisorError):
            Query("q", "t", ("a",), selectivity=0.0)
        with pytest.raises(AdvisorError):
            Query("q", "t", ("a",), weight=-1)

    def test_table_stats_validation(self):
        with pytest.raises(AdvisorError):
            TableStats("t", 0, 1)

    def test_covers(self):
        query = Query("q", "t", ("a", "b"))
        assert covers(("a", "b", "c"), query)
        assert covers(("b", "a"), query)
        assert not covers(("a",), query)

    def test_pages_for_bytes(self):
        model = CostModel(page_size=1000)
        assert model.pages_for_bytes(1) == 1
        assert model.pages_for_bytes(1000) == 1
        assert model.pages_for_bytes(1001) == 2

    def test_compressed_pays_cpu(self):
        model = CostModel(decompression_cpu_factor=0.5)
        query = Query("q", "t", ("a",), selectivity=1.0)
        plain = model.index_access_cost(query, 100, compressed=False)
        packed = model.index_access_cost(query, 100, compressed=True)
        assert packed == pytest.approx(plain * 1.5)

    def test_workload_cost_falls_back_to_scan(self, queries, stats):
        result = workload_cost(queries, stats, [], CostModel(PAGE))
        expected = sum(q.weight * stats[q.table].heap_pages
                       for q in queries)
        assert result.total == pytest.approx(expected)

    def test_workload_cost_uses_best_index(self, queries, stats):
        candidate = CandidateIndex(
            table="orders", key_columns=("status",), compressed=False,
            algorithm=None, size_bytes=4.0 * PAGE, size_source="schema")
        with_index = workload_cost(queries, stats, [candidate],
                                   CostModel(PAGE))
        without = workload_cost(queries, stats, [], CostModel(PAGE))
        assert with_index.total < without.total
        assert with_index.per_query["q_status"] < \
            without.per_query["q_status"]

    def test_unknown_table_rejected(self, stats):
        bad = Query("q", "ghost", ("a",))
        with pytest.raises(AdvisorError):
            workload_cost([bad], stats, [], CostModel(PAGE))


class TestCandidates:
    def test_uncompressed_bytes_formula(self, tables):
        table = tables["orders"]
        assert uncompressed_index_bytes(table, ["status"]) == \
            2000 * (10 + 8)
        assert uncompressed_index_bytes(table, ["status", "customer"]) \
            == 2000 * (10 + 24 + 8)

    def test_nonclustered_candidate_sizes(self, tables, queries):
        # The plain twin holds 2000 x (10 + 8) bytes; the compressed one
        # is its estimated CF times that size.
        plain, packed = enumerate_candidates(tables, queries[:1],
                                             fraction=0.05, seed=1)
        assert plain.size_bytes == 2000 * (10 + 8)
        assert 0 < packed.estimated_cf <= 1.5
        assert packed.size_bytes == pytest.approx(
            packed.estimated_cf * plain.size_bytes)

    def test_clustered_plain_size(self, tables):
        # A clustered leaf holds the whole row, whatever the key.
        assert uncompressed_index_bytes(
            tables["orders"], ["status"], IndexKind.CLUSTERED) == \
            2000 * (10 + 24)

    def test_enumeration_has_both_variants(self, tables, queries):
        candidates = enumerate_candidates(tables, queries,
                                          fraction=0.05, seed=1)
        assert len(candidates) == 2 * 3  # 3 key sets x 2 variants
        compressed = [c for c in candidates if c.compressed]
        assert all(c.estimated_cf is not None for c in compressed)
        assert all(0 < c.estimated_cf <= 1.5 for c in compressed)

    def test_compressed_smaller_than_plain(self, tables, queries):
        candidates = enumerate_candidates(tables, queries,
                                          fraction=0.05, seed=1)
        by_key = {}
        for candidate in candidates:
            by_key.setdefault(
                (candidate.table, candidate.key_columns), []).append(
                    candidate)
        for pair in by_key.values():
            plain = next(c for c in pair if not c.compressed)
            packed = next(c for c in pair if c.compressed)
            assert packed.size_bytes < plain.size_bytes

    def test_exact_source(self, tables, queries):
        candidates = enumerate_candidates(tables, queries,
                                          size_source="exact")
        compressed = [c for c in candidates if c.compressed]
        assert all(c.size_source == "exact" for c in compressed)

    def test_bad_source_rejected(self, tables, queries):
        with pytest.raises(AdvisorError):
            enumerate_candidates(tables, queries, size_source="vibes")

    def test_unknown_table_rejected(self, tables):
        ghost = Query("q", "ghost", ("a",))
        with pytest.raises(AdvisorError):
            enumerate_candidates(tables, [ghost])

    def test_candidate_name(self):
        candidate = CandidateIndex(
            table="t", key_columns=("a", "b"), compressed=True,
            algorithm="page", size_bytes=10.0, size_source="samplecf",
            estimated_cf=0.5)
        assert candidate.name == "ix_t_a_b__page"


def _layout_cases():
    orders = make_multicolumn_table(
        "orders", 300, [("status", 10, 5), ("customer", 24, 40)],
        page_size=PAGE, seed=5)
    mixed = Table.from_rows(
        "mixed", Schema.of(code="char(6)", qty="integer", total="bigint"),
        [(f"c{i % 7}", 3 * i - 50, -i ** 3) for i in range(200)],
        page_size=PAGE)
    return [(orders, ("status",)), (orders, ("customer", "status")),
            (mixed, ("qty",)), (mixed, ("total", "code"))]


class TestLeafLayout:
    """Every caller that sizes an index without building it reads the
    leaf layout the built index has."""

    @pytest.mark.parametrize("kind", list(IndexKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("case", range(4))
    def test_plain_size_matches_the_built_index(self, kind, case):
        table, columns = _layout_cases()[case]
        assert uncompressed_index_bytes(table, columns, kind) == \
            Index.over(table, columns, kind=kind).uncompressed_size()

    @pytest.mark.parametrize("kind", list(IndexKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("case", range(4))
    def test_prior_reads_the_index_leaf_schema(self, kind, case,
                                               monkeypatch):
        import repro.advisor.whatif as whatif

        table, columns = _layout_cases()[case]
        seen = []

        def capture(dtypes, *args):
            seen.append(list(dtypes))
            return whatif.TRIVIAL_CF_INTERVAL

        monkeypatch.setattr(whatif, "ns_prior_cf_interval", capture)
        monkeypatch.setattr(whatif, "dict_prior_cf_interval", capture)
        for algorithm in ("null_suppression", "dictionary"):
            whatif.prior_cf_interval(EstimationRequest(
                table=table, columns=columns, algorithm=algorithm,
                fraction=0.1, kind=kind, page_size=PAGE))
        leaf = Index(table.name, table.schema, columns, kind=kind)
        assert seen == [[column.dtype for column in leaf.leaf_schema]] * 2


class TestSelection:
    def test_respects_storage_bound(self, tables, queries, stats):
        candidates = enumerate_candidates(tables, queries,
                                          fraction=0.05, seed=2)
        bound = 50_000
        result = select_indexes(candidates, queries, stats, bound,
                                CostModel(PAGE))
        assert result.bytes_used <= bound
        assert sum(c.size_bytes for c in result.chosen) == \
            pytest.approx(result.bytes_used)

    def test_improves_cost(self, tables, queries, stats):
        candidates = enumerate_candidates(tables, queries,
                                          fraction=0.05, seed=2)
        result = select_indexes(candidates, queries, stats, 10**6,
                                CostModel(PAGE))
        assert result.cost_after <= result.cost_before
        assert result.improvement >= 0

    def test_tight_bound_prefers_compressed(self, tables, queries, stats):
        candidates = enumerate_candidates(tables, queries,
                                          fraction=0.05, seed=2)
        plain_status = next(c for c in candidates
                            if c.key_columns == ("status",)
                            and not c.compressed)
        # A bound below the uncompressed size forces the compressed pick.
        bound = plain_status.size_bytes * 0.9
        result = select_indexes(candidates, queries, stats, bound,
                                CostModel(PAGE))
        assert any(c.compressed for c in result.chosen)

    def test_zero_bound_rejected(self, tables, queries, stats):
        with pytest.raises(AdvisorError):
            select_indexes([], queries, stats, 0)

    def test_summary_readable(self, tables, queries, stats):
        candidates = enumerate_candidates(tables, queries,
                                          fraction=0.05, seed=2)
        result = select_indexes(candidates, queries, stats, 10**6,
                                CostModel(PAGE))
        text = design_summary(result)
        assert "storage bound" in text
        assert "workload cost" in text


class TestSelectionDeterminism:
    """Pins for the greedy loop's edge behaviour.

    The lazy what-if advisor replicates ``select_indexes``'s scan
    exactly, so its parity guarantees are only as strong as these
    pins: ties break toward the earlier candidate in input order, and
    a round with no strictly-positive improvement terminates the loop.
    """

    @staticmethod
    def _twin_setup():
        stats = {"t1": TableStats("t1", 1000, 100),
                 "t2": TableStats("t2", 1000, 100)}
        queries = [Query("q1", "t1", ("a",), selectivity=1.0, weight=1),
                   Query("q2", "t2", ("a",), selectivity=1.0, weight=1)]
        size = 4.0 * PAGE
        first = CandidateIndex(table="t1", key_columns=("a",),
                               compressed=False, algorithm=None,
                               size_bytes=size, size_source="schema")
        second = CandidateIndex(table="t2", key_columns=("a",),
                                compressed=False, algorithm=None,
                                size_bytes=size, size_source="schema")
        return stats, queries, first, second

    def test_capacity_constrained_tie_prefers_input_order(self):
        """Two equal-density candidates, room for one: first one wins."""
        stats, queries, first, second = self._twin_setup()
        bound = first.size_bytes  # exactly one fits
        result = select_indexes([first, second], queries, stats, bound,
                                CostModel(PAGE))
        assert result.chosen == (first,)
        flipped = select_indexes([second, first], queries, stats, bound,
                                 CostModel(PAGE))
        assert flipped.chosen == (second,)

    def test_tie_with_room_for_both_keeps_input_order(self):
        stats, queries, first, second = self._twin_setup()
        bound = 2 * first.size_bytes
        result = select_indexes([first, second], queries, stats, bound,
                                CostModel(PAGE))
        assert result.chosen == (first, second)

    def test_zero_improvement_leaves_design_empty(self):
        """Candidates that cover no query terminate the loop at once."""
        stats, queries, _, _ = self._twin_setup()
        useless = CandidateIndex(table="t1", key_columns=("b",),
                                 compressed=False, algorithm=None,
                                 size_bytes=PAGE, size_source="schema")
        result = select_indexes([useless], queries, stats, 10**6,
                                CostModel(PAGE))
        assert result.chosen == ()
        assert result.steps == ()
        assert result.cost_after == result.cost_before
        assert result.improvement == 0

    def test_index_worse_than_scan_never_chosen(self):
        """An index costing more pages than the heap is zero gain."""
        stats = {"t1": TableStats("t1", 1000, 10)}
        queries = [Query("q1", "t1", ("a",), selectivity=1.0, weight=1)]
        fat = CandidateIndex(table="t1", key_columns=("a",),
                             compressed=False, algorithm=None,
                             size_bytes=100.0 * PAGE,
                             size_source="schema")
        result = select_indexes([fat], queries, stats, 10**9,
                                CostModel(PAGE))
        assert result.chosen == ()
        assert result.cost_after == result.cost_before

    def test_candidate_gain_matches_selection_arithmetic(self):
        from repro.advisor.selection import candidate_gain
        from repro.advisor.cost import workload_cost

        stats, queries, first, _ = self._twin_setup()
        model = CostModel(PAGE)
        current = workload_cost(queries, stats, [], model).total
        reduction, total = candidate_gain(first, queries, stats, [],
                                          model, current)
        assert total == workload_cost(queries, stats, [first],
                                      model).total
        assert reduction == current - total

    def test_candidate_gain_monotone_in_size(self):
        """The monotonicity the what-if density bounds rely on."""
        from repro.advisor.selection import candidate_gain
        from repro.advisor.cost import workload_cost

        stats, queries, first, _ = self._twin_setup()
        model = CostModel(PAGE)
        current = workload_cost(queries, stats, [], model).total
        previous = float("inf")
        for pages in (1, 2, 4, 8, 50, 200):
            sized = CandidateIndex(
                table="t1", key_columns=("a",), compressed=False,
                algorithm=None, size_bytes=float(pages * PAGE),
                size_source="schema")
            reduction, _ = candidate_gain(sized, queries, stats, [],
                                          model, current)
            assert reduction <= previous
            previous = reduction


class TestEngineBackedPath:
    def test_stats_for_tables(self, tables):
        stats = stats_for_tables(tables)
        assert set(stats) == set(tables)
        for name, table in tables.items():
            assert stats[name].rows == table.num_rows
            assert stats[name].heap_pages == table.heap.num_pages

    def test_batch_enumeration_shape(self, tables, queries):
        algorithms = ["null_suppression", "page"]
        candidates = WhatIfAdvisor(
            tables, queries, algorithms=algorithms, fraction=0.05,
            seed=2).candidates()
        # 3 key sets -> 1 uncompressed + 2 compressed each.
        assert len(candidates) == 3 * (1 + len(algorithms))
        compressed = [c for c in candidates if c.compressed]
        assert all(c.size_source == "engine" for c in compressed)
        assert all(c.estimated_cf is not None and c.estimated_cf > 0
                   for c in compressed)

    def test_batch_enumeration_shares_samples(self, tables, queries):
        from repro.engine import EstimationEngine

        engine = EstimationEngine(seed=2)
        WhatIfAdvisor(
            tables, queries, algorithms=["null_suppression", "page"],
            fraction=0.05, engine=engine).candidates()
        # One sample per table, reused by every candidate over it.
        assert engine.stats["samples_materialized"] == len(tables)
        assert engine.stats["index_reuse_hits"] >= 3

    def test_batch_enumeration_reproducible(self, tables, queries):
        one = WhatIfAdvisor(
            tables, queries, algorithms=["null_suppression"],
            fraction=0.05, seed=9).candidates()
        two = WhatIfAdvisor(
            tables, queries, algorithms=["null_suppression"],
            fraction=0.05, seed=9).candidates()
        assert [(c.name, c.size_bytes) for c in one] == \
            [(c.name, c.size_bytes) for c in two]

    def test_batch_enumeration_needs_algorithms(self, tables, queries):
        with pytest.raises(AdvisorError):
            WhatIfAdvisor(tables, queries, algorithms=[])

    def test_engine_and_seed_together_rejected(self, tables, queries):
        from repro.engine import EstimationEngine

        with pytest.raises(AdvisorError):
            WhatIfAdvisor(
                tables, queries, engine=EstimationEngine(seed=1), seed=5)

    def test_advise_from_data_end_to_end(self, tables, queries):
        result = advise_from_data(
            tables, queries, storage_bound_bytes=150_000,
            algorithms=["null_suppression", "page"], fraction=0.05,
            trials=2, model=CostModel(PAGE), seed=4)
        assert result.cost_after <= result.cost_before
        assert result.bytes_used <= result.storage_bound_bytes
        assert all(c.size_bytes <= 150_000 for c in result.chosen)

    def test_advise_from_data_close_to_exact_sizes(self, tables, queries):
        """Engine-estimated NS designs match the oracle design."""
        estimated = advise_from_data(
            tables, queries, storage_bound_bytes=200_000,
            algorithms=["null_suppression"], fraction=0.1, trials=3,
            model=CostModel(PAGE), seed=4)
        exact_candidates = enumerate_candidates(
            tables, queries, algorithm="null_suppression",
            size_source="exact")
        oracle = select_indexes(
            exact_candidates, queries, stats_for_tables(tables),
            200_000, CostModel(PAGE))
        design = {(c.table, c.key_columns, c.compressed)
                  for c in estimated.chosen}
        oracle_design = {(c.table, c.key_columns, c.compressed)
                         for c in oracle.chosen}
        assert design == oracle_design


class TestCapacity:
    def test_plan_totals(self, tables):
        plan = plan_capacity(list(tables.values()), fraction=0.05, seed=3)
        assert len(plan.entries) == 2
        assert plan.total_compressed_bytes < plan.total_uncompressed_bytes
        assert plan.total_high_bytes >= plan.total_compressed_bytes

    def test_ns_entries_have_intervals(self, tables):
        plan = plan_capacity(list(tables.values()), fraction=0.05, seed=3)
        assert all(entry.interval is not None for entry in plan.entries)

    def test_other_algorithms_no_interval(self, tables):
        plan = plan_capacity(list(tables.values()), algorithm="dictionary",
                             fraction=0.05, seed=3)
        assert all(entry.interval is None for entry in plan.entries)

    def test_describe(self, tables):
        plan = plan_capacity(list(tables.values()), fraction=0.05, seed=3)
        text = plan.describe()
        assert "TOTAL" in text
        assert "orders" in text

    def test_empty_rejected(self):
        with pytest.raises(AdvisorError):
            plan_capacity([])

    def test_variable_width_rejected_before_sampling(self, tables,
                                                     monkeypatch):
        from repro.engine.engine import EstimationEngine
        from repro.storage.schema import Column, Schema
        from repro.storage.table import Table
        from repro.storage.types import VarCharType

        notes = Table.from_rows(
            "notes", Schema([Column("note", VarCharType(30))]),
            [("short",), ("a longer note",)], page_size=PAGE)

        def execute(*args, **kwargs):
            pytest.fail("plan_capacity sampled before checking widths")

        monkeypatch.setattr(EstimationEngine, "execute", execute)
        with pytest.raises(AdvisorError, match="'notes'"):
            plan_capacity([*tables.values(), notes], seed=3)
