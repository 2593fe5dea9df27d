"""Deterministic regressions for the lazy what-if advisor.

The contract under test: for a fixed seed the lazy advisor's selected
design — candidates, sizes, step log, costs — is *bit-identical* to the
eager :func:`advise_from_data`, while spending strictly fewer engine
units; pruning and early stopping change trial counts only, never the
winner; and the ``whatif_*`` engine counters reconcile exactly with the
units that actually ran.
"""

import pytest

from repro.errors import AdvisorError
from repro.workloads.generators import make_multicolumn_table
from repro.storage.index import IndexKind
from repro.compression.registry import get_algorithm
from repro.core.bounds import CFInterval
from repro.core.samplecf import true_cf_table
from repro.engine import EstimationEngine, EstimationRequest
from repro.advisor import (CandidateIndex, CostModel, Query,
                           WhatIfAdvisor, advise_from_data,
                           select_indexes, stats_for_tables)

PAGE = 1024
SEED = 41
FRACTION = 0.1
TRIALS = 4
ALGORITHMS = ["null_suppression", "dictionary", "global_dictionary",
              "rle"]
BOUNDS = (40_000, 120_000, 400_000)


def build_tables():
    return {
        "orders": make_multicolumn_table(
            "orders", 1500, [("status", 10, 5), ("customer", 24, 200)],
            page_size=PAGE, seed=15),
        "parts": make_multicolumn_table(
            "parts", 900, [("sku", 24, 100), ("brand", 16, 12)],
            page_size=PAGE, seed=16),
    }


@pytest.fixture(scope="module")
def tables():
    return build_tables()


@pytest.fixture(scope="module")
def queries():
    return [
        Query("q_status", "orders", ("status",), selectivity=0.2,
              weight=10),
        Query("q_customer", "orders", ("customer",), selectivity=0.05,
              weight=5),
        Query("q_sku", "parts", ("sku",), selectivity=0.1, weight=4),
        Query("q_brand", "parts", ("brand",), selectivity=0.3, weight=2),
    ]


def run_eager(tables, queries, bound):
    return advise_from_data(
        tables, queries, bound, algorithms=ALGORITHMS,
        fraction=FRACTION, trials=TRIALS, model=CostModel(PAGE),
        seed=SEED)


def make_advisor(tables, queries, **kwargs):
    options = dict(algorithms=ALGORITHMS, fraction=FRACTION,
                   max_trials=TRIALS, model=CostModel(PAGE),
                   engine=EstimationEngine(seed=SEED))
    options.update(kwargs)
    return WhatIfAdvisor(tables, queries, **options)


def assert_identical(eager, lazy):
    """Full bit-identity of the advisor outcome (not just the design)."""
    assert lazy.chosen == eager.chosen
    assert lazy.steps == eager.steps
    assert lazy.bytes_used == eager.bytes_used
    assert lazy.cost_before == eager.cost_before
    assert lazy.cost_after == eager.cost_after


class TestSelectionParity:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_bit_identical_to_eager(self, tables, queries, bound):
        eager = run_eager(tables, queries, bound)
        lazy = make_advisor(tables, queries).advise(bound)
        assert_identical(eager, lazy)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_spends_fewer_units(self, tables, queries, bound):
        lazy = make_advisor(tables, queries).advise(bound)
        report = lazy.report
        assert report.units_executed <= report.units_eager
        assert report.units_saved == \
            report.units_eager - report.units_executed
        # The winner of every round ran the full budget.
        for candidate in lazy.chosen:
            if candidate.compressed:
                assert report.trials_by_candidate[candidate.name] == \
                    TRIALS

    def test_early_stop_changes_trial_counts_only(self, tables, queries):
        """Adaptive allocation may move units around, never the design."""
        bound = BOUNDS[0]
        adaptive = make_advisor(tables, queries).advise(bound)
        straight = make_advisor(tables, queries,
                                adaptive=False).advise(bound)
        assert_identical(adaptive, straight)
        assert adaptive.report.units_executed <= \
            straight.report.units_executed

    def test_no_prune_still_identical(self, tables, queries):
        bound = BOUNDS[1]
        eager = run_eager(tables, queries, bound)
        lazy = make_advisor(tables, queries, prune=False).advise(bound)
        assert_identical(eager, lazy)
        assert not [event for event in lazy.report.prune_events
                    if event.reason == "bound"]

    def test_deterministic_bounds_only_identical(self, tables, queries):
        bound = BOUNDS[0]
        eager = run_eager(tables, queries, bound)
        lazy = make_advisor(tables, queries,
                            use_probabilistic=False).advise(bound)
        assert_identical(eager, lazy)
        for event in lazy.report.prune_events:
            assert event.deterministic

    def test_repeat_advise_reuses_estimates(self, tables, queries):
        advisor = make_advisor(tables, queries)
        first = advisor.advise(BOUNDS[1])
        again = advisor.advise(BOUNDS[1])
        assert_identical(first, again)
        # Everything needed was already estimated: no new units.
        assert again.report.units_executed == 0


class TestStoreWarmStart:
    def test_bit_identical_with_warm_store(self, queries, tmp_path):
        store_dir = tmp_path / "store"
        results = []
        for _ in range(2):
            # Tables rebuild each run: warm starts must come from
            # content, not object identity.
            advisor = make_advisor(
                build_tables(), queries,
                engine=EstimationEngine(seed=SEED, store=str(store_dir)))
            results.append((advisor.advise(BOUNDS[0]),
                            advisor.engine.stats.snapshot()))
        (cold, cold_stats), (warm, warm_stats) = results
        assert_identical(cold, warm)
        assert warm_stats["samples_materialized"] == 0
        assert warm_stats["estimate_store_hits"] > 0

    def test_eager_store_warms_lazy(self, queries, tmp_path):
        """Per-trial estimate keys line up across the two paths."""
        store_dir = tmp_path / "store"
        tables = build_tables()
        eager = advise_from_data(
            tables, queries, BOUNDS[0], algorithms=ALGORITHMS,
            fraction=FRACTION, trials=TRIALS, model=CostModel(PAGE),
            engine=EstimationEngine(seed=SEED, store=str(store_dir)))
        advisor = make_advisor(
            build_tables(), queries,
            engine=EstimationEngine(seed=SEED, store=str(store_dir)))
        lazy = advisor.advise(BOUNDS[0])
        assert_identical(eager, lazy)
        stats = advisor.engine.stats.snapshot()
        assert stats["samples_materialized"] == 0
        assert stats["estimate_store_hits"] == \
            lazy.report.units_executed


class TestCounters:
    def test_counters_reconcile_with_units_run(self, tables, queries):
        advisor = make_advisor(tables, queries)
        lazy = advisor.advise(BOUNDS[0])
        stats = advisor.engine.stats.snapshot()
        report = lazy.report
        compressed = report.compressed_candidates
        # Engine trial units actually executed == the report's spend.
        assert stats["trials"] == report.units_executed
        assert stats["trials"] == \
            compressed * TRIALS - stats["whatif_trials_saved"]
        assert stats["whatif_early_stops"] == report.early_stopped
        assert stats["whatif_rounds"] == report.rounds
        assert stats["whatif_pruned"] == len(report.prune_events)
        # Per-candidate allocations sum to the spend and never exceed
        # the budget.
        assert sum(report.trials_by_candidate.values()) == \
            report.units_executed
        assert all(0 <= t <= TRIALS
                   for t in report.trials_by_candidate.values())

    def test_candidates_after_advise_runs_only_the_saved_units(
            self, tables, queries):
        """Eager sizing resumes a lazy run: it pays exactly the units
        ``advise`` saved, and a second call pays none."""
        advisor = make_advisor(tables, queries)
        report = advisor.advise(BOUNDS[0]).report
        assert report.units_saved > 0
        before = advisor.engine.stats["trials"]
        candidates = advisor.candidates()
        ran = advisor.engine.stats["trials"] - before
        assert ran == report.units_eager - report.units_executed
        assert advisor.candidates() == candidates
        assert advisor.engine.stats["trials"] - before == ran
        assert candidates == make_advisor(tables, queries).candidates()

    def test_budget_prune_skips_estimation_entirely(self, queries,
                                                    tables):
        """A bound below every index size prunes without any units.

        Restricted to algorithms with deterministic priors: a
        trivial-prior codec (rle, page) admits a zero lower size bound,
        so only an estimate can prove it infeasible.
        """
        advisor = make_advisor(
            tables, queries,
            algorithms=["null_suppression", "dictionary",
                        "global_dictionary"])
        result = advisor.advise(10.0)
        assert result.chosen == ()
        assert result.report.units_executed == 0
        assert result.report.pruned_never_estimated == \
            result.report.compressed_candidates
        reasons = {event.reason
                   for event in result.report.prune_events}
        assert reasons == {"budget"}


class TestPruningSoundness:
    def test_prior_intervals_contain_every_trial(self, tables, queries):
        """The deterministic envelopes hold for real codec estimates."""
        advisor = make_advisor(tables, queries)
        engine = EstimationEngine(seed=SEED)
        for state in advisor.states:
            if not state.compressed or state.prior.high == float("inf"):
                continue
            batch = engine.execute([state.request])
            for estimate in batch.results[0].estimates:
                assert state.prior.contains(estimate.estimate), (
                    f"{state.name}: {estimate.estimate} outside "
                    f"[{state.prior.low}, {state.prior.high}]")

    def test_prior_intervals_contain_exact_cf(self, tables, queries):
        """Deterministic envelopes bound the exact CF, not just samples.

        This is what makes a zero-trial prune safe against the truth:
        a candidate excluded on its prior alone could not have won even
        if its size had been computed by compressing the full index.
        """
        advisor = make_advisor(tables, queries)
        for state in advisor.states:
            if not state.compressed or state.prior.high == float("inf"):
                continue
            exact = true_cf_table(
                tables[state.table_name], state.key_columns,
                state.algorithm, kind=IndexKind.NONCLUSTERED,
                page_size=PAGE)
            assert state.prior.contains(exact), (
                f"{state.name}: exact CF {exact} outside "
                f"[{state.prior.low}, {state.prior.high}]")

    def test_no_pruned_candidate_would_have_won_exactly(self, queries,
                                                        tables):
        """Candidates pruned without estimation stay losers at exact CF.

        A tight bound forces zero-trial budget prunes under the
        deterministic priors; replacing those candidates' sizes with
        their exact CFs must not change the selected design (they were
        excluded because even their best case could not fit or win —
        and the priors provably contain the exact CF).
        """
        bound = 6_000.0
        advisor = make_advisor(
            tables, queries,
            algorithms=["null_suppression", "dictionary",
                        "global_dictionary"])
        lazy = advisor.advise(bound)
        assert advisor.last_report.pruned_never_estimated > 0
        candidates = []
        for state in advisor.states:
            if not state.compressed or state.trials_run >= TRIALS:
                candidates.append(state.as_candidate()
                                  if state.resolved else None)
                continue
            exact = true_cf_table(
                tables[state.table_name], state.key_columns,
                state.algorithm, kind=IndexKind.NONCLUSTERED,
                page_size=PAGE)
            candidates.append(CandidateIndex(
                table=state.table_name, key_columns=state.key_columns,
                compressed=True, algorithm=state.algorithm.name,
                size_bytes=state.plain_bytes * exact,
                size_source="exact", estimated_cf=exact))
        candidates = [c for c in candidates if c is not None]
        oracle = select_indexes(candidates, queries,
                                stats_for_tables(tables), bound,
                                CostModel(PAGE))
        lazy_design = {(c.table, c.key_columns, c.compressed,
                        c.algorithm) for c in lazy.chosen}
        oracle_design = {(c.table, c.key_columns, c.compressed,
                          c.algorithm) for c in oracle.chosen}
        assert lazy_design == oracle_design


class TestIncrementalExecution:
    def test_expand_trials_bit_compatible(self, tables):
        """Split trials replay the full request's values exactly."""
        engine = EstimationEngine(seed=SEED)
        request = EstimationRequest(
            table=tables["orders"], columns=("status",),
            algorithm=get_algorithm("null_suppression"),
            fraction=FRACTION, trials=TRIALS,
            kind=IndexKind.NONCLUSTERED, page_size=PAGE)
        full = engine.execute([request]).results[0].values.tolist()
        singles = engine.trial_requests(request)
        assert len(singles) == TRIALS
        # Run the split trials out of order on a *fresh* engine.
        other = EstimationEngine(seed=SEED)
        split = [None] * TRIALS
        for position in reversed(range(TRIALS)):
            result = other.execute([singles[position]]).results[0]
            split[position] = result.estimates[0].estimate
        assert split == full

    def test_expand_trials_rejects_opaque_seed(self, tables):
        import numpy as np

        engine = EstimationEngine(seed=SEED)
        request = EstimationRequest(
            table=tables["orders"], columns=("status",),
            fraction=FRACTION, seed=np.random.default_rng(1),
            kind=IndexKind.NONCLUSTERED, page_size=PAGE)
        from repro.errors import EstimationError

        with pytest.raises(EstimationError):
            engine.trial_requests(request)


class TestValidation:
    def test_bound_must_be_positive(self, tables, queries):
        with pytest.raises(AdvisorError):
            make_advisor(tables, queries).advise(0)

    def test_engine_and_seed_rejected(self, tables, queries):
        with pytest.raises(AdvisorError):
            WhatIfAdvisor(tables, queries, engine=EstimationEngine(1),
                          seed=2)

    def test_trial_budget_must_be_positive(self, tables, queries):
        with pytest.raises(AdvisorError):
            WhatIfAdvisor(tables, queries, max_trials=0)

    def test_unresolved_candidate_cannot_commit(self, tables, queries):
        advisor = make_advisor(tables, queries)
        state = next(s for s in advisor.states if s.compressed)
        with pytest.raises(AdvisorError):
            state.as_candidate()

    def test_cf_interval_validation(self):
        from repro.errors import EstimationError

        with pytest.raises(EstimationError):
            CFInterval(0.5, 0.2)
        with pytest.raises(EstimationError):
            CFInterval(-0.1, 0.2)
        interval = CFInterval(0.2, 0.6)
        assert interval.contains(0.2) and interval.contains(0.6)
        assert not interval.contains(0.61)
        assert interval.intersect(CFInterval(0.5, 0.9)).low == 0.5
