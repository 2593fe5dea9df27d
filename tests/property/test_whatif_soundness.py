"""Property: what-if pruning is sound across workloads and executors.

The lazy :class:`~repro.advisor.whatif.WhatIfAdvisor` skips estimating
candidates whose Theorem 1/2 CF bounds exclude them from winning a
greedy round. The properties locked in here, over hypothesis-generated
workloads with fixed seeds:

1. **Selection parity** — the lazy advisor selects the *bit-identical*
   design (candidates, sizes, steps, costs) as the eager
   :func:`advise_from_data`, on the serial and process executors
   alike.
2. **Pruning soundness** — every candidate the lazy advisor committed
   ran the full trial budget; every candidate it skipped or stopped
   early is absent from the eager design (so no pruned candidate would
   have won); and every bound it pruned on actually contained the
   eager estimate it claimed to bracket.
3. **Spend accounting** — engine trial units reconcile exactly with
   the report (``units == K * T - saved``).

``derandomize=True`` pins hypothesis's example stream: the suite is
deterministic in CI, so a pass is a reproducible guarantee rather than
a sampled one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workloads.generators import make_multicolumn_table
from repro.advisor import (CostModel, Query, WhatIfAdvisor,
                           advise_from_data)

PAGE = 1024
MASTER_SEED = 60_100

ALGORITHM_POOL = ("null_suppression", "dictionary", "global_dictionary",
                  "rle")

SLOW_SETTINGS = settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])


@st.composite
def workloads(draw):
    """A small but varied physical-design problem."""
    num_tables = draw(st.integers(1, 2))
    tables = {}
    queries = []
    for t in range(num_tables):
        name = f"t{t}"
        num_columns = draw(st.integers(1, 3))
        specs = []
        for c in range(num_columns):
            k = draw(st.integers(6, 20))
            d = draw(st.integers(2, 60))
            specs.append((f"c{c}", k, d))
        n = draw(st.integers(200, 700))
        table_seed = draw(st.integers(0, 10_000))
        tables[name] = make_multicolumn_table(
            name, n, specs, page_size=PAGE, seed=table_seed)
        num_queries = draw(st.integers(1, 2))
        for q in range(num_queries):
            width = draw(st.integers(1, num_columns))
            columns = tuple(f"c{c}" for c in range(width))
            queries.append(Query(
                name=f"{name}_q{q}", table=name, columns=columns,
                selectivity=draw(st.sampled_from(
                    (0.02, 0.1, 0.3, 1.0))),
                weight=draw(st.sampled_from((1.0, 2.0, 8.0)))))
    algorithms = draw(st.lists(st.sampled_from(ALGORITHM_POOL),
                               min_size=1, max_size=3, unique=True))
    trials = draw(st.integers(1, 3))
    fraction = draw(st.sampled_from((0.1, 0.2)))
    bound_factor = draw(st.sampled_from((0.05, 0.3, 0.8, 2.0)))
    total_plain = sum(
        table.num_rows
        * (sum(column.dtype.fixed_size
               for column in table.schema.columns) + 8)
        for table in tables.values())
    bound = max(1.0, bound_factor * total_plain)
    seed = draw(st.integers(0, 2 ** 31))
    return tables, queries, algorithms, trials, fraction, bound, seed


def eager_design(tables, queries, algorithms, trials, fraction, bound,
                 seed, executor=None):
    return advise_from_data(
        tables, queries, bound, algorithms=algorithms,
        fraction=fraction, trials=trials, model=CostModel(PAGE),
        seed=seed, executor=executor)


def lazy_advisor(tables, queries, algorithms, trials, fraction, seed,
                 executor=None, **kwargs):
    return WhatIfAdvisor(
        tables, queries, algorithms=algorithms, fraction=fraction,
        max_trials=trials, model=CostModel(PAGE), seed=seed,
        executor=executor, **kwargs)


def check_soundness(eager, lazy, advisor, trials):
    # 1. Bit-identical selection.
    assert lazy.chosen == eager.chosen
    assert lazy.steps == eager.steps
    assert lazy.bytes_used == eager.bytes_used
    assert lazy.cost_after == eager.cost_after
    # 2a. Winners always ran the full budget.
    report = lazy.report
    for candidate in lazy.chosen:
        if candidate.compressed:
            assert report.trials_by_candidate[candidate.name] == trials
    # 2b. Skipped / early-stopped candidates lost in the eager run too.
    eager_names = {candidate.name for candidate in eager.chosen}
    for name, ran in report.trials_by_candidate.items():
        if ran < trials:
            assert name not in eager_names
    # 2c. Every pruning interval was valid: it contained the eager
    # estimate of the candidate it excluded.
    eager_cf = {}
    for state in advisor.states:
        if state.compressed and state.trials_run >= trials:
            eager_cf[state.name] = state.mean()
    for event in report.prune_events:
        if event.candidate in eager_cf:
            value = eager_cf[event.candidate]
            assert event.cf_low <= value <= event.cf_high
    # 3. Spend accounting.
    assert report.units_executed <= report.units_eager
    assert sum(report.trials_by_candidate.values()) == \
        report.units_executed


class TestWhatIfSoundness:
    @SLOW_SETTINGS
    @given(problem=workloads())
    def test_serial_parity_and_soundness(self, problem):
        tables, queries, algorithms, trials, fraction, bound, seed = \
            problem
        eager = eager_design(tables, queries, algorithms, trials,
                             fraction, bound, seed)
        advisor = lazy_advisor(tables, queries, algorithms, trials,
                               fraction, seed)
        lazy = advisor.advise(bound)
        check_soundness(eager, lazy, advisor, trials)
        # The engine ran exactly what the report claims.
        stats = advisor.engine.stats.snapshot()
        assert stats["trials"] == report_units(lazy)
        assert stats["trials"] == \
            lazy.report.compressed_candidates * trials \
            - stats["whatif_trials_saved"]

    @SLOW_SETTINGS
    @given(problem=workloads())
    def test_deterministic_bounds_only(self, problem):
        """With probabilistic intervals off, parity is unconditional."""
        tables, queries, algorithms, trials, fraction, bound, seed = \
            problem
        eager = eager_design(tables, queries, algorithms, trials,
                             fraction, bound, seed)
        advisor = lazy_advisor(tables, queries, algorithms, trials,
                               fraction, seed, use_probabilistic=False)
        lazy = advisor.advise(bound)
        check_soundness(eager, lazy, advisor, trials)
        assert all(event.deterministic
                   for event in lazy.report.prune_events)


def report_units(lazy):
    return lazy.report.units_executed


@pytest.fixture(scope="module")
def fixed_problem():
    tables = {
        "orders": make_multicolumn_table(
            "orders", 900, [("status", 10, 5), ("customer", 24, 150)],
            page_size=PAGE, seed=61),
        "parts": make_multicolumn_table(
            "parts", 600, [("sku", 20, 80)], page_size=PAGE, seed=62),
    }
    queries = [
        Query("q_status", "orders", ("status",), selectivity=0.2,
              weight=8),
        Query("q_customer", "orders", ("customer",), selectivity=0.05,
              weight=4),
        Query("q_sku", "parts", ("sku",), selectivity=0.1, weight=2),
    ]
    return tables, queries


class TestExecutorParity:
    """The same lazy run is bit-identical on every executor.

    The refinement batches carry resolved integer seeds, so executor
    choice can only change scheduling, never estimates — and therefore
    never the selected design or the spend report's unit totals.
    """

    BOUND = 60_000
    TRIALS = 3
    ALGORITHMS = ["null_suppression", "dictionary"]

    def run(self, fixed_problem, executor):
        tables, queries = fixed_problem
        advisor = lazy_advisor(tables, queries, self.ALGORITHMS,
                               self.TRIALS, 0.1, MASTER_SEED,
                               executor=executor)
        result = advisor.advise(self.BOUND)
        return result, advisor

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_matches_eager_on_every_executor(self, fixed_problem,
                                             executor):
        tables, queries = fixed_problem
        eager = eager_design(tables, queries, self.ALGORITHMS,
                             self.TRIALS, 0.1, self.BOUND, MASTER_SEED)
        lazy, advisor = self.run(fixed_problem, executor)
        check_soundness(eager, lazy, advisor, self.TRIALS)

    def test_executors_agree_with_each_other(self, fixed_problem):
        serial, _ = self.run(fixed_problem, "serial")
        process, _ = self.run(fixed_problem, "process")
        assert process.chosen == serial.chosen
        assert process.steps == serial.steps
        assert process.report.units_executed == \
            serial.report.units_executed
        assert process.report.trials_by_candidate == \
            serial.report.trials_by_candidate
