"""Property: pricing a probe from per-query best costs is exact.

:func:`~repro.advisor.selection.candidate_gain` prices a candidate from
the chosen design's per-query best costs (``WorkloadCost.best_costs``)
instead of walking the whole design again. Both advisors' decisions,
step logs and ``cost_after`` rest on it, so it must return *the same
floats* as pricing the extended design from scratch — compared with
``==``, no tolerance — over workloads with overlapping column sets,
repeated query names and random selectivities and weights, designs of
plain and compressed indexes that cover some queries and not others,
and probe sizes from the what-if loop's size floor to beyond a whole
heap.

``derandomize=True`` pins hypothesis's example stream, so the suite is
deterministic in CI.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.advisor import (CandidateIndex, CostModel, Query, TableStats,
                           candidate_gain, workload_cost)
from repro.advisor.whatif import _SIZE_FLOOR

TABLES = ("t0", "t1", "t2")
COLUMNS = ("a", "b", "c", "d")
#: Few names, so workloads repeat them.
QUERY_NAMES = ("q0", "q1", "q2", "q3")

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

column_sets = st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3,
                       unique=True).map(tuple)


@st.composite
def workloads(draw):
    tables = {}
    for name in TABLES[:draw(st.integers(1, 3))]:
        rows = draw(st.integers(1, 10**6))
        tables[name] = TableStats(name, rows,
                                  draw(st.integers(1, 10**4)))
    queries = [
        Query(name=draw(st.sampled_from(QUERY_NAMES)),
              table=draw(st.sampled_from(sorted(tables))),
              columns=draw(column_sets),
              selectivity=draw(st.floats(1e-6, 1.0)),
              weight=draw(st.floats(1e-3, 1e3)))
        for _ in range(draw(st.integers(1, 12)))]
    model = CostModel(
        page_size=draw(st.sampled_from((512, 1024, 4096, 8192))),
        decompression_cpu_factor=draw(st.floats(0.0, 2.0)))
    return tables, queries, model


def sizes(tables, model):
    """From the size floor to beyond the largest heap."""
    heap = max(stats.heap_pages for stats in tables.values()) \
        * model.page_size
    return st.one_of(st.just(_SIZE_FLOOR),
                     st.floats(_SIZE_FLOOR, 4.0 * heap),
                     st.just(float(heap)), st.just(2.0 * heap))


def candidates(tables, model):
    # A table no query touches is allowed: its index covers nothing.
    return st.builds(
        lambda table, key_columns, compressed, size: CandidateIndex(
            table=table, key_columns=key_columns, compressed=compressed,
            algorithm="dictionary" if compressed else None,
            size_bytes=size, size_source="bound"),
        st.sampled_from(TABLES), column_sets, st.booleans(),
        sizes(tables, model))


@st.composite
def problems(draw):
    tables, queries, model = draw(workloads())
    chosen = draw(st.lists(candidates(tables, model), max_size=6))
    probe = draw(candidates(tables, model))
    return tables, queries, model, chosen, probe


@SETTINGS
@given(problems())
def test_gain_equals_pricing_the_extended_design(problem):
    tables, queries, model, chosen, probe = problem
    design = workload_cost(queries, tables, chosen, model)
    current = design.total
    t = workload_cost(queries, tables, chosen + [probe], model).total
    assert candidate_gain(probe, queries, design, model) == (current - t, t)

