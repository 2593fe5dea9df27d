"""Experiment `whatif_advisor` — lazy bound-pruned vs. eager advisor.

The eager :func:`~repro.advisor.selection.advise_from_data` estimates
every (key set × algorithm) candidate at the full trial budget before
selecting anything. The lazy
:class:`~repro.advisor.whatif.WhatIfAdvisor` drives the greedy loop
through the engine instead: Theorem 1/2 CF bounds prune candidates
that provably cannot win a round, and adaptive allocation stops
spending trials on candidates whose intervals are already decisive.
This bench measures exactly that trade on a paper-scale workload:

* **engine units executed** (trial estimations) — the what-if
  advisor's whole point; the run *fails* if the lazy path does not cut
  units by at least :data:`REQUIRED_SAVINGS` in full mode, or if any
  storage bound produces a design that differs from the eager one in
  any byte (candidates, sizes, step log, costs);
* **wall-clock** per advisor run, eager vs. lazy, after one untimed
  pass of both: the median of :data:`FULL_REPEATS` alternating runs of
  each per bound in full mode (one in smoke mode), every one on a
  fresh engine and a fresh advisor and held to the eager design.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_whatif_advisor.py           # full
    PYTHONPATH=src python benchmarks/bench_whatif_advisor.py --smoke   # CI

Interpreting the numbers: savings grow with the trial budget (losers
stop after 1-2 trials instead of running all ``T``), with the
algorithm pool (more losers per key set), and with tighter storage
bounds (budget pruning needs no estimates at all); they shrink toward
zero when every candidate is a genuine contender.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import RESULTS_DIR, emit_result  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.advisor import (CostModel, Query, WhatIfAdvisor,  # noqa: E402
                           advise_from_data)
from repro.engine import EstimationEngine  # noqa: E402
from repro.experiments.runner import timed  # noqa: E402
from repro.workloads.generators import make_multicolumn_table  # noqa: E402

MASTER_SEED = 7200
PAGE = 4096

FULL_ALGORITHMS = ["null_suppression", "dictionary", "global_dictionary",
                   "rle", "prefix"]
SMOKE_ALGORITHMS = ["null_suppression", "dictionary", "rle"]

#: Acceptance floor for full mode: the lazy advisor must execute at
#: least this fraction fewer engine units than the eager one.
REQUIRED_SAVINGS = 0.30

#: Timed eager and lazy runs per storage bound in full mode; the
#: baseline records their medians. Smoke mode times each once.
FULL_REPEATS = 5

#: Storage bounds as fractions of the workload's total uncompressed
#: candidate footprint.
FULL_BOUND_FRACTIONS = (0.05, 0.1, 0.2, 0.4)
SMOKE_BOUND_FRACTIONS = (0.1, 0.2)


def build_workload(smoke: bool):
    scale = 1 if smoke else 6
    tables = {
        "orders": make_multicolumn_table(
            "orders", 1_500 * scale,
            [("status", 10, 6), ("customer", 24, 500),
             ("region", 12, 20)], page_size=PAGE, seed=7201),
        "parts": make_multicolumn_table(
            "parts", 1_000 * scale,
            [("sku", 24, 400), ("brand", 16, 30)],
            page_size=PAGE, seed=7202),
        "events": make_multicolumn_table(
            "events", 800 * scale,
            [("kind", 8, 12), ("source", 20, 150)],
            page_size=PAGE, seed=7203),
    }
    queries = [
        Query("q_status", "orders", ("status",), selectivity=0.15,
              weight=10),
        Query("q_customer", "orders", ("customer",), selectivity=0.03,
              weight=6),
        Query("q_region", "orders", ("region",), selectivity=0.2,
              weight=4),
        Query("q_cust_reg", "orders", ("customer", "region"),
              selectivity=0.02, weight=3),
        Query("q_sku", "parts", ("sku",), selectivity=0.05, weight=5),
        Query("q_brand", "parts", ("brand",), selectivity=0.25,
              weight=3),
        Query("q_kind", "events", ("kind",), selectivity=0.3, weight=4),
        Query("q_source", "events", ("source",), selectivity=0.04,
              weight=2),
    ]
    return tables, queries


def total_plain_bytes(tables) -> int:
    return sum(
        table.num_rows
        * (sum(column.dtype.fixed_size
               for column in table.schema.columns) + 8)
        for table in tables.values())


def design_fingerprint(result) -> list[tuple]:
    return [(c.table, c.key_columns, c.compressed, c.algorithm,
             c.size_bytes) for c in result.chosen]


def run_pair(tables, queries, algorithms, trials, fraction, bound: float,
             model: CostModel):
    """One eager run and one lazy run, each on a fresh engine, checked.

    Returns the lazy result, the eager units, and both timings.
    """
    eager_engine = EstimationEngine(seed=MASTER_SEED)
    eager_timing = timed(lambda: advise_from_data(
        tables, queries, bound, algorithms=algorithms,
        fraction=fraction, trials=trials, model=model,
        engine=eager_engine))
    eager = eager_timing.value
    eager_units = eager_engine.stats["trials"]

    advisor = WhatIfAdvisor(
        tables, queries, algorithms=algorithms, fraction=fraction,
        max_trials=trials, model=model, seed=MASTER_SEED)
    lazy_timing = timed(lambda: advisor.advise(bound))
    lazy = lazy_timing.value
    report = lazy.report

    identical = (lazy.chosen == eager.chosen
                 and lazy.steps == eager.steps
                 and lazy.bytes_used == eager.bytes_used
                 and lazy.cost_after == eager.cost_after)
    if not identical:
        raise AssertionError(
            f"lazy design diverged from eager at bound {bound:.0f}: "
            f"{design_fingerprint(lazy)} vs {design_fingerprint(eager)}")
    if report.units_executed != eager_units - report.units_saved:
        raise AssertionError(
            "what-if unit accounting does not reconcile with the "
            "eager engine's trial count")
    return lazy, eager_units, eager_timing.seconds, lazy_timing.seconds


def run_bound(tables, queries, algorithms, trials, fraction,
              bound: float, repeats: int) -> dict:
    """``repeats`` eager and lazy runs at one storage bound, in turn.

    Every run must select the same design; the entry records the
    median time of each side.
    """
    model = CostModel(PAGE)
    pairs = [run_pair(tables, queries, algorithms, trials, fraction,
                      bound, model) for _ in range(repeats)]
    lazy, eager_units = pairs[-1][:2]
    report = lazy.report
    eager_seconds = statistics.median(pair[2] for pair in pairs)
    lazy_seconds = statistics.median(pair[3] for pair in pairs)
    return {
        "storage_bound_bytes": round(bound),
        "chosen": len(lazy.chosen),
        "eager_units": eager_units,
        "lazy_units": report.units_executed,
        "units_saved": report.units_saved,
        "savings_fraction": round(report.savings_fraction, 4),
        "rounds": report.rounds,
        "pruned_never_estimated": report.pruned_never_estimated,
        "early_stopped": report.early_stopped,
        "prune_events": len(report.prune_events),
        "eager_seconds": eager_seconds,
        "lazy_seconds": lazy_seconds,
        "speedup": round(eager_seconds / max(lazy_seconds, 1e-9), 3),
        "design": [f"{c.name} ({c.size_bytes:.0f} B)"
                   for c in lazy.chosen],
    }


def run(smoke: bool, output: pathlib.Path) -> dict:
    algorithms = SMOKE_ALGORITHMS if smoke else FULL_ALGORITHMS
    trials = 3 if smoke else 6
    fraction = 0.1
    bound_fractions = SMOKE_BOUND_FRACTIONS if smoke \
        else FULL_BOUND_FRACTIONS
    repeats = 1 if smoke else FULL_REPEATS
    tables, queries = build_workload(smoke)
    footprint = total_plain_bytes(tables)
    bounds = [footprint * f for f in bound_fractions]
    # One untimed eager and lazy pass first, so no timed run pays the
    # process's one-time costs (the first lazy run would time the
    # scipy.special import behind its trial-mean intervals).
    run_bound(tables, queries, algorithms, trials, fraction, bounds[0], 1)
    runs = [run_bound(tables, queries, algorithms, trials, fraction,
                      bound, repeats) for bound in bounds]
    worst = min(entry["savings_fraction"] for entry in runs)
    mean_savings = sum(entry["savings_fraction"]
                       for entry in runs) / len(runs)
    if not smoke and worst < REQUIRED_SAVINGS:
        raise AssertionError(
            f"lazy advisor saved only {worst:.1%} engine units at its "
            f"worst bound; the acceptance floor is "
            f"{REQUIRED_SAVINGS:.0%}")
    report = {
        "experiment": "whatif_advisor",
        "version": __version__,
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "workload": {
            "tables": {name: table.num_rows
                       for name, table in tables.items()},
            "queries": len(queries),
            "algorithms": algorithms,
            "trials": trials,
            "fraction": fraction,
            "uncompressed_candidate_bytes": footprint,
            "timed_repeats": repeats,
        },
        "required_savings": REQUIRED_SAVINGS,
        "runs": runs,
        "worst_savings_fraction": worst,
        "mean_savings_fraction": round(mean_savings, 4),
        "designs_identical": True,
    }
    emit_result("whatif_advisor", report,
                parameters={"mode": "smoke" if smoke else "full"},
                output=output)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine units and wall-clock of the lazy what-if "
                    "advisor vs. the eager advisor, with identical "
                    "selected designs asserted.")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload (seconds)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=RESULTS_DIR / "BENCH_whatif_advisor.json",
                        help="where to write the JSON baseline")
    args = parser.parse_args(argv)
    report = run(args.smoke, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nbaseline written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
