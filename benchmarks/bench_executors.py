"""Experiment `executors` — serial vs. process pool.

The advisor workload (Kimura et al.'s compression-aware physical design
loop) is a large batch of independent (column-set × algorithm) CF
estimations. The units are compress-heavy pure Python, so only worker
processes parallelize them; the process-pool executor forks workers
that inherit the batch, placing every unit that shares a sample on one
worker. This bench times two advisor batches on both executors:

* ``many_samples`` — two tables, several trials: more samples than
  workers, so the pool keeps each sample on one worker and its reuse
  counters must equal serial's exactly;
* ``single_sample`` — one table, one trial (the advisor's default): one
  sample that would serialize the batch on one worker, so the pool
  splits it by index key, and only its index counters must equal
  serial's (the sample is drawn once per worker).

Both must produce bit-identical estimates (the engine's determinism
contract). The JSON baseline lands in
``benchmarks/results/BENCH_executors.json``.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_executors.py           # full
    PYTHONPATH=src python benchmarks/bench_executors.py --smoke   # CI

Interpreting the numbers: the process pool only wins when real cores
are available (the JSON records ``cpu_count``) and the batch is heavy
enough to amortize forking and reaping its workers. On a single-core
runner serial is expected to win, which is itself worth recording.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import RESULTS_DIR, emit_result  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.engine import (EstimationEngine, EstimationRequest,  # noqa: E402
                          make_executor)
from repro.experiments.runner import timed  # noqa: E402
from repro.storage.index import IndexKind  # noqa: E402
from repro.workloads.generators import make_multicolumn_table  # noqa: E402

MASTER_SEED = 4200

#: Per-page/per-index techniques an advisor would sweep; every extra
#: algorithm deepens the compress-heavy part each sample is reused for.
FULL_ALGORITHMS = ["null_suppression", "null_suppression_runs",
                   "global_dictionary", "dictionary", "prefix", "delta",
                   "rle"]
SMOKE_ALGORITHMS = ["null_suppression", "global_dictionary"]

#: Reuse counters the pool must report exactly as serial does when it
#: places whole samples; a split sample keeps only the index counters.
REUSE_COUNTERS = ("samples_materialized", "sample_cache_hits",
                  "indexes_built", "index_reuse_hits")
INDEX_COUNTERS = ("indexes_built", "index_reuse_hits")


def build_workload(smoke: bool) -> tuple[dict, list[tuple[str, tuple]]]:
    """Tables plus the advisor's (table, column-set) candidate grid."""
    scale = 1 if smoke else 8
    tables = {
        "orders": make_multicolumn_table(
            "orders", 1_500 * scale,
            [("status", 10, 6), ("customer", 24, 500),
             ("region", 12, 20)], page_size=4096, seed=4201),
        "parts": make_multicolumn_table(
            "parts", 1_000 * scale,
            [("sku", 24, 400), ("brand", 16, 30)],
            page_size=4096, seed=4202),
    }
    key_sets = [
        ("orders", ("status",)),
        ("orders", ("customer",)),
        ("orders", ("region",)),
        ("orders", ("status", "region")),
        ("parts", ("sku",)),
        ("parts", ("brand",)),
    ]
    return tables, key_sets


def build_requests(tables: dict, key_sets: list, algorithms: list,
                   fraction: float, trials: int,
                   ) -> list[EstimationRequest]:
    requests = []
    for table_name, key_columns in key_sets:
        table = tables[table_name]
        for algorithm in algorithms:
            requests.append(EstimationRequest(
                table=table, columns=key_columns, algorithm=algorithm,
                fraction=fraction, trials=trials,
                kind=IndexKind.NONCLUSTERED, page_size=table.page_size,
                label=f"{table_name}:{','.join(key_columns)}"
                      f":{algorithm}"))
    return requests


def fingerprint(batch) -> list[tuple]:
    return [(estimate.estimate, estimate.sample_rows,
             estimate.compressed_sample_bytes)
            for result in batch.results
            for estimate in result.estimates]


def compare(requests: list[EstimationRequest], workers: int,
            pinned: tuple[str, ...]) -> dict:
    """Time ``requests`` on both executors; check estimates and the
    ``pinned`` counters match serial's."""
    timings: dict[str, float] = {}
    prints: dict[str, list] = {}
    reuse: dict[str, dict[str, int]] = {}
    for name in ("serial", "process"):
        engine = EstimationEngine(
            seed=MASTER_SEED,
            executor=make_executor(name, max_workers=workers))
        outcome = timed(lambda: engine.execute(requests))
        timings[name] = outcome.seconds
        prints[name] = fingerprint(outcome.value)
        reuse[name] = {counter: outcome.value.stats[counter]
                       for counter in REUSE_COUNTERS}
    if prints["serial"] != prints["process"]:
        raise AssertionError(
            "executor choice changed the estimates — the determinism "
            "contract is broken")
    moved = [counter for counter in pinned
             if reuse["process"][counter] != reuse["serial"][counter]]
    if moved:
        raise AssertionError(
            f"the process pool's {moved} differ from serial's — units "
            f"were placed off their sample or index: {reuse}")
    return {"requests": len(requests),
            "trial_units": sum(request.trials for request in requests),
            "seconds": timings,
            "speedup_vs_serial": {
                name: round(timings["serial"] / seconds, 3)
                for name, seconds in timings.items()},
            "reuse_counters": reuse}


def run(smoke: bool, workers: int, output: pathlib.Path) -> dict:
    algorithms = SMOKE_ALGORITHMS if smoke else FULL_ALGORITHMS
    # Full mode draws fat samples (f=0.2 of 8-12k rows) for many trials
    # so the byte-level compression loops dominate pool overhead — the
    # compress-heavy advisor shape the process pool exists for.
    fraction = 0.05 if smoke else 0.2
    trials = 4 if smoke else 5
    tables, key_sets = build_workload(smoke)
    many = compare(build_requests(tables, key_sets, algorithms, fraction,
                                  trials), workers, REUSE_COUNTERS)
    single = compare(build_requests(
        tables, [key for key in key_sets if key[0] == "orders"],
        algorithms, 0.1 if smoke else 0.5, 1), workers, INDEX_COUNTERS)

    report = {
        "experiment": "executors",
        "version": __version__,
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "workers": workers,
        "algorithms": algorithms,
        "tables": {name: table.num_rows
                   for name, table in tables.items()},
        "many_samples": {"fraction": fraction, "trials": trials,
                         "counters_equal_serial": list(REUSE_COUNTERS),
                         **many},
        "single_sample": {"table": "orders",
                          "fraction": 0.1 if smoke else 0.5,
                          "trials": 1,
                          "counters_equal_serial": list(INDEX_COUNTERS),
                          **single},
        "estimates_identical": True,
    }
    emit_result("executors", report,
                parameters={"mode": "smoke" if smoke else "full",
                            "workers": workers},
                output=output)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the serial and process executors on an "
                    "advisor-sized estimation batch.")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized batch (seconds, not minutes)")
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 2),
                        help="worker count for the process pool")
    parser.add_argument("--output", type=pathlib.Path,
                        default=RESULTS_DIR / "BENCH_executors.json",
                        help="where to write the JSON baseline")
    args = parser.parse_args(argv)
    report = run(args.smoke, args.workers, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nbaseline written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
