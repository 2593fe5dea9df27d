"""Experiment `perf-remote` — the remote executor's scheduling wins.

The remote executor exists for one reason: an advisor batch is a bag of
independent plan units whose costs span orders of magnitude (fraction
0.01 histogram probes next to fraction 0.3 multi-column table samples),
and a fleet of store-warmed workers should chew through it at fleet
speed, not at ``units / workers`` rounded up by the unluckiest shard.
This bench pins the three claims the design makes:

1. **Throughput scales with workers.** Unit service time is simulated
   (``--simulate-cost-scale`` makes each worker sleep its unit's
   predicted cost) so the *scheduler* is measured honestly even on the
   single-core CI runner: sleeps overlap across worker processes
   exactly the way real CPU work overlaps across real hosts, while the
   actual estimate arithmetic stays a rounding error. The full run
   requires >= 2.5x unit throughput at 4 workers vs 1.
2. **A warm shared store means workers materialize nothing.** After one
   priming run against a store directory, a fresh engine plus fresh
   workers resolve every unit from disk: ``samples_materialized == 0``.
3. **LPT beats round-robin on skewed batches** — both on the cost
   model's predicted makespan and on measured wall clock.

Results land in ``benchmarks/results/BENCH_remote_executor.json``. Run::

    PYTHONPATH=src python benchmarks/bench_remote_executor.py           # full
    PYTHONPATH=src python benchmarks/bench_remote_executor.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import pathlib
import platform
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import RESULTS_DIR, emit_result  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.engine import (EstimationEngine, EstimationRequest,  # noqa: E402
                          RemotePlanExecutor, SerialExecutor)
from repro.engine.remote import (UnitCostModel, lpt_assign,  # noqa: E402
                                 makespan, round_robin_assign,
                                 spawn_local_workers)
from repro.engine.units import plan_units  # noqa: E402
from repro.experiments.runner import timed  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.storage.index import IndexKind  # noqa: E402
from repro.workloads.generators import (make_histogram,  # noqa: E402
                                        make_multicolumn_table)

MASTER_SEED = 7100

#: Sleep seconds per unit of predicted cost in the simulated-service
#: scaling runs; tuned so a full skewed batch is ~10 s of service time,
#: far above the protocol's per-chunk round-trip overhead.
SIMULATE_SCALE = 2e-4


def build_requests(smoke: bool) -> list[EstimationRequest]:
    """A deliberately cost-skewed advisor batch.

    Giant units (fat fractions over the wide table) next to near-free
    histogram probes — the shape where round-robin strands a shard
    behind the giants and LPT + stealing should not.
    """
    scale = 1 if smoke else 4
    orders = make_multicolumn_table(
        "orders", 2_000 * scale,
        [("status", 10, 6), ("customer", 24, 500), ("region", 12, 20)],
        page_size=4096, seed=7101)
    histogram = make_histogram(30_000, 200, 16, seed=7102)
    requests = []
    fractions = (0.02, 0.3) if smoke else (0.01, 0.05, 0.15, 0.3)
    for fraction in fractions:
        for columns in (("status",), ("customer", "region")):
            for algorithm in ("null_suppression", "rle"):
                requests.append(EstimationRequest(
                    table=orders, columns=columns, algorithm=algorithm,
                    fraction=fraction, trials=2 if smoke else 3,
                    kind=IndexKind.NONCLUSTERED, page_size=4096,
                    label=f"{','.join(columns)}:{algorithm}:{fraction}"))
        requests.append(EstimationRequest(
            histogram=histogram, algorithm="null_suppression",
            fraction=fraction, trials=2 if smoke else 3,
            label=f"hist:ns:{fraction}"))
    return requests


def fingerprint(batch) -> list[tuple]:
    return [(estimate.estimate, estimate.sample_rows,
             estimate.compressed_sample_bytes)
            for result in batch.results
            for estimate in result.estimates]


def run_batch(requests, executor, store_dir=None, tracer=None):
    engine = EstimationEngine(seed=MASTER_SEED, executor=executor,
                              store=store_dir, tracer=tracer)
    outcome = timed(lambda: engine.execute(requests))
    return outcome.value, outcome.seconds


def calibration_of(tracer: Tracer) -> dict[str, float]:
    """The cost-model gauges a traced remote run published."""
    gauges = tracer.metrics.snapshot()["gauges"]
    return {name: gauges[name] for name in sorted(gauges)
            if name.startswith("cost_model.")}


def with_workers(count, store_dir, simulate, fn):
    """Run ``fn(addresses)`` against freshly spawned worker processes."""
    processes, addresses = spawn_local_workers(
        count, store_dir=store_dir,
        simulate_cost_scale=SIMULATE_SCALE if simulate else None)
    try:
        return fn(addresses)
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            process.wait(timeout=10)


def unit_count(requests) -> int:
    engine = EstimationEngine(seed=MASTER_SEED)
    return len(plan_units(engine.plan(requests)))


def predicted_costs(requests) -> list[float]:
    engine = EstimationEngine(seed=MASTER_SEED)
    return [UnitCostModel.predict(unit)
            for unit in plan_units(engine.plan(requests))]


def run(smoke: bool, output: pathlib.Path) -> dict:
    requests = build_requests(smoke)
    units = unit_count(requests)
    report: dict = {
        "experiment": "remote_executor",
        "version": __version__,
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "batch": {"requests": len(requests), "plan_units": units},
        "simulated_service": {
            "note": "scaling runs sleep simulate_cost_scale * predicted "
                    "cost per unit in the worker, so scheduler overlap "
                    "is measured honestly on any core count; estimates "
                    "are unaffected",
            "scale": SIMULATE_SCALE,
        },
    }

    with tempfile.TemporaryDirectory(prefix="bench-remote-") as tmp:
        store_dir = os.path.join(tmp, "store")

        # -- identity + store priming (2 real workers, no simulation) --
        serial_batch, serial_seconds = run_batch(
            requests, SerialExecutor(), store_dir=store_dir)
        tracer = Tracer.to_stream(io.StringIO())
        remote_batch, remote_seconds = with_workers(
            2, store_dir, False,
            lambda addresses: run_batch(
                requests,
                RemotePlanExecutor(workers=addresses, chunk_units=2),
                store_dir=store_dir, tracer=tracer))
        identical = fingerprint(serial_batch) == fingerprint(remote_batch)
        if not identical:
            raise AssertionError(
                "remote executor changed the estimates — the "
                "determinism contract is broken")
        report["identity"] = {
            "estimates_identical": True,
            "serial_seconds": round(serial_seconds, 4),
            "remote_seconds_2_workers": round(remote_seconds, 4),
            "remote_units": remote_batch.stats["remote_units"],
        }

        # -- cost-model calibration from observed span timings ---------
        # The dispatcher feeds every unit's measured seconds back into
        # UnitCostModel and publishes the EMA rates plus the
        # predicted-vs-actual error as gauges in the tracer's metrics;
        # a remote run that stops producing them (or produces
        # nonsense) is a scheduler quality regression even when the
        # estimates stay correct.
        calibration = calibration_of(tracer)
        report["calibration"] = calibration
        rates = [value for name, value in calibration.items()
                 if name.startswith("cost_model.seconds_per_cost.")]
        if not rates or any(rate <= 0 for rate in rates):
            raise AssertionError(
                "remote run published no positive seconds-per-cost "
                f"rates: {calibration}")
        error = calibration.get("cost_model.mean_abs_rel_error")
        if error is not None and not math.isfinite(error):
            raise AssertionError(
                f"predicted-vs-actual error is not finite: {error}")
        if calibration.get("cost_model.observed_units", 0) != units:
            raise AssertionError(
                "calibration observed "
                f"{calibration.get('cost_model.observed_units')} units, "
                f"expected {units}")

        # -- warm store: fresh engine + fresh workers materialize 0 ----
        warm_batch, warm_seconds = with_workers(
            2, store_dir, False,
            lambda addresses: run_batch(
                requests,
                RemotePlanExecutor(workers=addresses, chunk_units=2),
                store_dir=store_dir))
        report["warm_store"] = {
            "samples_materialized": warm_batch.stats[
                "samples_materialized"],
            "sample_store_hits": warm_batch.stats["sample_store_hits"],
            "seconds": round(warm_seconds, 4),
        }
        if warm_batch.stats["samples_materialized"] != 0:
            raise AssertionError(
                "a warm shared store should materialize nothing, got "
                f"{warm_batch.stats['samples_materialized']}")

        # -- scheduler quality on the predicted cost profile -----------
        costs = predicted_costs(requests)
        shard_counts = [2, 4]
        report["makespan_model"] = {
            str(shards): {
                "lpt": round(makespan(costs, lpt_assign(costs, shards)), 1),
                "round_robin": round(
                    makespan(costs, round_robin_assign(costs, shards)), 1),
            }
            for shards in shard_counts}
        for shards in shard_counts:
            modeled = report["makespan_model"][str(shards)]
            if modeled["lpt"] > modeled["round_robin"]:
                raise AssertionError(
                    f"LPT lost to round-robin at {shards} shards")

        # -- simulated-service scaling: 1 / 2 / 4 workers --------------
        if not smoke:
            scaling = {}
            for count in (1, 2, 4):
                tracer = Tracer.to_stream(io.StringIO())
                batch, seconds = with_workers(
                    count, store_dir, True,
                    lambda addresses: run_batch(
                        requests,
                        RemotePlanExecutor(workers=addresses,
                                           chunk_units=2),
                        store_dir=store_dir, tracer=tracer))
                scaling[str(count)] = {
                    "seconds": round(seconds, 4),
                    "units_per_second": round(units / seconds, 2),
                    "remote_steals": batch.stats["remote_steals"],
                }
            ratio = (scaling["4"]["units_per_second"]
                     / scaling["1"]["units_per_second"])
            scaling["throughput_4v1"] = round(ratio, 3)
            report["scaling"] = scaling
            if ratio < 2.5:
                raise AssertionError(
                    f"4-worker throughput only {ratio:.2f}x of 1 worker; "
                    "the scheduler is leaving parallelism on the floor")

            # Under simulated service the time per unit IS
            # scale * predicted cost, so the feedback loop must
            # calibrate tightly — a large mean error means observed
            # timings are no longer reaching the cost model.
            sim_error = calibration_of(tracer).get(
                "cost_model.mean_abs_rel_error")
            scaling["mean_abs_rel_error_simulated"] = (
                round(sim_error, 4) if sim_error is not None else None)
            if sim_error is None or sim_error > 1.0:
                raise AssertionError(
                    "simulated-service calibration error too large: "
                    f"{sim_error}")

            # -- measured LPT vs round-robin under simulated service ---
            measured = {}
            for scheduler in ("lpt", "round_robin"):
                _, seconds = with_workers(
                    4, store_dir, True,
                    lambda addresses: run_batch(
                        requests,
                        RemotePlanExecutor(workers=addresses,
                                           scheduler=scheduler,
                                           chunk_units=2, steal=False),
                        store_dir=store_dir))
                measured[scheduler] = round(seconds, 4)
            report["makespan_measured_4_workers_no_steal"] = measured

    emit_result("remote_executor", report,
                parameters={"mode": "smoke" if smoke else "full"},
                output=output)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the remote plan executor: scaling, warm "
                    "stores, and LPT vs round-robin.")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (identity + warm store "
                             "+ modeled makespan only)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=RESULTS_DIR / "BENCH_remote_executor.json",
                        help="where to write the JSON baseline")
    args = parser.parse_args(argv)
    report = run(args.smoke, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nbaseline written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
