"""The repository benchmark: Figure 2 cold, served, re-run on a pool, advised.

Run from the repository root::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``batch-cold``    20 requests / 60 units on a fresh serial engine;
* ``service-mixed`` two keep-alive clients against ``repro serve``;
* ``rerun-pool``    28 requests / 84 units on a 2-worker process pool
  over a pre-filled store, restored before every batch;
* ``advise``        a fresh ``WhatIfAdvisor`` per ``advise()`` call;
* ``all``           each of the above untraced and traced, in turn.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
installs timing shims around the program's public calls
(``perfbench/layers.py``) and reports per-layer metrics, each tagged with
the end-to-end metric and workload it should move, plus the layer
accounting and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
live under ``.perfbench/`` in the repository root and are removed on
exit.

Single-caller workloads report their times at the yardstick's reference
speed (see ``metrics.yardstick``) and print the raw times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def environment() -> dict[str, object]:
    """Where the numbers were measured; never compare across these."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def declared(key: str) -> list[str]:
    """Names under one of ``BENCHMARK.json``'s lists."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return [entry["name"] for entry in document[key]]


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in its own process.

    Separate processes keep one workload's peak RSS and children out of
    the next one's figures.
    """
    names = declared("workloads")
    failed = 0
    for name in names:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(child.stdout)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines \
                    or not json.loads(lines[-1])["correct"]:
                failed += 1
    print(f"perfbench all: {failed} of {2 * len(names)} runs failed")
    return 1 if failed else 0


def run_untraced(workload, seconds: float) -> dict:
    from metrics import adjusted, end_to_end, yardstick
    from workloads import SETUP_REPEATS

    yardstick()  # the first call pays one-time allocation costs
    setups = []
    for _ in range(SETUP_REPEATS):
        before = yardstick()
        start = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - start
        setups.append(adjusted(wall, (before + yardstick()) / 2))
    workload.make_reference()
    workload.canary()
    ops = workload.measure(seconds)
    workload.close()
    values = end_to_end(setups, ops, workload.callers, workload.rss_scope)
    return {"ops": ops, "values": values, "declared": "end_to_end"}


def run_traced(workload, seconds: float) -> dict:
    from layers import LayerClock
    from metrics import PER_LAYER, layer_table, per_layer

    clock = LayerClock()
    clock.install()
    clock.enabled = True
    try:
        with clock.op() as setup:
            workload.setup()
    finally:
        clock.enabled = False
    workload.make_reference()
    workload.canary()
    groups = workload.measure_traced(seconds, clock)
    workload.close()
    clock.uninstall()
    metrics, notes = per_layer(workload.name, groups, setup,
                               getattr(workload, "ship_bytes", 0))
    values = {name: (value, PER_LAYER[name][0],
                     1 if name.startswith("workloads.")
                     else len(groups["traced"]))
              for name, value in metrics.items()}
    accounting = {}
    for group in ("traced", "replay"):
        ops = [op for op in groups.get(group, []) if "times" in op]
        if ops:
            accounting[group] = {
                "ops": len(ops),
                "wall_s": sum(op["wall"] for op in ops),
                "layers": layer_table(ops)}
    ops = [op for name in ("untraced", "traced", "replay")
           for op in groups.get(name, [])]
    return {"ops": ops, "values": values, "declared": "per_layer",
            "notes": notes, "accounting": accounting}


def report_lines(workload, args, env: dict, outcome: dict) -> list[str]:
    from metrics import (END_TO_END, PER_LAYER, YARDSTICK_REF_S, iqr,
                         median, op_seconds, percentile)

    ops = outcome["ops"]
    failed = sum(1 for op in ops if op["failure"])
    lines = [f"perfbench {workload.name} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "env: " + json.dumps(env),
             f"workload: loop={workload.loop} callers={workload.callers} "
             + json.dumps(workload.inputs)]
    for name, (value, unit, count) in outcome["values"].items():
        if name in END_TO_END:
            note = f"n={count}  {END_TO_END[name][1]}"
        else:
            _, _, moves, works = PER_LAYER[name]
            note = f"n={count}  moves {moves} on {works}"
            if name in outcome["notes"]:
                note += f"  ({outcome['notes'][name]})"
        lines.append(f"  {name:<30} {value:>16.6f} {unit:<8} {note}")
    if any("yardstick" in op for op in ops):
        raw = [seconds * 1000.0 for seconds in op_seconds(ops, adjust=False)]
        sticks = [op["yardstick"] * 1000.0 for op in ops]
        lines.append(f"  times above are at the yardstick's reference "
                     f"speed ({YARDSTICK_REF_S * 1000.0:.1f} ms); as "
                     f"measured: p50 {median(raw):.3f} ms, p90 "
                     f"{percentile(raw, 0.9):.3f} ms, yardstick median "
                     f"{median(sticks):.3f} ms IQR {iqr(sticks):.3f} ms")
    lines.append(f"  {'error_rate':<30} {failed / max(len(ops), 1):>16.6f} "
                 f"{'ratio':<8} {failed} failed / {len(ops)} attempted "
                 f"(failed, refused, wrong-output or degraded)")
    reasons = sorted({op["failure"] for op in ops if op["failure"]})
    if reasons:
        lines.append("  failures: " + "; ".join(reasons))
    lines.append("output check: fires on a deliberately wrong reference")
    for group, table in outcome.get("accounting", {}).items():
        layers = sum(row[1] for row in table["layers"])
        lines.append(f"accounting ({group}, {table['ops']} ops): layer self "
                     f"times + unattributed = {layers:.6f} s; traced wall "
                     f"= {table['wall_s']:.6f} s")
        for layer, total, per_op, spread in table["layers"]:
            share = total / table["wall_s"] if table["wall_s"] else 0.0
            lines.append(f"  {layer:<22} total {total:10.6f} s "
                         f"{share:7.2%}  per op median {per_op:.6f} s "
                         f"IQR {spread:.6f} s")
    if workload.name == "rerun-pool" and args.trace:
        lines.append("note: indexes_built and sample_store_hits depend on "
                     "which worker runs which unit (median and IQR over "
                     "pool batches); store.* and the other worker-side "
                     "layers are timed on a serial replay of the same "
                     "batch, because under the process executor "
                     "batch.stats['store'] is empty")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            outcome = run_traced(workload, args.seconds)
        else:
            outcome = run_untraced(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    names = list(outcome["values"])
    if names != declared(outcome["declared"]):
        raise RuntimeError("metrics differ from BENCHMARK.json's "
                           f"{outcome['declared']} list")
    for line in report_lines(workload, args, environment(), outcome):
        print(line)
    failed = sum(1 for op in outcome["ops"] if op["failure"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcome["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome["values"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
