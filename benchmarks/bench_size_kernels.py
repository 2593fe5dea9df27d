"""Experiment `size-kernels` — scalar vs. vectorized size-only kernels.

The estimator's inner loop is "compute the compressed size of every
leaf of the sample index"; the scalar path builds full self-describing
blobs per leaf and keeps only ``payload_size``. This bench times, per
registered codec, ``Index.estimate_compression`` on the paper's
canonical clustered CHAR index twice: on the scalar route (with
``REPRO_DISABLE_KERNELS=1``) and on the size-only kernels, and checks
the two report bit-identical results (the parity contract the engine
and the persistent store rely on).

Two kernel timings are reported:

* ``cold`` — the index's column views, and with them every array
  derived on them (value codes included), are rebuilt inside the
  timed region (a single-estimate worst case);
* ``shared`` — views already built, as in an engine batch, where every
  algorithm and trial over one sample index reuses them.

Run it directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_size_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_size_kernels.py --smoke   # CI

The committed full-mode ``benchmarks/results/BENCH_size_kernels.json``
is the perf baseline; the acceptance gate for this experiment is a
>= 3x cold speedup for null suppression and dictionary. Every
registered codec has a kernel, the ``null_suppression_runs`` mode
included, so every row times the kernel route against the scalar one.
The README quotes the baseline's figures, and
``tests/test_docs_from_data.py`` holds them equal.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import RESULTS_DIR, emit_result  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.compression.kernels import DISABLE_KERNELS_ENV  # noqa: E402
from repro.compression.registry import get_algorithm, list_algorithms  # noqa: E402
from repro.storage.index import Index, IndexKind  # noqa: E402
from repro.workloads.generators import make_table  # noqa: E402

MASTER_SEED = 5100


def build_index(smoke: bool) -> Index:
    """The paper's canonical shape: a clustered CHAR(24) index."""
    rows = 6_000 if smoke else 60_000
    distinct = 400 if smoke else 3_000
    table = make_table(rows, distinct, 24, distribution="zipf",
                       page_size=8192, seed=MASTER_SEED)
    return Index.over(table, ["a"], kind=IndexKind.CLUSTERED,
                      page_size=8192)


def best_of(callable_, repeats: int) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs (plus the last result)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - start)
    return best, value


def scalar(index: Index, algorithm) -> object:
    """``estimate_compression`` with the size kernels switched off."""
    saved = os.environ.get(DISABLE_KERNELS_ENV)
    os.environ[DISABLE_KERNELS_ENV] = "1"
    try:
        return index.estimate_compression(algorithm)
    finally:
        if saved is None:
            del os.environ[DISABLE_KERNELS_ENV]
        else:
            os.environ[DISABLE_KERNELS_ENV] = saved


def run(smoke: bool, output: pathlib.Path) -> dict:
    repeats = 3 if smoke else 5
    index = build_index(smoke)
    size = index.size()

    codecs = {}
    for name in sorted(list_algorithms()):
        algorithm = get_algorithm(name)
        scalar_s, reference = best_of(
            lambda: scalar(index, algorithm), repeats)

        def cold():
            index._views = None  # every derived array lives on the views
            return index.estimate_compression(algorithm)

        cold_s, kernel = best_of(cold, repeats)
        shared_s, shared = best_of(
            lambda: index.estimate_compression(algorithm), repeats)
        if not (reference == kernel == shared):
            raise AssertionError(
                f"{name}: size-only result diverged from the scalar "
                f"route — the parity contract is broken")
        codecs[name] = {
            "scalar_s": round(scalar_s, 6),
            "kernel_cold_s": round(cold_s, 6),
            "kernel_shared_s": round(shared_s, 6),
            "speedup_cold": round(scalar_s / cold_s, 2),
            "speedup_shared": round(scalar_s / shared_s, 2),
            "compressed_payload": reference.details["compressed_payload"],
        }

    report = {
        "experiment": "size-kernels",
        "version": __version__,
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "workload": {
            "rows": index.num_entries,
            "leaf_pages": size.leaf_pages,
            "payload_bytes": size.payload_bytes,
            "page_size": index.page_size,
            "repeats": repeats,
        },
        "codecs": codecs,
        "acceptance": {
            "required_cold_speedup": 3.0,
            "null_suppression_cold": codecs["null_suppression"]
            ["speedup_cold"],
            "dictionary_cold": codecs["dictionary"]["speedup_cold"],
        },
        "parity": "bit-identical (asserted per codec)",
    }
    emit_result("size_kernels", report,
                parameters={"mode": "smoke" if smoke else "full"},
                output=output)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time scalar vs. vectorized size-only compression "
                    "kernels per codec.")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized index (seconds, not minutes)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=RESULTS_DIR / "BENCH_size_kernels.json",
                        help="where to write the JSON baseline")
    args = parser.parse_args(argv)
    report = run(args.smoke, args.output)
    print(json.dumps(report, indent=2))
    print(f"\nbaseline written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
