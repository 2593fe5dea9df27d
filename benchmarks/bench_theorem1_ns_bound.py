"""Experiment `thm1` — Theorem 1: NS unbiasedness and the std-dev bound.

Sweeps the sampling fraction and the value-length distribution, and for
every point compares the measured standard deviation of ``CF'_NS``
against the bound ``(1/2) sqrt(1/(f n))``, plus the sharper
known-range variant. The series printed here is the figure a full-length
version of the paper would plot: sigma vs f, measured under bound.

Each workload's fraction sweep executes as **one**
:func:`engine_sweep` batch (with content-derived seeds, so the series
replays bit-identically across processes); ``REPRO_BENCH_STORE_DIR``
warm-starts repeated regenerations from disk.
"""

from __future__ import annotations

import math

import pytest

from repro.compression.null_suppression import NullSuppression
from repro.core.bounds import ns_stddev_bound, ns_stddev_bound_range
from repro.core.cf_models import ColumnHistogram, ns_cf
from repro.engine.requests import EstimationRequest, derive_seed
from repro.experiments.report import format_table
from repro.experiments.runner import engine_sweep
from repro.workloads.generators import make_histogram

from _common import bench_engine, emit_result

N = 1_000_000
K = 20
TRIALS = 150
FRACTIONS = (0.001, 0.005, 0.01, 0.05, 0.1)

WORKLOADS = {
    "uniform_lengths": dict(distribution="uniform", d=1000, min_len=1,
                            max_len=20),
    "zipf_short": dict(distribution="zipf", d=1000, min_len=2, max_len=8),
    "bimodal": dict(distribution="geometric", d=500, min_len=None,
                    max_len=None),
}


def _histogram(name: str) -> ColumnHistogram:
    params = WORKLOADS[name]
    # derive_seed, not hash(): PYTHONHASHSEED randomises str hashes per
    # process, and the workload must be identical in every run.
    return make_histogram(N, params["d"], K,
                          distribution=params["distribution"],
                          min_len=params["min_len"],
                          max_len=params["max_len"],
                          seed=derive_seed("thm1", name))


def _sweep(name: str, fractions=FRACTIONS) -> list[dict]:
    histogram = _histogram(name)
    truth = ns_cf(histogram)
    stored = histogram.ns_stored_sizes()
    low = float(stored.min()) / K
    high = float(stored.max()) / K

    def make(fraction):
        request = EstimationRequest(
            histogram=histogram, algorithm=NullSuppression(),
            fraction=fraction, label=f"thm1_{name}")
        return truth, request, {}

    points = []
    engine = bench_engine(derive_seed("thm1", name, "trials"))
    for point in engine_sweep(fractions, make, trials=TRIALS,
                              engine=engine):
        fraction = point.parameter
        r = round(fraction * N)
        points.append({
            "f": fraction,
            "summary": point.summary,
            "bound": ns_stddev_bound(r=r),
            "sharp_bound": ns_stddev_bound_range(r, low, high),
        })
    return points


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def sweep(request):
    return request.param, _sweep(request.param)


def test_thm1_sigma_below_bound(benchmark, sweep):
    name, points = sweep
    benchmark.pedantic(lambda: _sweep(name, FRACTIONS[:1]),
                       rounds=1, iterations=1)
    rows = []
    for point in points:
        summary = point["summary"]
        rows.append([
            f"{point['f']:.3%}",
            f"{summary.true_value:.5f}",
            f"{summary.bias:+.6f}",
            f"{summary.std:.6f}",
            f"{point['bound']:.6f}",
            f"{point['sharp_bound']:.6f}",
        ])
        assert summary.std <= point["bound"], point["f"]
    emit_result(
        f"thm1_{name}",
        [{"f": point["f"],
          "true_cf": point["summary"].true_value,
          "bias": point["summary"].bias,
          "std": point["summary"].std,
          "bound": point["bound"],
          "sharp_bound": point["sharp_bound"]}
         for point in points],
        parameters={"n": N, "k": K, "trials": TRIALS, "workload": name,
                    "fractions": list(FRACTIONS)},
        text=format_table(
            ["f", "true CF", "bias", "measured sigma",
             "Theorem 1 bound", "sharp bound"], rows,
            title=f"Theorem 1 — {name} (n={N:,}, {TRIALS} "
                  f"trials/point)"))
    # Granular tests are skipped under --benchmark-only; assert here.
    test_thm1_unbiased_at_every_fraction(sweep)
    test_thm1_sigma_scales_with_sqrt_f(sweep)
    test_thm1_sharp_bound_tighter(sweep)


def test_thm1_unbiased_at_every_fraction(sweep):
    _name, points = sweep
    for point in points:
        summary = point["summary"]
        standard_error = max(summary.std / math.sqrt(summary.trials),
                             1e-12)
        assert abs(summary.bias) <= 5 * standard_error, point["f"]


def test_thm1_sigma_scales_with_sqrt_f(sweep):
    """sigma should fall ~sqrt(10) when f rises 10x."""
    _name, points = sweep
    sigma_low = points[0]["summary"].std    # f = 0.1%
    sigma_high = points[2]["summary"].std   # f = 1%
    if sigma_low > 0 and sigma_high > 0:
        observed = sigma_low / sigma_high
        assert 1.5 < observed < 7.0


def test_thm1_sharp_bound_tighter(sweep):
    _name, points = sweep
    for point in points:
        assert point["sharp_bound"] <= point["bound"] + 1e-15
        assert point["summary"].std <= point["sharp_bound"] + 1e-12
