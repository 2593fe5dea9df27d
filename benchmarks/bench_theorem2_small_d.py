"""Experiment `thm2` — Theorem 2: dictionary compression, small d.

With ``d(n) = o(n)`` and a fixed sampling fraction, the ``p/k`` term of
the simplified model dominates and SampleCF's expected ratio error
approaches 1 as n grows. We sweep n with ``d = ceil(sqrt(n))`` and
overlay the deterministic bound ``1 + d k / (f n p)`` — the series the
paper's figure for Theorem 2 would plot.
"""

from __future__ import annotations

import math

import pytest

from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.core.bounds import dict_small_d_bound
from repro.core.cf_models import global_dictionary_cf
from repro.engine.requests import EstimationRequest, derive_seed
from repro.experiments.report import format_table
from repro.experiments.runner import engine_sweep
from repro.workloads.generators import make_histogram

from _common import bench_engine, emit_result

K = 20
P = 2
F = 0.01
TRIALS = 40
# With d = sqrt(n), f = 1%, k = 20, p = 2 the bound is 1 + 1000/sqrt(n):
# the last point (n = 100M, the paper's Example 1 scale) brings it to
# 1.1. Only the histogram fast path makes that point affordable.
SIZES = (10_000, 100_000, 1_000_000, 10_000_000, 100_000_000)


def _sweep(sizes) -> list[dict]:
    """The whole size series as one engine_sweep batch."""
    def make(n: int):
        d = max(2, math.isqrt(n))
        histogram = make_histogram(n, d, K, distribution="zipf",
                                   seed=500 + d)
        truth = global_dictionary_cf(histogram, pointer_bytes=P)
        request = EstimationRequest(
            histogram=histogram,
            algorithm=GlobalDictionaryCompression(pointer_bytes=P),
            fraction=F, label=f"thm2_n{n}")
        return truth, request, {"d": d}

    points = []
    engine = bench_engine(derive_seed("thm2", "trials"))
    for point in engine_sweep(sizes, make, trials=TRIALS,
                              engine=engine):
        n = point.parameter
        d = point.extra["d"]
        points.append({
            "n": n,
            "d": d,
            "truth": point.summary.true_value,
            "mean_error": point.summary.mean_ratio_error,
            "max_error": point.summary.max_ratio_error,
            "bound": dict_small_d_bound(n, d, K, P, F).bound,
        })
    return points


@pytest.fixture(scope="module")
def series() -> list[dict]:
    return _sweep(SIZES)


def test_thm2_sweep(benchmark, series):
    benchmark.pedantic(lambda: _sweep(SIZES[:1]), rounds=1, iterations=1)
    rows = [[f"{point['n']:,}", f"{point['d']:,}",
             f"{point['truth']:.5f}", f"{point['mean_error']:.4f}",
             f"{point['max_error']:.4f}", f"{point['bound']:.4f}"]
            for point in series]
    emit_result(
        "thm2", series,
        parameters={"k": K, "p": P, "fraction": F, "trials": TRIALS,
                    "sizes": list(SIZES)},
        text=format_table(
            ["n", "d = sqrt(n)", "true CF", "mean ratio err",
             "max ratio err", "bound 1 + dk/(fnp)"], rows,
            title=f"Theorem 2 — small d (f={F:.0%}, {TRIALS} "
                  f"trials/point)"))
    # Assert the theorem's claims inside the bench run too (the
    # granular tests below are skipped under --benchmark-only).
    test_thm2_all_points_within_bound(series)
    test_thm2_error_converges_to_one(series)
    test_thm2_bound_converges_to_one(series)


def test_thm2_all_points_within_bound(series):
    for point in series:
        assert point["max_error"] <= point["bound"] + 1e-9, point["n"]


def test_thm2_error_converges_to_one(series):
    errors = [point["mean_error"] for point in series]
    assert errors[-1] < errors[0]
    assert errors[-1] < 1.15  # at n = 100M the bound itself is 1.1
    # Monotone decrease across the sweep (allowing tiny noise).
    for before, after in zip(errors, errors[1:]):
        assert after <= before * 1.05


def test_thm2_bound_converges_to_one(series):
    bounds = [point["bound"] for point in series]
    assert bounds[-1] <= 1.11
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
