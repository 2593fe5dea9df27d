"""Experiment `thm3` — Theorem 3: dictionary compression, large d.

With ``d >= alpha n`` the sample provably retains a constant fraction of
the distinct values, so the expected ratio error is bounded by a
constant *independent of n*. We sweep n for several alpha and check (a)
the error stays below the analytic constant, and (b) it does not grow
with n — the two halves of the theorem's claim.
"""

from __future__ import annotations

import pytest

from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.core.bounds import dict_large_d_bound
from repro.core.cf_models import global_dictionary_cf
from repro.engine.requests import EstimationRequest, derive_seed
from repro.experiments.report import format_table
from repro.experiments.runner import engine_sweep
from repro.workloads.generators import make_histogram

from _common import bench_engine, emit_result

K = 20
P = 2
F = 0.01
TRIALS = 30
SIZES = (10_000, 100_000, 1_000_000)
ALPHAS = (0.1, 0.25, 0.5, 1.0)


def _sweep(cells) -> dict:
    """The whole (alpha, n) grid as one engine_sweep batch."""
    def make(cell):
        alpha, n = cell
        d = max(1, int(alpha * n))
        if d >= n:
            distribution = "uniform"  # d == n -> all singletons
        else:
            distribution = "singleton_heavy"
        histogram = make_histogram(n, d, K, distribution=distribution,
                                   seed=600 + n % 97)
        truth = global_dictionary_cf(histogram, pointer_bytes=P)
        request = EstimationRequest(
            histogram=histogram,
            algorithm=GlobalDictionaryCompression(pointer_bytes=P),
            fraction=F, label=f"thm3_a{alpha}_n{n}")
        return truth, request, {}

    grid = {}
    engine = bench_engine(derive_seed("thm3", "trials"))
    for point in engine_sweep(cells, make, trials=TRIALS,
                              engine=engine):
        alpha, n = point.parameter
        grid[(alpha, n)] = {
            "alpha": alpha,
            "n": n,
            "truth": point.summary.true_value,
            "mean_error": point.summary.mean_ratio_error,
            "bound": dict_large_d_bound(alpha, F, K, P).bound,
        }
    return grid


@pytest.fixture(scope="module")
def grid() -> dict:
    return _sweep([(alpha, n) for alpha in ALPHAS for n in SIZES])


def test_thm3_sweep(benchmark, grid):
    benchmark.pedantic(lambda: _sweep([(0.5, 10_000)]),
                       rounds=1, iterations=1)
    rows = []
    for alpha in ALPHAS:
        for n in SIZES:
            point = grid[(alpha, n)]
            rows.append([f"{alpha:.2f}", f"{n:,}",
                         f"{point['truth']:.4f}",
                         f"{point['mean_error']:.4f}",
                         f"{point['bound']:.3f}"])
    emit_result(
        "thm3",
        [grid[(alpha, n)] for alpha in ALPHAS for n in SIZES],
        parameters={"k": K, "p": P, "fraction": F, "trials": TRIALS,
                    "sizes": list(SIZES), "alphas": list(ALPHAS)},
        text=format_table(
            ["alpha = d/n", "n", "true CF", "mean ratio err",
             "constant bound"], rows,
            title=f"Theorem 3 — large d (f={F:.0%}, {TRIALS} "
                  f"trials/point)"))
    # Assert the theorem's claims inside the bench run too (the
    # granular tests below are skipped under --benchmark-only).
    test_thm3_error_below_constant(grid)
    test_thm3_error_does_not_grow_with_n(grid)
    test_thm3_larger_alpha_easier(grid)
    test_thm3_bound_independent_of_n(grid)


def test_thm3_error_below_constant(grid):
    """Mean ratio error under the constant, with 1% Jensen slack.

    The analytic constant bounds the ratio of expectations; the
    *expected ratio* exceeds it by lower-order terms (documented in
    :func:`dict_large_d_bound`), so the empirical check allows 1%.
    """
    for (alpha, n), point in grid.items():
        assert point["mean_error"] <= point["bound"] * 1.01, (alpha, n)


def test_thm3_error_does_not_grow_with_n(grid):
    for alpha in ALPHAS:
        smallest = grid[(alpha, SIZES[0])]["mean_error"]
        largest = grid[(alpha, SIZES[-1])]["mean_error"]
        assert largest <= smallest * 1.3, alpha


def test_thm3_larger_alpha_easier(grid):
    """More distinct values -> the sample retains proportionally more."""
    n = SIZES[-1]
    errors = [grid[(alpha, n)]["mean_error"] for alpha in ALPHAS]
    assert errors[-1] <= errors[0] + 0.05


def test_thm3_bound_independent_of_n(grid):
    for alpha in ALPHAS:
        bounds = {grid[(alpha, n)]["bound"] for n in SIZES}
        assert len(bounds) == 1
