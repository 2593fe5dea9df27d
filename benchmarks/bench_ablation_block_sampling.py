"""Experiment `abl-block` — tuple vs block-level sampling.

The paper assumes uniform tuple sampling and defers block (page)
sampling to future work, noting commercial systems sample pages. This
ablation measures what that substitution costs: at an equal row budget,
page sampling delivers correlated rows, and the measured effect cuts in
*opposite directions* for the two techniques on a clustered layout:

* for **null suppression** correlation hurts — one page holds values of
  similar length, so the effective sample is smaller and noisier;
* for **dictionary compression** correlation *helps* — pages are
  contiguous key runs, so the sampled distinct-per-row rate ``d'/r``
  stays proportional to ``d/n`` instead of saturating at
  ``min(d, r)/r`` the way tuple samples do.

On a shuffled (heap) layout pages are effectively random row sets and
block sampling matches tuple sampling for both techniques.
"""

from __future__ import annotations

import pytest

from repro.sampling.block import BlockSampler
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.core.metrics import ErrorSummary
from repro.core.samplecf import SampleCF, true_cf_table
from repro.engine import EstimationEngine, EstimationRequest
from repro.experiments.report import format_table
from repro.workloads.generators import histogram_to_table, make_histogram

from _common import write_report

N = 50_000
K = 20
PAGE = 4096
F = 0.01
TRIALS = 30


@pytest.fixture(scope="module")
def tables() -> dict:
    histogram = make_histogram(N, 500, K, seed=800)
    return {
        "histogram": histogram,
        "sorted": histogram_to_table(histogram, order="sorted",
                                     page_size=PAGE),
        "shuffled": histogram_to_table(histogram, order="shuffled",
                                       page_size=PAGE, seed=801),
    }


def _error_summary(table, algorithm, sampler, truth, seed) -> ErrorSummary:
    request = EstimationRequest(table=table, columns=("a",),
                                algorithm=algorithm, fraction=F,
                                trials=TRIALS, sampler=sampler,
                                page_size=PAGE)
    estimates = EstimationEngine(seed=seed).estimate(request).values
    return ErrorSummary.from_estimates(truth, estimates)


@pytest.fixture(scope="module")
def grid(tables) -> dict:
    results = {}
    for algo_name, algorithm in (
            ("null_suppression", NullSuppression()),
            ("global_dictionary", GlobalDictionaryCompression())):
        for layout in ("sorted", "shuffled"):
            table = tables[layout]
            truth = true_cf_table(table, ["a"], algorithm,
                                  page_size=PAGE)
            results[(algo_name, layout, "tuple")] = _error_summary(
                table, algorithm, None, truth, 11)
            results[(algo_name, layout, "block")] = _error_summary(
                table, algorithm, BlockSampler(), truth, 13)
    return results


def test_block_vs_tuple_grid(benchmark, grid, tables):
    estimator = SampleCF(NullSuppression(), sampler=BlockSampler(),
                         page_size=PAGE)
    benchmark.pedantic(
        estimator.estimate_table,
        args=(tables["shuffled"], F, ["a"]), kwargs={"seed": 5},
        rounds=3, iterations=1)
    rows = []
    for (algo, layout, design), summary in sorted(grid.items()):
        rows.append([algo, layout, design,
                     f"{summary.mean_ratio_error:.4f}",
                     f"{summary.std:.5f}"])
    write_report("abl_block", format_table(
        ["algorithm", "layout", "sampling", "mean ratio err", "sigma"],
        rows,
        title=f"Tuple vs block sampling (n={N:,}, f={F:.0%}, "
              f"{TRIALS} trials)"))
    # Granular tests are skipped under --benchmark-only; assert here.
    test_block_on_shuffled_layout_matches_tuple(grid)
    test_block_on_clustered_layout_opposite_effects(grid)
    test_tuple_sampling_layout_invariant(grid)


def test_block_on_shuffled_layout_matches_tuple(grid):
    """Random layout: pages are effectively random row sets, so block
    sampling inherits tuple sampling's accuracy (including the
    dictionary estimator's d'/r overshoot — that error belongs to the
    estimator, not the sampling design)."""
    for algo in ("null_suppression", "global_dictionary"):
        block = grid[(algo, "shuffled", "block")].mean_ratio_error
        tuple_ = grid[(algo, "shuffled", "tuple")].mean_ratio_error
        assert block == pytest.approx(tuple_, rel=0.25)
    assert grid[("null_suppression", "shuffled",
                 "block")].mean_ratio_error < 1.3


def test_block_on_clustered_layout_opposite_effects(grid):
    """Clustered layout: block sampling hurts NS but rescues the
    dictionary estimator (contiguous key runs keep d'/r proportional
    to d/n)."""
    ns_block = grid[("null_suppression", "sorted",
                     "block")].mean_ratio_error
    ns_tuple = grid[("null_suppression", "sorted",
                     "tuple")].mean_ratio_error
    assert ns_block > ns_tuple

    dict_block = grid[("global_dictionary", "sorted",
                       "block")].mean_ratio_error
    dict_tuple = grid[("global_dictionary", "sorted",
                       "tuple")].mean_ratio_error
    assert dict_block < dict_tuple
    assert dict_block < 1.5


def test_tuple_sampling_layout_invariant(grid):
    """Uniform tuple sampling cannot see the physical layout."""
    for algo in ("null_suppression", "global_dictionary"):
        sorted_error = grid[(algo, "sorted", "tuple")].mean_ratio_error
        shuffled_error = grid[(algo, "shuffled",
                               "tuple")].mean_ratio_error
        assert abs(sorted_error - shuffled_error) < 0.25
