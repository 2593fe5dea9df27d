"""Experiment `abl-replacement` — sampling-design ablation.

The paper's analysis assumes uniform sampling *with replacement*
(Section II-C). Real systems use without-replacement row sampling,
Bernoulli scans, or reservoir sampling over a stream. This ablation
measures whether the design choice matters for the estimator at equal
sampling fraction. (Spoiler: without-replacement is never worse — the
finite-population correction only shrinks variance — so the paper's
with-replacement analysis is the conservative one.)
"""

from __future__ import annotations

import pytest

from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.row_samplers import (BernoulliSampler,
                                         WithoutReplacementSampler,
                                         WithReplacementSampler)
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.core.cf_models import global_dictionary_cf, ns_cf
from repro.core.metrics import ErrorSummary
from repro.core.samplecf import SampleCF
from repro.engine import EstimationEngine, EstimationRequest
from repro.engine.requests import derive_seed
from repro.experiments.report import format_table
from repro.workloads.generators import make_histogram

from _common import write_report

N = 1_000_000
K = 20
P = 2
TRIALS = 100
FRACTIONS = (0.01, 0.1)


def _designs(fraction: float) -> dict:
    return {
        "with_replacement": WithReplacementSampler(),
        "without_replacement": WithoutReplacementSampler(),
        "bernoulli": BernoulliSampler(fraction),
        "reservoir": ReservoirSampler(),
    }


@pytest.fixture(scope="module")
def grid() -> dict:
    histogram = make_histogram(N, 5_000, K, seed=1000)
    truths = {
        "null_suppression": ns_cf(histogram),
        "global_dictionary": global_dictionary_cf(histogram,
                                                  pointer_bytes=P),
    }
    algorithms = {
        "null_suppression": NullSuppression(),
        "global_dictionary": GlobalDictionaryCompression(pointer_bytes=P),
    }
    results: dict = {}
    for fraction in FRACTIONS:
        for design_name, sampler in _designs(fraction).items():
            for algo_name, algorithm in algorithms.items():
                request = EstimationRequest(
                    histogram=histogram, algorithm=algorithm,
                    fraction=fraction, trials=TRIALS, sampler=sampler)
                # derive_seed, not hash(): PYTHONHASHSEED randomises str
                # hashes per process, so the payload would not replay.
                engine = EstimationEngine(seed=derive_seed(
                    "abl-replacement", design_name, algo_name, fraction))
                estimates = engine.estimate(request).values
                results[(fraction, design_name, algo_name)] = \
                    ErrorSummary.from_estimates(truths[algo_name],
                                                estimates)
    return results


def test_sampling_design_grid(benchmark, grid):
    histogram = make_histogram(100_000, 500, K, seed=1001)
    estimator = SampleCF(NullSuppression(),
                         sampler=WithoutReplacementSampler())
    benchmark.pedantic(estimator.estimate_histogram,
                       args=(histogram, 0.01), kwargs={"seed": 1},
                       rounds=3, iterations=1)
    rows = []
    for (fraction, design, algo), summary in sorted(grid.items()):
        rows.append([f"{fraction:.0%}", design, algo,
                     f"{summary.bias:+.5f}", f"{summary.std:.5f}",
                     f"{summary.mean_ratio_error:.4f}"])
    write_report("abl_sampling_designs", format_table(
        ["f", "design", "algorithm", "bias", "sigma",
         "mean ratio err"], rows,
        title=f"Sampling designs at equal fraction (n={N:,}, "
              f"{TRIALS} trials)"))
    # Granular tests are skipped under --benchmark-only; assert here.
    test_without_replacement_never_noticeably_worse(grid)
    test_reservoir_matches_without_replacement(grid)
    test_bernoulli_comparable(grid)
    test_all_designs_unbiased_for_ns(grid)


def test_without_replacement_never_noticeably_worse(grid):
    for fraction in FRACTIONS:
        for algo in ("null_suppression", "global_dictionary"):
            with_r = grid[(fraction, "with_replacement", algo)]
            without_r = grid[(fraction, "without_replacement", algo)]
            assert without_r.std <= with_r.std * 1.25, (fraction, algo)


def test_reservoir_matches_without_replacement(grid):
    """Reservoir sampling IS uniform without replacement."""
    for fraction in FRACTIONS:
        reservoir = grid[(fraction, "reservoir", "null_suppression")]
        direct = grid[(fraction, "without_replacement",
                       "null_suppression")]
        assert reservoir.std == pytest.approx(direct.std, rel=0.5,
                                              abs=1e-4)


def test_bernoulli_comparable(grid):
    """Bernoulli's random size adds little at these scales."""
    for fraction in FRACTIONS:
        bernoulli = grid[(fraction, "bernoulli", "null_suppression")]
        fixed = grid[(fraction, "with_replacement", "null_suppression")]
        assert bernoulli.mean_ratio_error <= \
            fixed.mean_ratio_error * 1.25


def test_all_designs_unbiased_for_ns(grid):
    import math

    for (fraction, design, algo), summary in grid.items():
        if algo != "null_suppression":
            continue
        standard_error = max(summary.std / math.sqrt(summary.trials),
                             1e-12)
        assert abs(summary.bias) <= 6 * standard_error, (fraction, design)
