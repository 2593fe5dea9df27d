"""Experiment `ex1` — Example 1 at the paper's true scale.

"Suppose that table T has n = 100 million rows [and] we draw a sample of
size r = 1 million (a 1% sample). Then Theorem 1 implies that the
standard deviation of CF'_NS is at most 0.0005."

The histogram fast path makes the literal scale tractable: uniform row
sampling over 100M rows is a multinomial draw over the value histogram,
so each trial costs milliseconds instead of a 100M-row table scan. The
substitution is exact in distribution, which
``tests/integration/test_model_vs_storage.py`` checks against the
storage path.
"""

from __future__ import annotations

import math

import pytest

from repro.compression.null_suppression import NullSuppression
from repro.core.bounds import example1, ns_stddev_bound
from repro.core.cf_models import ns_cf
from repro.core.metrics import ErrorSummary
from repro.core.samplecf import SampleCF
from repro.engine import EstimationEngine, EstimationRequest
from repro.experiments.report import format_table
from repro.workloads.generators import make_histogram

from _common import write_report

N = 100_000_000
R = 1_000_000
F = R / N
K = 20
TRIALS = 60


@pytest.fixture(scope="module")
def measurements() -> dict:
    histogram = make_histogram(N, 5_000, K, distribution="zipf",
                               min_len=2, max_len=18, seed=404)
    truth = ns_cf(histogram)
    request = EstimationRequest(histogram=histogram,
                                algorithm=NullSuppression(), fraction=F,
                                trials=TRIALS)
    estimates = EstimationEngine(seed=405).estimate(request).values
    return {"histogram": histogram,
            "summary": ErrorSummary.from_estimates(truth, estimates)}


def test_ex1_single_estimate_throughput(benchmark, measurements):
    """Time one full 1M-row estimate at the 100M-row scale."""
    histogram = measurements["histogram"]
    estimator = SampleCF(NullSuppression())
    estimate = benchmark(estimator.estimate_histogram, histogram, F, 42)
    assert estimate.sample_rows == R
    # The granular tests below are skipped under --benchmark-only, so
    # Example 1's claims are asserted here as well.
    test_ex1_sigma_below_paper_bound(measurements)
    test_ex1_unbiased(measurements)
    test_ex1_bound_matches_formula(measurements)


def test_ex1_sigma_below_paper_bound(measurements):
    paper = example1()
    summary = measurements["summary"]
    assert paper["stddev_bound"] == pytest.approx(0.0005)
    assert summary.std <= paper["stddev_bound"]

    rows = [
        ["n (rows)", f"{N:,}"],
        ["r (sample)", f"{R:,} (f = {F:.0%})"],
        ["paper bound on sigma", f"{paper['stddev_bound']:.6f}"],
        ["measured sigma", f"{summary.std:.6f}"],
        ["measured |bias|", f"{abs(summary.bias):.7f}"],
        ["true CF", f"{summary.true_value:.6f}"],
        ["trials", str(summary.trials)],
    ]
    write_report("ex1", format_table(
        ["Example 1 quantity", "value"], rows,
        title="Example 1 at paper scale (100M rows, 1M-row samples)"))


def test_ex1_unbiased(measurements):
    summary = measurements["summary"]
    standard_error = max(summary.std / math.sqrt(summary.trials), 1e-12)
    assert abs(summary.bias) <= 5 * standard_error


def test_ex1_bound_matches_formula(measurements):
    assert ns_stddev_bound(n=N, f=F) == pytest.approx(0.0005)
