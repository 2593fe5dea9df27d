"""Integration: the paper's theorems hold empirically.

These are the statistical acceptance tests of the reproduction — scaled
versions of the benchmark experiments, sized to run in seconds. Each
trial calls the SampleCF facade with its own ``spawn_rngs`` Generator,
so the facade's Generator-seed path stays under test.
"""

import math

import numpy as np
import pytest

from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.core.bounds import (dict_large_d_bound, dict_small_d_bound,
                               ns_stddev_bound)
from repro.core.cf_models import ns_cf, global_dictionary_cf
from repro.core.metrics import ErrorSummary, ratio_error
from repro.core.samplecf import SampleCF
from repro.sampling.rng import spawn_rngs
from repro.workloads.generators import make_histogram

K = 20
P = 2


class TestTheorem1:
    """CF'_NS is unbiased; sigma <= (1/2) sqrt(1/(f n))."""

    @pytest.mark.parametrize("distribution,d", [
        ("uniform", 50), ("zipf", 500), ("singleton_heavy", 20_000)])
    def test_unbiased_and_bounded(self, distribution, d):
        histogram = make_histogram(50_000, d, K,
                                   distribution=distribution, seed=3)
        truth = ns_cf(histogram)
        estimator = SampleCF(NullSuppression())
        f = 0.01
        estimates = np.asarray([
            estimator.estimate_histogram(histogram, f, seed=rng).estimate
            for rng in spawn_rngs(7, 200)])
        summary = ErrorSummary.from_estimates(truth, estimates)
        bound = ns_stddev_bound(n=histogram.n, f=f)
        # Unbiased: |bias| within 4 standard errors of the mean.
        standard_error = bound / math.sqrt(summary.trials)
        assert abs(summary.bias) <= 4 * standard_error
        # Theorem 1: measured sigma below the worst-case bound.
        assert summary.std <= bound

    def test_bound_scales_with_fraction(self):
        histogram = make_histogram(20_000, 100, K, seed=5)
        truth = ns_cf(histogram)
        estimator = SampleCF(NullSuppression())
        stds = []
        for f in (0.005, 0.05):
            estimates = np.asarray([
                estimator.estimate_histogram(histogram, f, seed=rng).estimate
                for rng in spawn_rngs(11, 150)])
            summary = ErrorSummary.from_estimates(truth, estimates)
            assert summary.std <= ns_stddev_bound(n=histogram.n, f=f)
            stds.append(summary.std)
        assert stds[1] < stds[0]  # larger samples, tighter estimates


class TestTheorem2:
    """Small d: expected ratio error approaches 1 as n grows."""

    def test_ratio_error_shrinks_with_n(self):
        """Convergence needs d*k/(r*p) -> 0: with d = sqrt(n) and
        f = 1% that means n in the millions — cheap on the histogram
        path."""
        f = 0.01
        estimator = SampleCF(GlobalDictionaryCompression(pointer_bytes=P))
        mean_errors = []
        for n in (100_000, 2_500_000):
            d = max(2, int(math.isqrt(n)))
            histogram = make_histogram(n, d, K, seed=42)
            truth = global_dictionary_cf(histogram, pointer_bytes=P)
            estimates = np.asarray([
                estimator.estimate_histogram(histogram, f, seed=rng).estimate
                for rng in spawn_rngs(13, 60)])
            errors = np.maximum(truth / estimates, estimates / truth)
            bound = dict_small_d_bound(n, d, K, P, f).bound
            assert errors.max() <= bound + 1e-9
            mean_errors.append(errors.mean())
        assert mean_errors[1] < mean_errors[0]
        assert mean_errors[1] < 1.9


class TestTheorem3:
    """Large d (alpha n): expected ratio error bounded by a constant."""

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_constant_bound_across_n(self, alpha):
        f = 0.02
        estimator = SampleCF(GlobalDictionaryCompression(pointer_bytes=P))
        bound = dict_large_d_bound(alpha, f, K, P).bound
        for n in (20_000, 80_000):
            d = int(alpha * n)
            histogram = make_histogram(
                n, d, K, distribution="singleton_heavy", seed=n + 1)
            truth = global_dictionary_cf(histogram, pointer_bytes=P)
            estimates = np.asarray([
                estimator.estimate_histogram(histogram, f, seed=rng).estimate
                for rng in spawn_rngs(17, 40)])
            errors = np.maximum(truth / estimates, estimates / truth)
            assert errors.mean() <= bound

    def test_error_does_not_grow_with_n(self):
        alpha, f = 0.5, 0.02
        estimator = SampleCF(GlobalDictionaryCompression(pointer_bytes=P))
        means = []
        for n in (10_000, 160_000):
            histogram = make_histogram(
                n, int(alpha * n), K, distribution="singleton_heavy",
                seed=n)
            truth = global_dictionary_cf(histogram, pointer_bytes=P)
            estimates = np.asarray([
                estimator.estimate_histogram(histogram, f, seed=rng).estimate
                for rng in spawn_rngs(19, 40)])
            errors = np.maximum(truth / estimates, estimates / truth)
            means.append(errors.mean())
        # 16x more rows must not inflate the error materially.
        assert means[1] <= means[0] * 1.25


class TestDictionaryBias:
    """Table II: the dictionary estimator is biased (unlike NS)."""

    def test_bias_direction_uniform_moderate_counts(self):
        """With d = n/10 (each value ~10 copies) and f = 1%, almost
        every sampled row contributes a *new* distinct value, so d'/r
        vastly overshoots d/n — the textbook biased case."""
        n, d, f = 40_000, 4_000, 0.01
        histogram = make_histogram(n, d, K, distribution="uniform",
                                   seed=23)
        truth = global_dictionary_cf(histogram, pointer_bytes=P)
        estimator = SampleCF(GlobalDictionaryCompression(pointer_bytes=P))
        estimates = np.asarray([
            estimator.estimate_histogram(histogram, f, seed=rng).estimate
            for rng in spawn_rngs(29, 100)])
        summary = ErrorSummary.from_estimates(truth, estimates)
        standard_error = max(summary.std / math.sqrt(100), 1e-9)
        assert summary.bias > 5 * standard_error  # clearly biased (up)

    def test_ns_not_biased_same_workload(self):
        n, d, f = 40_000, 30_000, 0.01
        histogram = make_histogram(n, d, K,
                                   distribution="singleton_heavy",
                                   seed=23)
        truth = ns_cf(histogram)
        estimator = SampleCF(NullSuppression())
        estimates = np.asarray([
            estimator.estimate_histogram(histogram, f, seed=rng).estimate
            for rng in spawn_rngs(31, 100)])
        summary = ErrorSummary.from_estimates(truth, estimates)
        standard_error = summary.std / math.sqrt(100)
        assert abs(summary.bias) <= 4 * max(standard_error, 1e-9)
