"""Confidence intervals for compression-fraction estimates.

Two complementary constructions:

* :func:`ns_confidence_interval` — distribution-free normal interval for
  null suppression, powered by Theorem 1's standard-deviation bound.
  Because the bound is worst-case, the interval is conservative (its
  actual coverage exceeds the nominal level), which the tests verify.
* :func:`bootstrap_cf_ci` — percentile bootstrap over the *sample
  histogram*: resample ``r`` rows from the sample with replacement,
  recompute the plug-in CF, take percentiles. Works for any algorithm
  with a histogram model (including dictionary compression, where no
  clean parametric interval exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.sampling.rng import SeedLike, make_rng
from repro.sampling.row_samplers import WithReplacementSampler
from repro.compression.base import CompressionAlgorithm
from repro.core.bounds import CFInterval, ns_stddev_bound_range
from repro.core.cf_models import ColumnHistogram


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    estimate: float
    low: float
    high: float
    confidence: float
    method: str

    def __post_init__(self) -> None:
        if not self.low <= self.estimate <= self.high:
            raise EstimationError(
                f"malformed interval [{self.low}, {self.high}] around "
                f"{self.estimate}")

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def _z_value(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise EstimationError(
            f"confidence must be in (0, 1), got {confidence}")
    from scipy.special import ndtri  # local: importing scipy is slow

    return float(ndtri(0.5 + confidence / 2.0))


def ns_confidence_interval(estimate: float, r: int,
                           confidence: float = 0.95,
                           stored_fraction_range: tuple[float, float] =
                           (0.0, 1.0)) -> ConfidenceInterval:
    """Conservative normal interval for a null-suppression estimate.

    Theorem 1 bounds the estimator's standard deviation by
    ``(b - a) / (2 sqrt(r))`` where ``[a, b]`` contains the per-tuple
    stored fraction (``[0, 1]`` with no further knowledge); the interval
    is ``estimate ± z * bound`` clipped to the feasible CF range.
    """
    if r <= 0:
        raise EstimationError(f"sample size must be positive, got {r}")
    low_fraction, high_fraction = stored_fraction_range
    sigma = ns_stddev_bound_range(r, low_fraction, high_fraction)
    z = _z_value(confidence)
    half = z * sigma
    return ConfidenceInterval(
        estimate=estimate,
        low=max(0.0, estimate - half),
        high=min(1.0, max(estimate, estimate + half)),
        confidence=confidence,
        method="normal_theorem1")


def bootstrap_cf_ci(sample: ColumnHistogram,
                    algorithm: CompressionAlgorithm,
                    confidence: float = 0.95,
                    n_boot: int = 200,
                    seed: SeedLike = None,
                    **layout) -> ConfidenceInterval:
    """Percentile bootstrap interval from a sampled histogram.

    Resamples the observed sample (with replacement, same size), so it
    captures the sampling variability of the plug-in CF without any
    distributional assumption. Note that for dictionary compression the
    plug-in is *biased* (Section III-B) and the bootstrap inherits that
    bias — the interval is about variability, not about correcting bias.
    """
    if n_boot < 10:
        raise EstimationError(
            f"need at least 10 bootstrap replicates, got {n_boot}")
    rng = make_rng(seed)
    sampler = WithReplacementSampler()
    point = float(algorithm.cf_from_histogram(sample, **layout))
    replicates = np.empty(n_boot, dtype=np.float64)
    for b in range(n_boot):
        resample = sampler.sample_histogram(sample, sample.n, rng)
        replicates[b] = algorithm.cf_from_histogram(resample, **layout)
    tail = (1.0 - confidence) / 2.0
    low = float(np.quantile(replicates, tail))
    high = float(np.quantile(replicates, 1.0 - tail))
    return ConfidenceInterval(
        estimate=point,
        low=min(low, point),
        high=max(high, point),
        confidence=confidence,
        method="bootstrap_percentile")


def _mean_extrapolation_halfwidth(sigma_trial: float, t: int,
                                  total_trials: int,
                                  confidence: float) -> float:
    """Half-width of a CI for a ``T``-trial mean seen through ``t`` trials.

    Write ``M_T = (t * M_t + (T - t) * M_rest) / T`` with the trials
    i.i.d. and each trial's estimator having standard deviation at most
    ``sigma_trial``. Then ``M_T - M_t = (T - t)/T * (M_rest - M_t)``
    and ``Var[M_rest - M_t] <= sigma^2 (1/(T - t) + 1/t)``, giving the
    closed-form half-width below. It vanishes at ``t == T``.
    """
    if not 1 <= t <= total_trials:
        raise EstimationError(
            f"observed {t} trials of a {total_trials}-trial estimate")
    if t == total_trials:
        return 0.0
    remaining = total_trials - t
    z = _z_value(confidence)
    spread = math.sqrt(1.0 / remaining + 1.0 / t)
    return z * sigma_trial * (remaining / total_trials) * spread


def ns_trial_mean_interval(values, total_trials: int, r: int,
                           stored_fraction_range: tuple[float, float] =
                           (0.0, 1.0),
                           confidence: float = 0.999) -> CFInterval:
    """Theorem 1 interval for an NS multi-trial mean, from a prefix.

    ``values`` are the first ``t`` trial estimates of a
    ``total_trials``-trial request (each trial over ``r`` sampled
    rows). Theorem 1 bounds every trial's standard deviation by
    ``(b - a) / (2 sqrt(r))``, so the final mean lies within the
    closed-form half-width of the observed partial mean. The interval
    is probabilistic (``deterministic=False``) but doubly conservative:
    Popoviciu is worst-case and the trials are independent.
    """
    if r <= 0:
        raise EstimationError(f"sample size must be positive, got {r}")
    t = len(values)
    low_fraction, high_fraction = stored_fraction_range
    sigma = ns_stddev_bound_range(r, low_fraction, high_fraction)
    half = _mean_extrapolation_halfwidth(sigma, t, total_trials,
                                         confidence)
    mean_t = float(np.mean(np.asarray(values, dtype=np.float64)))
    return CFInterval(max(0.0, mean_t - half), mean_t + half,
                      deterministic=False)


def empirical_trial_mean_interval(values, total_trials: int,
                                  inflation: float = 4.0,
                                  confidence: float = 0.999,
                                  ) -> CFInterval | None:
    """Distribution-free-ish interval for a multi-trial mean.

    For algorithms without a Theorem 1 analogue the only handle on a
    trial's variability is the observed spread itself: the sample
    standard deviation over the first ``t >= 2`` trials, inflated by
    ``inflation`` to hedge against underestimating sigma from few
    observations. Returns ``None`` when fewer than two trials exist
    (no spread to observe). Deliberately marked non-deterministic;
    callers intersect it with a deterministic envelope so an unlucky
    spread can only weaken pruning, never unsound-crash it.
    """
    if inflation < 1.0:
        raise EstimationError(
            f"inflation must be at least 1, got {inflation}")
    t = len(values)
    if t < 2:
        return None
    arr = np.asarray(values, dtype=np.float64)
    sigma = float(arr.std(ddof=1)) * inflation
    half = _mean_extrapolation_halfwidth(sigma, t, total_trials,
                                         confidence)
    mean_t = float(arr.mean())
    return CFInterval(max(0.0, mean_t - half), mean_t + half,
                      deterministic=False)


def next_trial_stage(trials_run: int, budget: int) -> int:
    """Trials run after the next stage of a staged allocation.

    The schedule doubles: 1, 2, 4, ... trials, clipped to ``budget``.
    Each stage is checked against the trial-mean intervals above
    before the next one is paid for.
    """
    return min(budget, max(1, 2 * trials_run))


def ns_sample_size_for_width(target_halfwidth: float,
                             confidence: float = 0.95,
                             stored_fraction_range: tuple[float, float] =
                             (0.0, 1.0)) -> int:
    """Smallest ``r`` whose Theorem 1 interval half-width meets a target.

    Inverts ``z (b - a) / (2 sqrt(r)) <= target``: the planning question
    a physical-design tool asks before paying for a sample scan.
    """
    if target_halfwidth <= 0:
        raise EstimationError(
            f"target half-width must be positive, got {target_halfwidth}")
    low_fraction, high_fraction = stored_fraction_range
    if not 0.0 <= low_fraction <= high_fraction:
        raise EstimationError(
            f"invalid stored-fraction range [{low_fraction}, "
            f"{high_fraction}]")
    z = _z_value(confidence)
    spread = high_fraction - low_fraction
    if spread == 0.0:
        return 1
    needed = (z * spread / (2.0 * target_halfwidth)) ** 2
    return max(1, math.ceil(needed))
