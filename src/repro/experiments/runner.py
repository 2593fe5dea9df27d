"""Multi-trial experiment execution with reproducible seeding.

An estimation experiment is "run the estimator T times with independent
randomness, compare against the truth". Every trial runs as an
:class:`~repro.engine.requests.EstimationRequest` on an
:class:`~repro.engine.engine.EstimationEngine`, whose master seed
derives each trial's seed from the request's content, so any trial can
be replayed. :func:`engine_sweep` runs a whole grid as one batch:
sweep points over the same source share materialized samples trial by
trial instead of re-drawing O(points × trials) times.
:func:`run_request_trials_adaptive` runs one request's trials in
stages and stops once their mean is tight enough. Results come back as
:class:`ErrorSummary` objects ready for the report formatter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.errors import ExperimentError
from repro.sampling.rng import SeedLike
from repro.core.metrics import ErrorSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EstimationEngine
    from repro.engine.requests import EstimationRequest

#: Confidence level of :func:`run_request_trials_adaptive`'s stopping
#: interval.
ADAPTIVE_CONFIDENCE = 0.99


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: Any
    summary: ErrorSummary
    extra: dict


@dataclass(frozen=True)
class AdaptiveTrials:
    """Outcome of a staged (1/2/4/...) trial allocation.

    ``values`` holds the trials actually run — trial ``j`` is
    bit-identical to trial ``j`` of the full-budget request estimated
    on the same engine, so a converged run is a *prefix* of the
    exhaustive one, not a different experiment.
    """

    values: np.ndarray
    #: The budget the allocation was allowed to spend.
    trials_budget: int
    #: Stage sizes executed, in order (e.g. ``(1, 1, 2, 4)``).
    stages: tuple[int, ...]
    #: Half-width of the final confidence interval for the full-budget
    #: trial mean; ``None`` when fewer than two trials ran.
    halfwidth: float | None
    #: Whether the tolerance was met before the budget ran out.
    converged: bool

    @property
    def trials_run(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def run_request_trials_adaptive(request: "EstimationRequest",
                                trials: int | None = None,
                                engine: "EstimationEngine | None" = None,
                                seed: SeedLike = None,
                                tolerance: float = 0.005,
                                ) -> AdaptiveTrials:
    """Staged trial allocation for a plain request, outside the advisor.

    The what-if advisor's 1/2/4/... schedule, surfaced for ordinary
    sweeps: run stages of doubling size through
    :meth:`~repro.engine.engine.EstimationEngine.trial_requests` (so
    each stage replays bit-identically to the corresponding trials of
    the full request), and stop once the confidence interval for the
    *full-budget* trial mean has half-width at most ``tolerance`` —
    i.e. once the remaining trials provably cannot move the answer
    beyond the tolerance. Requires a non-opaque seed (staged replay
    needs reproducible per-trial identities). Every stage runs on
    ``engine`` (or a new one at ``seed``; not both).
    """
    from repro.core.confidence import (empirical_trial_mean_interval,
                                       next_trial_stage)
    from repro.engine.engine import resolve_engine  # lazy: cycle guard

    budget = trials if trials is not None else request.trials
    if budget <= 0:
        raise ExperimentError(
            f"need a positive trial budget, got {budget}")
    if tolerance <= 0:
        raise ExperimentError(
            f"need a positive tolerance, got {tolerance}")
    resolved = resolve_engine(engine, seed, ExperimentError)
    per_trial = resolved.trial_requests(request.with_trials(budget))
    values: list[float] = []
    stages: list[int] = []
    halfwidth: float | None = None
    converged = False
    while len(values) < budget:
        stage = per_trial[len(values):next_trial_stage(len(values),
                                                       budget)]
        batch = resolved.execute(list(stage))
        values.extend(float(result.values[0])
                      for result in batch.results)
        stages.append(len(stage))
        interval = empirical_trial_mean_interval(
            np.asarray(values, dtype=np.float64), budget,
            confidence=ADAPTIVE_CONFIDENCE)
        if interval is not None:
            halfwidth = float(interval.width) / 2.0
            if halfwidth <= tolerance:
                converged = True
                break
    return AdaptiveTrials(values=np.asarray(values, dtype=np.float64),
                          trials_budget=budget, stages=tuple(stages),
                          halfwidth=halfwidth, converged=converged)


def engine_sweep(parameters: Iterable[Any],
                 make_truth_and_request: Callable[
                     [Any], tuple[float, "EstimationRequest", dict]],
                 trials: int,
                 engine: "EstimationEngine | None" = None,
                 seed: SeedLike = None) -> list[SweepPoint]:
    """Evaluate an estimator grid as **one** shared-sample batch.

    ``make_truth_and_request(parameter)`` returns ``(truth, request,
    extra)``. All points execute in a single engine batch: points whose
    requests target the same source and fraction share one materialized
    sample per trial, which is what makes algorithm sweeps and advisor
    grids O(samples + points) instead of O(points × trials) full
    passes. The batch runs on ``engine`` (or a new one at ``seed``; not
    both), so an engine built with an executor, a store or a tracer
    runs the sweep on a pool, warm-starts it from earlier sweeps, or
    traces it, without changing any estimate.
    """
    from repro.engine.engine import resolve_engine  # lazy: cycle guard

    if trials <= 0:
        raise ExperimentError(f"need a positive trial count, got {trials}")
    parameters = list(parameters)
    resolved = resolve_engine(engine, seed, ExperimentError)
    truths: list[float] = []
    extras: list[dict] = []
    requests: list["EstimationRequest"] = []
    for parameter in parameters:
        truth, request, extra = make_truth_and_request(parameter)
        truths.append(truth)
        extras.append(dict(extra))
        requests.append(request.with_trials(trials))
    batch = resolved.execute(requests)
    return [SweepPoint(parameter=parameter,
                       summary=ErrorSummary.from_estimates(
                           truth, result.values),
                       extra=extra)
            for parameter, truth, result, extra
            in zip(parameters, truths, batch.results, extras)]


@dataclass(frozen=True)
class Timed:
    """Result of a timed call."""

    value: Any
    seconds: float


def timed(fn: Callable[[], Any]) -> Timed:
    """Wall-clock a callable (used for throughput rows in benches)."""
    start = time.perf_counter()
    value = fn()
    return Timed(value=value, seconds=time.perf_counter() - start)
