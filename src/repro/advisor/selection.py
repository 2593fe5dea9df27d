"""Greedy index selection under a storage bound.

The classic physical-design loop: repeatedly add the candidate with the
best cost-reduction-per-byte that still fits the remaining budget, until
nothing helps. Compression enters purely through candidate sizes and the
per-page CPU penalty — which is exactly why an accurate compressed-size
estimate (SampleCF) changes which designs are feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import AdvisorError
from repro.sampling.rng import SeedLike
from repro.advisor.candidates import CandidateIndex
from repro.advisor.cost import (CostModel, Query, TableStats,
                                stats_for_tables, workload_cost)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table
    from repro.compression.base import CompressionAlgorithm
    from repro.engine.engine import EstimationEngine


@dataclass(frozen=True)
class AdvisorResult:
    """Outcome of an advisor run."""

    chosen: tuple[CandidateIndex, ...]
    storage_bound_bytes: float
    bytes_used: float
    cost_before: float
    cost_after: float
    steps: tuple[str, ...] = field(default=())

    @property
    def improvement(self) -> float:
        """Fraction of workload cost eliminated."""
        if self.cost_before <= 0:
            raise AdvisorError("workload cost before must be positive")
        return 1.0 - self.cost_after / self.cost_before


def candidate_gain(candidate: CandidateIndex, queries: Sequence[Query],
                   tables: dict[str, TableStats],
                   chosen: Sequence[CandidateIndex], model: CostModel,
                   current: float) -> tuple[float, float]:
    """``(cost reduction, new total)`` from adding one candidate.

    The marginal-benefit evaluation both the eager greedy loop and the
    lazy what-if loop score candidates with — shared so their pruning
    arithmetic can never drift from the selection it predicts. The
    reduction is non-increasing in ``candidate.size_bytes`` (a bigger
    index touches at least as many pages for every query), which is the
    monotonicity the what-if bounds rely on.
    """
    trial = workload_cost(queries, tables, list(chosen) + [candidate],
                          model)
    return current - trial.total, trial.total


def select_indexes(candidates: Sequence[CandidateIndex],
                   queries: Sequence[Query],
                   tables: dict[str, TableStats],
                   storage_bound_bytes: float,
                   model: CostModel | None = None) -> AdvisorResult:
    """Greedy benefit-per-byte selection under the storage bound.

    Determinism contract: each round scans the remaining candidates in
    their input order and keeps a strictly better density only, so
    **ties break toward the earlier candidate** and a candidate whose
    addition does not reduce cost is never chosen (the zero-improvement
    path leaves the design as-is). The what-if advisor reproduces this
    scan exactly; tests pin both behaviours.
    """
    if storage_bound_bytes <= 0:
        raise AdvisorError(
            f"storage bound must be positive, got {storage_bound_bytes}")
    model = model or CostModel()
    chosen: list[CandidateIndex] = []
    steps: list[str] = []
    budget = float(storage_bound_bytes)
    baseline = workload_cost(queries, tables, chosen, model)
    current = baseline.total
    remaining = [c for c in candidates if c.size_bytes <= budget]
    while True:
        best_candidate: CandidateIndex | None = None
        best_cost = current
        best_density = 0.0
        for candidate in remaining:
            if candidate.size_bytes > budget:
                continue
            reduction, total = candidate_gain(candidate, queries, tables,
                                              chosen, model, current)
            if reduction <= 0:
                continue
            density = reduction / candidate.size_bytes
            if density > best_density:
                best_density = density
                best_candidate = candidate
                best_cost = total
        if best_candidate is None:
            break
        chosen.append(best_candidate)
        remaining.remove(best_candidate)
        budget -= best_candidate.size_bytes
        steps.append(
            f"+{best_candidate.name} ({best_candidate.size_bytes:.0f} B, "
            f"cost {current:.1f} -> {best_cost:.1f})")
        current = best_cost
    return AdvisorResult(
        chosen=tuple(chosen),
        storage_bound_bytes=float(storage_bound_bytes),
        bytes_used=float(storage_bound_bytes) - budget,
        cost_before=baseline.total,
        cost_after=current,
        steps=tuple(steps))


def advise_from_data(tables: dict[str, "Table"],
                     queries: Sequence[Query],
                     storage_bound_bytes: float,
                     algorithms: Sequence["CompressionAlgorithm | str"]
                     = ("page",),
                     fraction: float = 0.01,
                     trials: int = 1,
                     model: CostModel | None = None,
                     engine: "EstimationEngine | None" = None,
                     seed: SeedLike = None,
                     ) -> AdvisorResult:
    """End-to-end advisor run straight from live tables.

    The engine-backed path: candidate CFs are *estimated from the data*
    (:meth:`WhatIfAdvisor.candidates
    <repro.advisor.whatif.WhatIfAdvisor.candidates>`, one shared-sample
    engine batch across every key set × algorithm) rather than supplied
    by the caller, and table statistics are derived from the heaps.
    This is the paper's motivating application loop — SampleCF inside
    a physical design tool — packaged as one call. The batch runs on
    ``engine`` (or a new one at ``seed``; not both), whose executor
    and store decide how it runs, never what it returns.
    """
    from repro.advisor.whatif import WhatIfAdvisor  # lazy: cycle guard

    candidates = WhatIfAdvisor(
        tables, queries, algorithms=algorithms, fraction=fraction,
        max_trials=trials, engine=engine, seed=seed).candidates()
    return select_indexes(candidates, queries, stats_for_tables(tables),
                          storage_bound_bytes, model=model)


def design_summary(result: AdvisorResult) -> str:
    """Human-readable report of an advisor run."""
    lines = [
        f"storage bound : {result.storage_bound_bytes:,.0f} bytes",
        f"bytes used    : {result.bytes_used:,.0f}",
        f"workload cost : {result.cost_before:,.1f} -> "
        f"{result.cost_after:,.1f} "
        f"({result.improvement:.1%} better)",
        "chosen indexes:",
    ]
    if not result.chosen:
        lines.append("  (none fit / none helped)")
    for candidate in result.chosen:
        cf_note = (f", est. CF {candidate.estimated_cf:.3f}"
                   if candidate.estimated_cf is not None else "")
        lines.append(
            f"  {candidate.name}: {candidate.size_bytes:,.0f} bytes"
            f"{cf_note}")
    return "\n".join(lines)
