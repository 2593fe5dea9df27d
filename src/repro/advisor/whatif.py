"""What-if advisor: lazy engine-backed selection with bound pruning.

Eager advising sizes every (key set × algorithm) candidate at the full
trial budget before the greedy loop ever looks at one: that is
:meth:`WhatIfAdvisor.candidates` (one shared-sample engine batch),
which :func:`~repro.advisor.selection.advise_from_data` hands to the
greedy scan. Kimura et al.'s compression-aware design work (PAPERS.md)
points out that a what-if interface should only pay for estimates the
search can actually use. :meth:`WhatIfAdvisor.advise` is that
interface:

* the greedy selection loop runs first and *requests* estimates
  lazily, one engine batch per refinement step, so candidates on the
  same table keep sharing samples exactly as in the eager batch;
* before spending a unit on a candidate, the loop brackets its CF with
  the paper's analytic machinery — Theorem 1's deterministic stored-
  fraction envelope and probabilistic trial-mean interval for null
  suppression, Theorem 2's ``d/n + p/k`` envelope for the dictionary
  family (:mod:`repro.core.bounds`, :mod:`repro.core.confidence`) —
  and **prunes** any candidate whose best-case benefit density cannot
  beat another candidate's guaranteed worst case;
* trial allocation is **adaptive**: estimation proceeds in stages
  (1, 2, 4, ... trials) and stops as soon as a candidate's interval is
  decisively outside (or alone inside) the winning region, respending
  the remaining budget only on candidates whose intervals still
  overlap the decision margin. The round's winner is always escalated
  to the full budget before being committed, so the selected design —
  including sizes, costs, and step log — is **bit-identical** to the
  eager advisor's whenever the bounds are valid (the pruning-soundness
  property suite locks this in across executors).

Soundness argument, in one paragraph: every interval is built to
contain the eager advisor's final per-candidate estimate (the mean
over ``max_trials`` engine trials — the deterministic envelopes also
contain the exact CF). The marginal cost reduction is non-increasing
in a candidate's size, so a CF interval maps to a benefit-density
interval. If candidate X's best case ``density_hi(X)`` is strictly
below candidate Y's guaranteed ``density_lo(Y)`` — with Y surely
feasible and surely improving — then under valid bounds the eager
scan would also rank X below Y, so X cannot be that round's winner
and skipping its estimation cannot change the selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.errors import AdvisorError
from repro.sampling.base import rows_for_fraction
from repro.sampling.rng import SeedLike
from repro.storage.index import leaf_schema
from repro.compression.base import CompressionAlgorithm
from repro.compression.dictionary import DictionaryCompression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.core.bounds import (TRIVIAL_CF_INTERVAL, CFInterval,
                               dict_prior_cf_interval, mix_trials_interval,
                               ns_prior_cf_interval)
from repro.core.confidence import (empirical_trial_mean_interval,
                                   next_trial_stage,
                                   ns_trial_mean_interval)
from repro.advisor.candidates import (CandidateIndex, candidate_request,
                                      resolve_algorithms,
                                      uncompressed_index_bytes,
                                      workload_key_sets)
from repro.advisor.cost import (CostModel, Query, TableStats,
                                stats_for_tables, workload_cost)
from repro.advisor.selection import AdvisorResult, candidate_gain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table
    from repro.engine.engine import EstimationEngine
    from repro.engine.requests import EstimationRequest

#: Sizes are clamped here before density division; real candidate sizes
#: are orders of magnitude larger, so the floor only guards the
#: ``cf_low == 0`` trivial-prior corner from dividing by zero.
_SIZE_FLOOR = 1e-9

#: Confidence level of the probabilistic trial-mean intervals.
CONFIDENCE = 0.999

#: Widening applied to the empirical (non-NS) trial-mean interval,
#: whose spread is itself estimated from the trials run so far.
EMPIRICAL_INFLATION = 4.0


# ----------------------------------------------------------------------
# Candidate state
# ----------------------------------------------------------------------
@dataclass
class CandidateState:
    """One candidate's live estimation state inside the lazy loop."""

    position: int
    table_name: str
    key_columns: tuple[str, ...]
    compressed: bool
    plain_bytes: float
    max_trials: int
    algorithm: CompressionAlgorithm | None = None
    request: "EstimationRequest | None" = None
    trial_requests: tuple = ()
    prior: CFInterval = field(
        default_factory=lambda: CFInterval(1.0, 1.0))
    #: Per-entry stored-fraction range when Theorem 1 applies (NS).
    ns_range: tuple[float, float] | None = None
    #: Rows per trial sample (Theorem 1's ``r``).
    sample_rows: int = 0
    values: list[float] = field(default_factory=list)

    @property
    def trials_run(self) -> int:
        return len(self.values)

    @property
    def resolved(self) -> bool:
        """Whether the candidate's size is a point (no interval left)."""
        return not self.compressed or self.trials_run >= self.max_trials

    @property
    def name(self) -> str:
        """Delegates to :attr:`CandidateIndex.name`: the soundness
        suite joins report keys to eager candidates by this string, so
        the two formats must be one."""
        return self.probe(1.0).name

    def mean(self) -> float:
        """Trial mean so far — eager-identical arithmetic at full T."""
        return float(np.mean(np.asarray(self.values, dtype=np.float64)))

    def cf_interval(self, use_probabilistic: bool) -> CFInterval:
        """Tightest current interval for the final trial-mean CF."""
        if not self.compressed:
            return CFInterval(1.0, 1.0)
        if self.trials_run >= self.max_trials:
            point = self.mean()
            return CFInterval(point, point)
        interval = mix_trials_interval(self.prior, self.values,
                                       self.max_trials)
        if not use_probabilistic or self.trials_run == 0:
            return interval
        if self.ns_range is not None:
            probabilistic = ns_trial_mean_interval(
                self.values, self.max_trials, self.sample_rows,
                self.ns_range, CONFIDENCE)
            return interval.intersect(probabilistic)
        empirical = empirical_trial_mean_interval(
            self.values, self.max_trials,
            inflation=EMPIRICAL_INFLATION, confidence=CONFIDENCE)
        if empirical is not None:
            return interval.intersect(empirical)
        return interval

    def as_candidate(self) -> CandidateIndex:
        """The point candidate, identical to the eager enumeration's."""
        if not self.compressed:
            return CandidateIndex(
                table=self.table_name, key_columns=self.key_columns,
                compressed=False, algorithm=None,
                size_bytes=float(self.plain_bytes), size_source="schema")
        if not self.resolved:
            raise AdvisorError(
                f"candidate {self.name} committed at "
                f"{self.trials_run}/{self.max_trials} trials")
        cf = self.mean()
        return CandidateIndex(
            table=self.table_name, key_columns=self.key_columns,
            compressed=True, algorithm=self.algorithm.name,
            size_bytes=self.plain_bytes * cf, size_source="engine",
            estimated_cf=cf)

    def probe(self, size_bytes: float) -> CandidateIndex:
        """A hypothetical candidate at ``size_bytes`` for cost probing."""
        return CandidateIndex(
            table=self.table_name, key_columns=self.key_columns,
            compressed=self.compressed,
            algorithm=self.algorithm.name if self.compressed else None,
            size_bytes=max(float(size_bytes), _SIZE_FLOOR),
            size_source="bound")


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PruneEvent:
    """One per-round decision to skip estimating a candidate."""

    round: int
    candidate: str
    #: ``"bound"`` (interval lost to an incumbent), ``"budget"``
    #: (cannot fit even at its best-case size), or ``"no-gain"``
    #: (cannot reduce cost even at its best-case size).
    reason: str
    cf_low: float
    cf_high: float
    deterministic: bool
    incumbent_density: float


@dataclass
class WhatIfReport:
    """Where the lazy loop spent — and avoided spending — engine units."""

    max_trials: int
    candidates_total: int
    compressed_candidates: int
    rounds: int = 0
    units_executed: int = 0
    units_eager: int = 0
    pruned_never_estimated: int = 0
    early_stopped: int = 0
    trials_by_candidate: dict[str, int] = field(default_factory=dict)
    prune_events: tuple[PruneEvent, ...] = ()

    @property
    def units_saved(self) -> int:
        return self.units_eager - self.units_executed

    @property
    def savings_fraction(self) -> float:
        if self.units_eager <= 0:
            return 0.0
        return self.units_saved / self.units_eager

    def as_dict(self) -> dict[str, Any]:
        return {
            "max_trials": self.max_trials,
            "candidates_total": self.candidates_total,
            "compressed_candidates": self.compressed_candidates,
            "rounds": self.rounds,
            "units_executed": self.units_executed,
            "units_eager": self.units_eager,
            "units_saved": self.units_saved,
            "savings_fraction": round(self.savings_fraction, 4),
            "pruned_never_estimated": self.pruned_never_estimated,
            "early_stopped": self.early_stopped,
            "prune_events": len(self.prune_events),
            "trials_by_candidate": dict(self.trials_by_candidate),
        }


@dataclass(frozen=True)
class WhatIfResult(AdvisorResult):
    """An :class:`AdvisorResult` plus the lazy loop's spend report."""

    report: WhatIfReport | None = None


# ----------------------------------------------------------------------
# Priors
# ----------------------------------------------------------------------
def prior_cf_interval(request: "EstimationRequest") -> CFInterval:
    """Pre-sampling CF interval for one advisor request.

    Dispatches to the theorem family that covers the request's
    algorithm — Theorem 1's stored-fraction envelope for null
    suppression, Theorem 2's distinct-count envelope for the
    dictionary family — and degrades to the trivial interval whenever
    any assumption (payload accounting, no repacking, fixed-width
    entries, a recognised codec) does not hold, so a prior can never
    be wrong, only uninformative.
    """
    if request.table is None or request.accounting != "payload" \
            or request.repack:
        return TRIVIAL_CF_INTERVAL
    dtypes = [column.dtype for column in leaf_schema(
        request.table.schema, request.columns, request.kind)]
    algorithm = request.algorithm
    if isinstance(algorithm, NullSuppression):
        return ns_prior_cf_interval(dtypes, algorithm.mode)
    if isinstance(algorithm, (DictionaryCompression,
                              GlobalDictionaryCompression)):
        r = rows_for_fraction(request.table.num_rows, request.fraction)
        return dict_prior_cf_interval(dtypes, r,
                                      algorithm.pointer_bytes,
                                      algorithm.entry_storage)
    return TRIVIAL_CF_INTERVAL


# ----------------------------------------------------------------------
# The advisor
# ----------------------------------------------------------------------
class WhatIfAdvisor:
    """Drive greedy index selection lazily through the engine.

    Construction mirrors :func:`advise_from_data`. Every estimate runs
    on ``engine`` or on a new serial engine at ``seed`` (not both): an
    engine built with an executor, a store or a tracer runs the advisor
    on a pool, warm-starts it from disk or traces it. :meth:`advise`
    then answers any number of storage bounds against that engine,
    reusing samples and estimates across calls. With ``prune=False``
    every surviving candidate is estimated at the full budget (the
    engine batches still share samples); with ``adaptive=False``
    refinement jumps straight to ``max_trials`` instead of staging
    through 1, 2, 4, ... trials. :meth:`candidates` is the eager
    advisor: every candidate at the full budget, on the same engine
    and trials.
    """

    def __init__(self, tables: dict[str, "Table"],
                 queries: Sequence[Query],
                 algorithms: Sequence[CompressionAlgorithm | str]
                 = ("page",),
                 fraction: float = 0.01,
                 max_trials: int = 1,
                 model: CostModel | None = None,
                 engine: "EstimationEngine | None" = None,
                 seed: SeedLike = None,
                 prune: bool = True,
                 adaptive: bool = True,
                 use_probabilistic: bool = True) -> None:
        from repro.engine.engine import resolve_engine  # lazy: cycle

        if max_trials <= 0:
            raise AdvisorError(
                f"need a positive trial budget, got {max_trials}")
        self.tables = tables
        self.queries = list(queries)
        self.algorithms = resolve_algorithms(algorithms)
        self.fraction = float(fraction)
        self.max_trials = int(max_trials)
        self.model = model or CostModel()
        self.engine = resolve_engine(engine, seed, AdvisorError)
        self.prune = prune
        self.adaptive = adaptive
        self.use_probabilistic = use_probabilistic
        self.states = self._build_states()
        self.last_report: WhatIfReport | None = None

    # ------------------------------------------------------------------
    # Candidate construction
    # ------------------------------------------------------------------
    def _build_states(self) -> list[CandidateState]:
        """States in eager enumeration order: plain then per-algorithm."""
        states: list[CandidateState] = []
        for table_name, key_columns in workload_key_sets(self.tables,
                                                         self.queries):
            table = self.tables[table_name]
            plain_bytes = float(
                uncompressed_index_bytes(table, key_columns))
            states.append(CandidateState(
                position=len(states), table_name=table_name,
                key_columns=key_columns, compressed=False,
                plain_bytes=plain_bytes, max_trials=self.max_trials))
            for algorithm in self.algorithms:
                request = candidate_request(
                    table, table_name, key_columns, algorithm,
                    self.fraction, self.max_trials)
                prior = prior_cf_interval(request)
                ns_range = None
                if isinstance(algorithm, NullSuppression) \
                        and prior is not TRIVIAL_CF_INTERVAL \
                        and prior.deterministic \
                        and prior.high < float("inf"):
                    ns_range = (prior.low, prior.high)
                states.append(CandidateState(
                    position=len(states), table_name=table_name,
                    key_columns=key_columns, compressed=True,
                    plain_bytes=plain_bytes,
                    max_trials=self.max_trials, algorithm=algorithm,
                    request=request,
                    trial_requests=self.engine.trial_requests(request),
                    prior=prior, ns_range=ns_range,
                    sample_rows=rows_for_fraction(table.num_rows,
                                                  self.fraction)))
        return states

    def candidates(self) -> list[CandidateIndex]:
        """Every candidate sized at the full trial budget.

        The eager advisor: one shared-sample engine batch runs the
        trials earlier calls have not, and greedy selection over the
        result (:func:`~repro.advisor.selection.select_indexes`) picks
        the design :meth:`advise` reaches lazily under valid bounds.
        """
        pending = [state for state in self.states if not state.resolved]
        if pending:
            self._refine(pending, force_full=True)
        return [state.as_candidate() for state in self.states]

    # ------------------------------------------------------------------
    # The lazy greedy loop
    # ------------------------------------------------------------------
    def advise(self, storage_bound_bytes: float,
               on_round: "Callable[[dict[str, Any]], None] | None" = None,
               ) -> WhatIfResult:
        """Select a design under ``storage_bound_bytes``, lazily.

        ``on_round``, when given, is called after every greedy round
        with a plain-dict progress event (round number, the committed
        winner or ``None`` on the final round, running cost, remaining
        budget) — the hook a streaming service uses to emit incremental
        events while a long run is still deciding. The callback is
        observational: selection is bit-identical with or without it.
        """
        if storage_bound_bytes <= 0:
            raise AdvisorError(
                f"storage bound must be positive, got "
                f"{storage_bound_bytes}")
        stats = stats_for_tables(self.tables)
        executed_before = sum(s.trials_run for s in self.states
                              if s.compressed)
        chosen: list[CandidateIndex] = []
        steps: list[str] = []
        budget = float(storage_bound_bytes)
        baseline = workload_cost(self.queries, stats, chosen, self.model)
        current = baseline.total
        available = list(self.states)
        prune_events: list[PruneEvent] = []
        rounds = 0
        tracer = self.engine.tracer
        with tracer.span("whatif.advise",
                         bound=float(storage_bound_bytes),
                         candidates=len(self.states)) as advise_span:
            while True:
                rounds += 1
                self.engine.stats.add("whatif_rounds")
                with tracer.span("whatif.round",
                                 round=rounds) as round_span:
                    winner = self._run_round(rounds, available, chosen,
                                             budget, current, stats,
                                             prune_events)
                    round_span.annotate(
                        winner=winner.name if winner is not None
                        else None)
                if winner is None:
                    if on_round is not None:
                        on_round({"round": rounds, "winner": None,
                                  "chosen": len(chosen),
                                  "cost": current,
                                  "budget_remaining": budget})
                    break
                candidate = winner.as_candidate()
                reduction, total = candidate_gain(
                    candidate, self.queries, stats, chosen, self.model,
                    current)
                chosen.append(candidate)
                available.remove(winner)
                budget -= candidate.size_bytes
                steps.append(
                    f"+{candidate.name} ({candidate.size_bytes:.0f} B, "
                    f"cost {current:.1f} -> {total:.1f})")
                current = total
                if on_round is not None:
                    on_round({"round": rounds, "winner": candidate.name,
                              "size_bytes": candidate.size_bytes,
                              "chosen": len(chosen),
                              "cost": current,
                              "budget_remaining": budget})
            advise_span.annotate(rounds=rounds, chosen=len(chosen))
        report = self._finish_report(rounds, tuple(prune_events),
                                     executed_before)
        self.last_report = report
        return WhatIfResult(
            chosen=tuple(chosen),
            storage_bound_bytes=float(storage_bound_bytes),
            bytes_used=float(storage_bound_bytes) - budget,
            cost_before=baseline.total,
            cost_after=current,
            steps=tuple(steps),
            report=report)

    def _run_round(self, round_no: int,
                   available: list[CandidateState],
                   chosen: list[CandidateIndex], budget: float,
                   current: float, stats: dict[str, TableStats],
                   prune_events: list[PruneEvent],
                   ) -> CandidateState | None:
        """One greedy round: bound, prune, refine, decide."""
        logged: set[int] = set()

        def log_prune(state: CandidateState, reason: str,
                      interval: CFInterval, incumbent: float) -> None:
            # Only unresolved compressed candidates represent skipped
            # estimation work; plain or fully-estimated ones cost
            # nothing to exclude.
            if state.position in logged or not state.compressed \
                    or state.resolved:
                return
            logged.add(state.position)
            prune_events.append(PruneEvent(
                round=round_no, candidate=state.name, reason=reason,
                cf_low=interval.low, cf_high=interval.high,
                deterministic=interval.deterministic,
                incumbent_density=incumbent))
            self.engine.stats.add("whatif_pruned")
            self.engine.tracer.event(
                "whatif.prune", candidate=state.name, reason=reason,
                round=round_no)

        # A resolved candidate's interval, size, and densities cannot
        # change within a round (chosen/budget/current only move
        # between rounds), so its evaluation is computed once per
        # round instead of once per refinement iteration.
        resolved_cache: dict[int, tuple[CFInterval, float, float]] = {}
        while True:
            evaluations: list[tuple[CandidateState, CFInterval,
                                    float, float]] = []
            for state in available:
                cached = resolved_cache.get(state.position)
                if cached is not None:
                    evaluations.append((state, *cached))
                    continue
                interval = state.cf_interval(self.use_probabilistic)
                density_lo, density_hi = self._density_bounds(
                    state, interval, chosen, budget, current, stats)
                if state.resolved:
                    resolved_cache[state.position] = (
                        interval, density_lo, density_hi)
                evaluations.append((state, interval, density_lo,
                                    density_hi))
            incumbent = max((density_lo for _, _, density_lo, _
                             in evaluations), default=0.0)
            survivors: list[tuple[CandidateState, float]] = []
            undecided: list[CandidateState] = []
            for state, interval, density_lo, density_hi in evaluations:
                lo_size, _ = self._size_interval(state, interval)
                if lo_size > budget:
                    log_prune(state, "budget", interval, incumbent)
                    continue
                if density_hi <= 0.0:
                    log_prune(state, "no-gain", interval, incumbent)
                    continue
                if self.prune and density_hi < incumbent:
                    log_prune(state, "bound", interval, incumbent)
                    continue
                survivors.append((state, density_hi))
                if not state.resolved:
                    undecided.append(state)
            if not undecided:
                # Every survivor is a point: replicate the eager scan
                # (input order, strictly-greater density wins).
                best_state: CandidateState | None = None
                best_density = 0.0
                for state, density in survivors:
                    if density > best_density:
                        best_density = density
                        best_state = state
                return best_state
            self._refine(undecided,
                         force_full=len(survivors) == 1)

    def _size_interval(self, state: CandidateState,
                       interval: CFInterval) -> tuple[float, float]:
        if not state.compressed:
            return state.plain_bytes, state.plain_bytes
        return (state.plain_bytes * interval.low,
                state.plain_bytes * interval.high)

    def _density_bounds(self, state: CandidateState,
                        interval: CFInterval,
                        chosen: list[CandidateIndex], budget: float,
                        current: float,
                        stats: dict[str, TableStats],
                        ) -> tuple[float, float]:
        """Guaranteed and best-case benefit density for one candidate.

        ``density_hi`` evaluates the candidate at its smallest possible
        size (cost reduction is non-increasing in size, so this is the
        best case); ``density_lo`` at its largest. The worst case is 0
        unless the candidate surely fits and surely improves — only
        then may it serve as a pruning incumbent.
        """
        lo_size, hi_size = self._size_interval(state, interval)
        if lo_size > budget:
            return 0.0, 0.0
        probe_lo = max(lo_size, _SIZE_FLOOR)
        reduction_hi, _ = candidate_gain(
            state.probe(probe_lo), self.queries, stats, chosen,
            self.model, current)
        density_hi = (reduction_hi / probe_lo
                      if reduction_hi > 0 else 0.0)
        density_lo = 0.0
        if hi_size <= budget:
            probe_hi = max(hi_size, _SIZE_FLOOR)
            reduction_lo, _ = candidate_gain(
                state.probe(probe_hi), self.queries, stats, chosen,
                self.model, current)
            if reduction_lo > 0:
                density_lo = reduction_lo / probe_hi
        return density_lo, density_hi

    def _refine(self, undecided: list[CandidateState],
                force_full: bool = False) -> None:
        """One shared-sample engine batch over the missing trials.

        ``force_full`` is set when the round has exactly one surviving
        candidate left: it is the only possible winner and must reach
        the full budget before it may be committed, so staging through
        it would only add batches. A lone *undecided* candidate among
        several resolved survivors still stages normally — its next
        trials may prune it against a resolved incumbent.
        """
        allocations: list[tuple[CandidateState, int]] = []
        requests = []
        for state in undecided:
            if not self.adaptive or force_full:
                target = self.max_trials
            else:
                target = next_trial_stage(state.trials_run,
                                          self.max_trials)
            fresh = state.trial_requests[state.trials_run:target]
            allocations.append((state, len(fresh)))
            requests.extend(fresh)
        batch = self.engine.execute(requests)
        cursor = 0
        for state, count in allocations:
            for offset in range(count):
                result = batch.results[cursor + offset]
                state.values.append(result.estimates[0].estimate)
            cursor += count

    def _finish_report(self, rounds: int,
                       prune_events: tuple[PruneEvent, ...],
                       executed_before: int) -> WhatIfReport:
        """Per-call spend accounting.

        ``units_executed`` counts trials run *during this call* — a
        repeated :meth:`advise` under a new bound reuses earlier
        trials, and an eager run would pay the full ``K * T`` again —
        while ``trials_by_candidate`` shows the cumulative per-state
        allocation.
        """
        compressed = [s for s in self.states if s.compressed]
        executed = sum(s.trials_run for s in compressed) \
            - executed_before
        eager = len(compressed) * self.max_trials
        never = sum(1 for s in compressed if s.trials_run == 0)
        early = sum(1 for s in compressed
                    if 0 < s.trials_run < s.max_trials)
        self.engine.stats.add("whatif_early_stops", early)
        self.engine.stats.add("whatif_trials_saved", eager - executed)
        return WhatIfReport(
            max_trials=self.max_trials,
            candidates_total=len(self.states),
            compressed_candidates=len(compressed),
            rounds=rounds,
            units_executed=executed,
            units_eager=eager,
            pruned_never_estimated=never,
            early_stopped=early,
            trials_by_candidate={s.name: s.trials_run
                                 for s in compressed},
            prune_events=prune_events)

