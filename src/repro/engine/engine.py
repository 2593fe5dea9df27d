"""The EstimationEngine: plan and execute batches of CF estimations.

This is the architectural backbone the ROADMAP asks for ("sharding,
batching, caching"): every estimation in the library — single
:class:`SampleCF` calls, advisor candidate sizing, multi-trial sweeps,
the CLI's ``estimate-batch`` — funnels through :meth:`execute`, which

1. canonicalizes and dedupes the batch (:mod:`repro.engine.plan`),
2. materializes each distinct (source, sampler, fraction, seed) sample
   exactly once, LRU-cached across batches
   (:mod:`repro.engine.samples`),
3. shares one built sample index per column-set layout across all
   algorithms probing it, and
4. runs the independent (node, trial) units — picklable
   :class:`~repro.engine.units.PlanUnit` objects — on a pluggable
   executor (:mod:`repro.engine.executors`): serial, process pool, or
   remote workers.

Determinism contract: with an integer master seed, ``execute`` returns
byte-identical results for the same batch content regardless of
executor choice (including the process pool), request submission order,
or whether samples came from the cache — asserted by
``tests/property/test_engine_determinism.py``.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.faults import (DEFAULT_RETRY_POLICY, Deadline, FaultInjector,
                          NullInjector, RetryPolicy, injector_from_env)
from repro.sampling.rng import SeedLike
from repro.core.samplecf import SampleCFEstimate
from repro.engine.executors import (PlanExecutor, SerialExecutor,
                                    make_executor)
from repro.engine.plan import EstimationPlan, expand_trials, plan_batch
from repro.engine.requests import (BatchResult, EstimationRequest,
                                   PartialBatchResult, RequestResult,
                                   UnitOutcome)
from repro.engine.samples import EngineStats, SampleCache
from repro.engine.units import UnitContext, UnitFailure, plan_units
from repro.obs import NULL_TRACER, absorb_engine_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import NullTracer, Tracer
    from repro.store.store import SampleStore


def _resolve_master_seed(seed: SeedLike) -> int:
    if seed is None:
        # repro-lint: ignore[RPL001] -- the documented None-seed
        # contract: an unseeded engine draws one master seed from OS
        # entropy here, exactly once, and every downstream draw derives
        # from it deterministically (content-keyed trial seeds).
        return int(np.random.default_rng().integers(0, 2 ** 63 - 1))
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2 ** 63 - 1))
    return int(seed)


class EstimationEngine:
    """Shared-sample batch estimator.

    Parameters
    ----------
    seed:
        Master seed. Requests without an explicit seed derive their
        per-trial randomness from it (content-keyed, order-free).
    executor:
        Default :class:`PlanExecutor` (or a name understood by
        :func:`~repro.engine.executors.make_executor`); serial unless
        given.
    sample_cache_size:
        Memory-tier LRU capacity, counted in materialized samples.
        ``None`` (the default) resolves via the
        ``REPRO_SAMPLE_CACHE_SIZE`` environment variable, falling back
        to 64. Samples persist across ``execute`` calls, so repeated
        advisor/sweep runs over the same tables reuse prior draws.
    sample_cache_bytes:
        Memory-tier byte budget: the LRU additionally evicts until the
        summed sample payloads fit. ``None`` resolves via
        ``REPRO_SAMPLE_CACHE_BYTES``, falling back to 256 MiB.
    store:
        Optional disk tier: a :class:`~repro.store.store.SampleStore`
        handle or a directory path to open one at. With a store, every
        cacheable unit resolves estimate-on-disk -> sample-in-memory ->
        sample-on-disk -> materialize, and new samples/estimates are
        written through — which is what lets a *different process* (or
        a later run) warm-start instead of re-drawing.
    tracer:
        Optional :class:`~repro.obs.Tracer`: every ``execute`` emits
        nested spans (``engine.execute`` -> ``plan.build`` ->
        ``unit.run`` -> ...) into it, across whichever executor runs
        the units. The default :data:`~repro.obs.NULL_TRACER` keeps
        the hot path allocation-free, and estimates are bit-identical
        with tracing on or off (locked by the determinism suite).
    """

    def __init__(self, seed: SeedLike = 0,
                 executor: PlanExecutor | str | None = None,
                 sample_cache_size: int | None = None,
                 sample_cache_bytes: int | None = None,
                 store: "SampleStore | str | os.PathLike | None" = None,
                 tracer: "Tracer | NullTracer | None" = None,
                 retry_policy: RetryPolicy | None = None,
                 injector: FaultInjector | NullInjector | None = None,
                 ) -> None:
        self.master_seed = _resolve_master_seed(seed)
        if isinstance(executor, str):
            executor = make_executor(executor)
        self.executor: PlanExecutor = executor or SerialExecutor()
        self.cache = SampleCache(sample_cache_size, sample_cache_bytes)
        if store is not None:
            from repro.store.store import open_store  # lazy: cycle guard

            store = open_store(store)
        self.store: "SampleStore | None" = store
        self.stats = EngineStats(cache=self.cache)
        self.tracer: "Tracer | NullTracer" = tracer or NULL_TRACER
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.injector = (injector if injector is not None
                         else injector_from_env())

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, requests: Sequence[EstimationRequest],
             ) -> EstimationPlan:
        """Canonicalize a batch without executing it."""
        return plan_batch(requests, self.master_seed)

    def trial_requests(self, request: EstimationRequest,
                       ) -> tuple[EstimationRequest, ...]:
        """Per-trial expansion of ``request`` under this engine's seed.

        Trial ``j`` of the result executes bit-identically to trial
        ``j`` of the full request on this engine (same resolved seed,
        same sample/store keys), so callers can run any subset of a
        request's trials incrementally — later batches reuse the
        samples earlier ones materialized instead of re-running
        finished trials. See :func:`~repro.engine.plan.expand_trials`.
        """
        return expand_trials(request, self.master_seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self,
                requests: Sequence[EstimationRequest] | EstimationPlan,
                executor: PlanExecutor | str | None = None,
                deadline: "Deadline | float | None" = None,
                ) -> BatchResult | PartialBatchResult:
        """Run a batch (or a pre-built plan) and fan results back out.

        Stats accumulate into a batch-local counter first and merge
        into the engine's global :attr:`stats` once at the end, so
        concurrent ``execute`` calls on one engine (e.g. the shared
        :func:`default_engine`) each report exactly their own batch's
        movement instead of interleaved snapshot deltas.

        With ``deadline`` (a :class:`~repro.faults.Deadline`, or a
        float of seconds from now) the batch becomes *bounded*: units
        past the budget are skipped as typed failures instead of run,
        and the return type switches to
        :class:`~repro.engine.requests.PartialBatchResult`, which
        accounts every submitted unit exactly once as done, degraded,
        or deadline-exceeded — a budget can shrink the result, never
        corrupt it.
        """
        tracer = self.tracer
        with tracer.span("engine.execute") as batch_span:
            if isinstance(requests, EstimationPlan):
                plan = requests
            else:
                with tracer.span("plan.build"):
                    plan = self.plan(requests)
            if isinstance(executor, str):
                executor = make_executor(executor)
            runner = executor or self.executor
            local = EngineStats(cache=self.cache)
            local.add("requests", plan.num_requests)
            local.add("unique_requests", plan.num_unique)
            local.add("trials", plan.num_units)
            units = plan_units(plan)
            batch_span.annotate(requests=plan.num_requests,
                                units=plan.num_units,
                                executor=runner.name)
            if isinstance(deadline, (int, float)):
                deadline = Deadline.after(float(deadline))
            # Per-batch store attribution: the store handle is shared
            # across concurrent execute() calls, so diffing its global
            # counters would charge each batch the union of all
            # concurrent movement. Units instead mirror their own store
            # I/O into this batch-local dict (thread-scoped sink inside
            # the store), mirroring the batch-local EngineStats.
            store_counters: dict[str, int] | None = (
                {} if self.store is not None else None)
            context = UnitContext(cache=self.cache, stats=local,
                                  store=self.store, tracer=tracer,
                                  deadline=deadline,
                                  retry=self.retry_policy,
                                  injector=self.injector,
                                  store_counters=store_counters)
            values = runner.run(units, context)
            estimates_by_node: list[tuple[SampleCFEstimate, ...]] = []
            failed_nodes: set[int] = set()
            cursor = 0
            for node_pos, node in enumerate(plan.nodes):
                chunk = tuple(values[cursor:cursor + node.trials])
                if any(isinstance(value, UnitFailure) for value in chunk):
                    failed_nodes.add(node_pos)
                estimates_by_node.append(chunk)
                cursor += node.trials
            if deadline is None and failed_nodes:
                raise EstimationError(
                    "executor returned unit failures without a "
                    "deadline in force — executor bug")
            slots: list[RequestResult | None] = [None] * plan.num_requests
            for node_pos, (node, estimates) in enumerate(
                    zip(plan.nodes, estimates_by_node)):
                result = (None if node_pos in failed_nodes
                          else RequestResult(request=node.request,
                                             estimates=estimates))
                for position in node.positions:
                    slots[position] = result
            self.stats.merge(local)
            if tracer.enabled:
                absorb_engine_stats(tracer.metrics, self.stats)
                if store_counters:
                    for name in ("bytes_read", "bytes_written",
                                 "faults_injected", "quarantined"):
                        moved = store_counters.get(name, 0)
                        if moved:
                            tracer.metrics.counter(
                                f"store.{name}").inc(moved)
            stats = local.as_dict()
            if store_counters is not None:
                stats["store"] = dict(store_counters)
            if deadline is None:
                return BatchResult(results=tuple(slots), stats=stats)
            degraded = context.degraded or set()
            outcomes = []
            for position, (unit, value) in enumerate(zip(units, values)):
                if isinstance(value, UnitFailure):
                    outcomes.append(UnitOutcome(
                        index=unit.index, trial=unit.trial,
                        status="deadline_exceeded", detail=value.detail))
                elif unit.index in degraded:
                    outcomes.append(UnitOutcome(
                        index=unit.index, trial=unit.trial,
                        status="degraded"))
                else:
                    outcomes.append(UnitOutcome(
                        index=unit.index, trial=unit.trial,
                        status="done"))
            return PartialBatchResult(results=tuple(slots),
                                      outcomes=tuple(outcomes),
                                      stats=stats)

    def estimate(self, request: EstimationRequest,
                 deadline: "Deadline | float | None" = None,
                 ) -> RequestResult:
        """Single-request convenience over :meth:`execute`.

        With a ``deadline``, a request whose units were skipped past
        the budget raises a typed :class:`EstimationError` instead of
        returning the bounded path's ``None`` slot — callers of this
        facade get a result or an exception, never a null that crashes
        later with an ``AttributeError``. Callers that want the
        per-unit outcome accounting should use :meth:`execute`.
        """
        result = self.execute([request], deadline=deadline).results[0]
        if result is None:
            raise EstimationError(
                "the request could not be evaluated before its "
                "deadline expired; retry with a larger budget, or use "
                "execute() for per-unit deadline outcomes")
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        store_note = (f", store={str(self.store.root)!r}"
                      if self.store is not None else "")
        return (f"EstimationEngine(seed={self.master_seed}, "
                f"executor={self.executor.name!r}, "
                f"cached_samples={len(self.cache)}{store_note})")


# ----------------------------------------------------------------------
# Shared default engine (the SampleCF facade runs on it)
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: EstimationEngine | None = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> EstimationEngine:
    """The process-wide engine backing single-call SampleCF facades.

    Its master seed never influences results for facade calls (those
    always carry a concrete seed), so sharing one instance only shares
    the sample cache. Lazy init is lock-protected: two threads racing
    the first facade call must not build two engines and split the
    cache. After initialization, reads take a lock-free fast path
    (double-checked): a fully-constructed engine is published before
    the lock is released, and the module-global read is atomic, so the
    lock exists only to arbitrate the one-time construction — a
    concurrent service must not serialize every facade call on it.
    """
    global _DEFAULT_ENGINE
    engine = _DEFAULT_ENGINE
    if engine is not None:
        return engine
    with _DEFAULT_ENGINE_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = EstimationEngine(seed=0)
        return _DEFAULT_ENGINE
