"""Shared-sample batch estimation: plan / materialize / execute.

The estimation engine is how every layer of the library runs SampleCF:
single calls (:class:`~repro.core.samplecf.SampleCF` is a facade over
it), advisor candidate sizing, multi-trial experiment sweeps, and the
CLI's ``estimate-batch``. See :mod:`repro.engine.engine` for the
execution model.

Caching is two-tier. Tier 1 is the in-process
:class:`~repro.engine.samples.SampleCache` — an LRU of materialized
samples (capacity set per engine or via ``REPRO_SAMPLE_CACHE_SIZE``)
with single-flight semantics across threads. Tier 2, enabled by
constructing :class:`EstimationEngine` with ``store=``, is a persistent
content-addressed :class:`~repro.store.store.SampleStore` on disk.
A cacheable unit resolves in order:

1. **finished estimate on disk** — exact repeats skip sampling *and*
   compression entirely;
2. **sample in the memory LRU** — shared across this process's batches;
3. **sample on disk** — drawn by an earlier run (or another process);
4. **materialize** — then written through to both tiers.

Store entries are keyed by content fingerprints (table content hash x
sampler x fraction x resolved seed, plus algorithm/layout identity for
estimates), so warm starts survive process boundaries and table
mutations invalidate naturally. The per-tier movement is visible in
:class:`~repro.engine.samples.EngineStats` (``sample_cache_hits``,
``sample_store_hits``, ``estimate_store_hits``,
``samples_materialized``).
"""

from repro.engine.engine import EstimationEngine, default_engine
from repro.engine.executors import PlanExecutor, SerialExecutor, make_executor
from repro.engine.remote import (ProcessPoolPlanExecutor, RemotePlanExecutor,
                                 UnitCostModel, lpt_assign,
                                 round_robin_assign, spawn_local_workers,
                                 start_worker_thread)
from repro.engine.plan import (EstimationPlan, PlanNode, expand_trials,
                               plan_batch)
from repro.engine.requests import (BatchResult, EstimationRequest,
                                   PartialBatchResult, RequestResult,
                                   UnitOutcome, derive_seed)
from repro.engine.samples import (DEFAULT_SAMPLE_CACHE_BYTES,
                                  DEFAULT_SAMPLE_CACHE_SIZE,
                                  SAMPLE_CACHE_BYTES_ENV,
                                  SAMPLE_CACHE_SIZE_ENV, EngineStats,
                                  MaterializedSample, SampleCache,
                                  materialize_histogram_sample,
                                  materialize_table_sample,
                                  resolve_sample_cache_bytes,
                                  resolve_sample_cache_size)
from repro.engine.units import (PlanUnit, UnitContext, UnitFailure,
                                plan_units, run_plan_unit)

__all__ = [
    "BatchResult",
    "DEFAULT_SAMPLE_CACHE_BYTES",
    "DEFAULT_SAMPLE_CACHE_SIZE",
    "EngineStats",
    "EstimationEngine",
    "EstimationPlan",
    "EstimationRequest",
    "MaterializedSample",
    "PartialBatchResult",
    "PlanExecutor",
    "PlanNode",
    "PlanUnit",
    "ProcessPoolPlanExecutor",
    "RemotePlanExecutor",
    "RequestResult",
    "SAMPLE_CACHE_BYTES_ENV",
    "SAMPLE_CACHE_SIZE_ENV",
    "SampleCache",
    "SerialExecutor",
    "UnitContext",
    "UnitCostModel",
    "UnitFailure",
    "UnitOutcome",
    "default_engine",
    "derive_seed",
    "expand_trials",
    "lpt_assign",
    "make_executor",
    "materialize_histogram_sample",
    "materialize_table_sample",
    "plan_batch",
    "plan_units",
    "resolve_sample_cache_bytes",
    "resolve_sample_cache_size",
    "round_robin_assign",
    "run_plan_unit",
    "spawn_local_workers",
    "start_worker_thread",
]
