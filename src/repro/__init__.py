"""repro — reproduction of *Estimating the Compression Fraction of an
Index using Sampling* (Idreos, Kaushik, Narasayya, Ramamurthy; ICDE 2010).

The package ships the paper's estimator (:class:`SampleCF`) together with
everything it runs on, built from scratch:

* a relational **storage engine** (:mod:`repro.storage`) — types, slotted
  pages, heap files, clustered/non-clustered indexes held as their
  key-ordered leaf pages;
* the **compression algorithms** the paper analyses and several
  extensions (:mod:`repro.compression`);
* **sampling designs** (:mod:`repro.sampling`) — with/without
  replacement, Bernoulli, reservoir (Vitter), and block-level;
* the **estimator core** (:mod:`repro.core`) — SampleCF, closed-form CF
  models, the analytic bounds of Theorems 1-3, distinct-value estimator
  baselines, and confidence intervals;
* **workload generators** (:mod:`repro.workloads`) and the
  **physical-design advisor** application (:mod:`repro.advisor`);
* the **experiment harness** (:mod:`repro.experiments`) that regenerates
  every table and figure (see EXPERIMENTS.md);
* the **estimation engine** (:mod:`repro.engine`) — plan/execute batches
  of estimation requests with shared materialized samples, LRU caching,
  and pluggable serial, process-pool and remote executors; every other
  layer's estimates run through it.

Quickstart::

    from repro import (SampleCF, NullSuppression, make_table,
                       true_cf_table)

    table = make_table(n=100_000, d=500, k=20, seed=7)
    estimator = SampleCF(NullSuppression())
    estimate = estimator.estimate_table(table, 0.01, ["a"], seed=7)
    truth = true_cf_table(table, ["a"], NullSuppression())
    print(estimate.estimate, truth)
"""

from repro._version import __version__
from repro.errors import (AdvisorError, CompressionError, EncodingError,
                          EstimationError, ExperimentError, PageError,
                          PageFormatError, PageFullError, ReproError,
                          SamplingError, SchemaError, StoreError)
from repro.storage import (CharType, Column, HeapFile, Index, IndexKind,
                           Page, RID, Schema, Table, single_char_schema)
from repro.compression import (CompressionAlgorithm, DictionaryCompression,
                               GlobalDictionaryCompression, NullSuppression,
                               PageCompression, PrefixCompression,
                               RunLengthEncoding, get_algorithm,
                               list_algorithms)
from repro.sampling import (BernoulliSampler, BlockSampler, ReservoirSampler,
                            WithReplacementSampler,
                            WithoutReplacementSampler, make_rng)
from repro.core import (ColumnHistogram, DistinctPlugInEstimator,
                        ErrorSummary, SampleCF, SampleCFEstimate,
                        dict_large_d_bound, dict_small_d_bound, example1,
                        ns_confidence_interval, ns_stddev_bound,
                        ns_variance_bound, ratio_error, sample_cf,
                        true_cf_histogram, true_cf_table)
from repro.workloads import (SCENARIOS, get_scenario, make_histogram,
                             make_table)
from repro.advisor import (CostModel, Query, TableStats, advise_from_data,
                           plan_capacity, select_indexes)
from repro.experiments import EXPERIMENTS, get_experiment
from repro.engine import (BatchResult, EstimationEngine, EstimationPlan,
                          EstimationRequest, MaterializedSample, PlanUnit,
                          ProcessPoolPlanExecutor, RequestResult,
                          SerialExecutor, default_engine, make_executor)
from repro.store import SampleStore, open_store, table_fingerprint

__all__ = [
    "__version__",
    # errors
    "AdvisorError", "CompressionError", "EncodingError", "EstimationError",
    "ExperimentError", "PageError", "PageFormatError", "PageFullError",
    "ReproError", "SamplingError", "SchemaError", "StoreError",
    # storage
    "CharType", "Column", "HeapFile", "Index", "IndexKind", "Page", "RID",
    "Schema", "Table", "single_char_schema",
    # compression
    "CompressionAlgorithm", "DictionaryCompression",
    "GlobalDictionaryCompression", "NullSuppression", "PageCompression",
    "PrefixCompression", "RunLengthEncoding", "get_algorithm",
    "list_algorithms",
    # sampling
    "BernoulliSampler", "BlockSampler", "ReservoirSampler",
    "WithReplacementSampler", "WithoutReplacementSampler", "make_rng",
    # core
    "ColumnHistogram", "DistinctPlugInEstimator", "ErrorSummary",
    "SampleCF", "SampleCFEstimate", "dict_large_d_bound",
    "dict_small_d_bound", "example1", "ns_confidence_interval",
    "ns_stddev_bound", "ns_variance_bound", "ratio_error", "sample_cf",
    "true_cf_histogram", "true_cf_table",
    # workloads
    "SCENARIOS", "get_scenario", "make_histogram", "make_table",
    # advisor
    "CostModel", "Query", "TableStats", "advise_from_data",
    "plan_capacity", "select_indexes",
    # experiments
    "EXPERIMENTS", "get_experiment",
    # engine
    "BatchResult", "EstimationEngine", "EstimationPlan",
    "EstimationRequest", "MaterializedSample", "PlanUnit",
    "ProcessPoolPlanExecutor", "RequestResult", "SerialExecutor",
    "default_engine", "make_executor",
    # store
    "SampleStore", "open_store", "table_fingerprint",
]
