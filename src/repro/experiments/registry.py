"""Registry of paper artefacts and the benches that regenerate them.

One entry per table, figure, theorem, worked example and declared
future-work item of the paper, plus the engine-fidelity and application
experiments, each naming the bench under ``benchmarks/`` that
regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError


@dataclass(frozen=True)
class ExperimentSpec:
    """A reproducible experiment tied to a paper artefact."""

    id: str
    paper_ref: str
    title: str
    description: str
    bench_module: str | None
    modules: tuple[str, ...]


_SPECS = (
    ExperimentSpec(
        id="fig1",
        paper_ref="Figure 1",
        title="Compression techniques illustration",
        description="Byte-level demonstration of null suppression "
                    "('abc' in char(20) -> 3+1 bytes) and dictionary "
                    "compression (repeated values -> one entry + "
                    "pointers), plus throughput.",
        bench_module="benchmarks/bench_figure1_compression.py",
        modules=("repro.compression.null_suppression",
                 "repro.compression.dictionary", "repro.storage.page")),
    ExperimentSpec(
        id="fig2",
        paper_ref="Figure 2",
        title="The SampleCF algorithm end to end",
        description="Literal pseudocode run: sample, build index on the "
                    "sample, compress, return CF; staged timings and "
                    "accuracy check.",
        bench_module="benchmarks/bench_figure2_samplecf.py",
        modules=("repro.core.samplecf", "repro.storage.index",
                 "repro.sampling.row_samplers")),
    ExperimentSpec(
        id="table1",
        paper_ref="Table I",
        title="Notation",
        description="Non-experimental notation glossary; encoded as the "
                    "shared vocabulary of repro.core.metrics and "
                    "repro.core.bounds (see EXPERIMENTS.md).",
        bench_module=None,
        modules=("repro.core.metrics", "repro.core.bounds")),
    ExperimentSpec(
        id="table2",
        paper_ref="Table II",
        title="Summary of results, measured",
        description="The 2x2 grid: NS bias~0 with variance <= 1/(4r) in "
                    "both d regimes; dictionary biased, ratio error -> 1 "
                    "for small d and <= constant for large d.",
        bench_module="benchmarks/bench_table2_summary.py",
        modules=("repro.core.samplecf", "repro.core.cf_models",
                 "repro.core.bounds", "repro.experiments.runner")),
    ExperimentSpec(
        id="thm1",
        paper_ref="Theorem 1",
        title="NS unbiasedness and std-dev bound",
        description="Measured bias and std-dev of CF'_NS against "
                    "(1/2)sqrt(1/(f n)) across sampling fractions and "
                    "length distributions.",
        bench_module="benchmarks/bench_theorem1_ns_bound.py",
        modules=("repro.core.samplecf", "repro.core.bounds")),
    ExperimentSpec(
        id="ex1",
        paper_ref="Example 1",
        title="Paper-scale example (n=100M, r=1M)",
        description="The example at its true scale via the histogram "
                    "path: measured sigma vs the 0.0005 bound.",
        bench_module="benchmarks/bench_example1_paper_scale.py",
        modules=("repro.core.samplecf", "repro.core.bounds")),
    ExperimentSpec(
        id="thm2",
        paper_ref="Theorem 2",
        title="Dictionary, small d: ratio error -> 1",
        description="Ratio error as n grows with d = o(n) (d = sqrt n), "
                    "against the deterministic bound 1 + dk/(fnp).",
        bench_module="benchmarks/bench_theorem2_small_d.py",
        modules=("repro.core.samplecf", "repro.core.bounds")),
    ExperimentSpec(
        id="thm3",
        paper_ref="Theorem 3",
        title="Dictionary, large d: constant ratio error",
        description="Ratio error as n grows with d = alpha n; stays "
                    "below the constant bound, independent of n.",
        bench_module="benchmarks/bench_theorem3_large_d.py",
        modules=("repro.core.samplecf", "repro.core.bounds")),
    ExperimentSpec(
        id="abl-paging",
        paper_ref="Section III-B / future work",
        title="Paging effects in dictionary compression",
        description="Paged (in-place and repacked) vs simplified global "
                    "dictionary CF across d; how paging shifts CF and "
                    "SampleCF's error.",
        bench_module="benchmarks/bench_ablation_paging.py",
        modules=("repro.compression.dictionary",
                 "repro.core.cf_models")),
    ExperimentSpec(
        id="abl-block",
        paper_ref="Section II-C / future work",
        title="Tuple vs block-level sampling",
        description="Estimator error under tuple vs page sampling at "
                    "equal row budget, clustered vs shuffled layouts.",
        bench_module="benchmarks/bench_ablation_block_sampling.py",
        modules=("repro.sampling.block", "repro.core.samplecf")),
    ExperimentSpec(
        id="abl-distinct",
        paper_ref="Section III-B, ref [1]",
        title="Distinct-estimator plug-ins vs SampleCF",
        description="Chao/GEE/Shlosser plug-in CF estimators vs "
                    "SampleCF's implicit scale-up across d regimes and "
                    "skew.",
        bench_module="benchmarks/bench_ablation_distinct_estimators.py",
        modules=("repro.core.distinct", "repro.core.estimator")),
    ExperimentSpec(
        id="abl-replacement",
        paper_ref="Section II-C assumption",
        title="Sampling-design ablation",
        description="With- vs without-replacement vs Bernoulli vs "
                    "reservoir at equal fraction.",
        bench_module="benchmarks/bench_ablation_sampling_designs.py",
        modules=("repro.sampling.row_samplers",
                 "repro.sampling.reservoir", "repro.core.samplecf")),
    ExperimentSpec(
        id="abl-multicol",
        paper_ref="Sections II-A / III (multi-column remark)",
        title="Multi-column indexes",
        description="The paper's 'extends in a straightforward manner' "
                    "claim made measurable: per-column CF decomposition, "
                    "model-vs-engine agreement, and SampleCF accuracy on "
                    "two-column indexes.",
        bench_module="benchmarks/bench_ablation_multicolumn.py",
        modules=("repro.core.multicolumn", "repro.storage.index")),
    ExperimentSpec(
        id="micro-storage",
        paper_ref="(engine fidelity)",
        title="Storage engine microbenchmarks",
        description="Page fill, index build, compression throughput; "
                    "payload-mode CF equality with the closed forms.",
        bench_module="benchmarks/bench_storage_engine.py",
        modules=("repro.storage", "repro.compression")),
    ExperimentSpec(
        id="app-advisor",
        paper_ref="Section I application",
        title="Physical design under a storage bound",
        description="Greedy index selection consuming SampleCF estimates "
                    "vs exact sizes: decision agreement and cost gap.",
        bench_module="benchmarks/bench_advisor.py",
        modules=("repro.advisor",)),
    ExperimentSpec(
        id="perf-store",
        paper_ref="(engine performance)",
        title="Persistent store warm start",
        description="Cold vs warm runs of one estimation batch against "
                    "the content-addressed sample/estimate store: wall "
                    "time, per-tier hit counts, and bit-identical "
                    "estimates.",
        bench_module="benchmarks/bench_store_warm_start.py",
        modules=("repro.store", "repro.engine")),
    ExperimentSpec(
        id="app-whatif",
        paper_ref="Section I application / Theorems 1-2",
        title="What-if advisor with bound pruning",
        description="Lazy engine-backed greedy selection: Theorem 1/2 "
                    "CF bounds prune candidates that cannot win, "
                    "adaptive allocation stops trials early; engine "
                    "units and wall-clock vs. the eager advisor, with "
                    "bit-identical selected designs asserted.",
        bench_module="benchmarks/bench_whatif_advisor.py",
        modules=("repro.advisor.whatif", "repro.core.bounds",
                 "repro.engine")),
    ExperimentSpec(
        id="perf-size-kernels",
        paper_ref="(engine performance)",
        title="Vectorized size-only kernels",
        description="Scalar compress vs. size-only vectorized kernels "
                    "per codec on the canonical clustered CHAR index: "
                    "cold and batch-shared speedups, with bit-identical "
                    "payload sizes asserted.",
        bench_module="benchmarks/bench_size_kernels.py",
        modules=("repro.compression.kernels", "repro.storage.index")),
    ExperimentSpec(
        id="perf-remote",
        paper_ref="(engine performance)",
        title="Remote plan executor scaling",
        description="Plan units sharded across store-warmed socket "
                    "workers: cost-model LPT scheduling with a "
                    "work-stealing tail vs. round-robin, simulated-"
                    "service throughput scaling at 1/2/4 workers, and "
                    "zero sample materializations against a warm "
                    "shared store — with bit-identical estimates "
                    "asserted against the serial executor.",
        bench_module="benchmarks/bench_remote_executor.py",
        modules=("repro.engine.remote", "repro.store")),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPECS}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}") from None


def list_experiments() -> list[ExperimentSpec]:
    """All experiments in registry order."""
    return list(_SPECS)
