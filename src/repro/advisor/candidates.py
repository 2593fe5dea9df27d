"""Candidate index enumeration with SampleCF-estimated sizes.

For every query the advisor considers an index keyed on the query's
columns, in both an uncompressed and a compressed variant. The
compressed variant's size — the quantity a storage-bounded search needs
— comes from SampleCF, exactly the role the paper assigns the estimator
inside physical design tools. Ground-truth sizes (full compression) can
be requested instead, which is how the `app-advisor` experiment measures
the cost of estimation error in final decisions.

Two estimation paths exist:

* :func:`enumerate_candidates` — the historical per-candidate loop
  (one fresh sample per compressed candidate), kept for its ``exact``
  oracle and as the baseline batching is measured against;
* :func:`enumerate_candidates_batch` — the engine-backed path, which is
  :meth:`WhatIfAdvisor.candidates
  <repro.advisor.whatif.WhatIfAdvisor.candidates>`: all (column-set ×
  algorithm) candidates go into one
  :class:`~repro.engine.engine.EstimationEngine` batch, so every
  candidate on a table shares one materialized sample per trial and
  every algorithm probing a column set shares one built sample index —
  the shared-sample trick compression-aware design tools rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from repro.errors import AdvisorError
from repro.sampling.rng import SeedLike, make_rng
from repro.storage.index import IndexKind
from repro.storage.rid import RID_BYTES
from repro.storage.table import Table
from repro.compression.base import CompressionAlgorithm
from repro.compression.registry import get_algorithm
from repro.core.samplecf import SampleCF, true_cf_table
from repro.advisor.cost import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EstimationEngine
    from repro.engine.executors import PlanExecutor
    from repro.store.store import SampleStore

SizeSource = Literal["samplecf", "exact"]


@dataclass(frozen=True)
class CandidateIndex:
    """One possible index, sized and ready for selection."""

    table: str
    key_columns: tuple[str, ...]
    compressed: bool
    algorithm: str | None
    size_bytes: float
    size_source: str
    estimated_cf: float | None = None

    @property
    def name(self) -> str:
        suffix = f"__{self.algorithm}" if self.compressed else ""
        return f"ix_{self.table}_{'_'.join(self.key_columns)}{suffix}"

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise AdvisorError("candidate needs key columns")
        if self.size_bytes <= 0:
            raise AdvisorError(
                f"candidate {self.key_columns} has non-positive size")


def uncompressed_index_bytes(table: Table,
                             key_columns: Sequence[str]) -> int:
    """Leaf payload of a non-clustered index on ``key_columns``.

    Per entry: the fixed widths of the key columns plus an 8-byte RID.
    """
    width = 0
    for column in key_columns:
        fixed = table.schema[column].dtype.fixed_size
        if fixed is None:
            raise AdvisorError(
                f"column {column!r} is variable-width; the advisor "
                "sizes fixed-width keys only")
        width += fixed
    return table.num_rows * (width + RID_BYTES)


def workload_key_sets(tables: dict[str, Table], queries: Sequence[Query],
                      ) -> list[tuple[str, tuple[str, ...]]]:
    """Distinct (table, column tuple) pairs referenced by the workload."""
    key_sets: dict[tuple[str, tuple[str, ...]], None] = {}
    for query in queries:
        if query.table not in tables:
            raise AdvisorError(
                f"query {query.name!r} references unknown table "
                f"{query.table!r}")
        key_sets.setdefault((query.table, tuple(query.columns)), None)
    return list(key_sets)


def enumerate_candidates(tables: dict[str, Table],
                         queries: Sequence[Query],
                         algorithm: CompressionAlgorithm | str = "page",
                         fraction: float = 0.01,
                         size_source: SizeSource = "samplecf",
                         seed: SeedLike = None) -> list[CandidateIndex]:
    """Candidates for a workload: one (un)compressed pair per key set.

    Key sets are the distinct column tuples referenced by queries.
    Compressed sizes come from SampleCF (``size_source="samplecf"``) or
    from actually compressing the full index (``"exact"``, the oracle
    the ablation compares against). This is the naive per-candidate
    loop — every compressed candidate draws its own sample; prefer
    :func:`enumerate_candidates_batch` when sizing more than a handful.
    """
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    rng = make_rng(seed)
    key_sets = workload_key_sets(tables, queries)
    candidates: list[CandidateIndex] = []
    for table_name, key_columns in key_sets:
        table = tables[table_name]
        plain_bytes = uncompressed_index_bytes(table, key_columns)
        candidates.append(CandidateIndex(
            table=table_name, key_columns=key_columns, compressed=False,
            algorithm=None, size_bytes=float(plain_bytes),
            size_source="schema"))
        if size_source == "samplecf":
            estimator = SampleCF(algorithm, page_size=table.page_size)
            estimate = estimator.estimate_table(
                table, fraction, key_columns,
                kind=IndexKind.NONCLUSTERED,
                seed=int(rng.integers(0, 2**63 - 1)))
            cf = estimate.estimate
        elif size_source == "exact":
            cf = true_cf_table(table, key_columns, algorithm,
                               kind=IndexKind.NONCLUSTERED,
                               page_size=table.page_size)
        else:
            raise AdvisorError(f"unknown size source {size_source!r}")
        candidates.append(CandidateIndex(
            table=table_name, key_columns=key_columns, compressed=True,
            algorithm=algorithm.name, size_bytes=plain_bytes * cf,
            size_source=size_source, estimated_cf=cf))
    return candidates


def resolve_algorithms(algorithms: Sequence[CompressionAlgorithm | str],
                       ) -> list[CompressionAlgorithm]:
    """Registry lookups for name entries; rejects an empty list."""
    resolved = [get_algorithm(a) if isinstance(a, str) else a
                for a in algorithms]
    if not resolved:
        raise AdvisorError("need at least one compression algorithm")
    return resolved


def candidate_request(table: Table, table_name: str,
                      key_columns: tuple[str, ...],
                      algorithm: CompressionAlgorithm, fraction: float,
                      trials: int) -> "EstimationRequest":
    """The engine request that sizes one compressed candidate.

    Single source of truth for the advisor's request shape: sampler,
    index kind, accounting and page layout, which the what-if priors
    (:func:`~repro.advisor.whatif.prior_cf_interval`) read back.
    """
    from repro.engine.requests import EstimationRequest  # lazy: cycle

    return EstimationRequest(
        table=table, columns=key_columns, algorithm=algorithm,
        fraction=fraction, trials=trials, kind=IndexKind.NONCLUSTERED,
        page_size=table.page_size,
        label=f"{table_name}:{','.join(key_columns)}:{algorithm.name}")


def enumerate_candidates_batch(
        tables: dict[str, Table], queries: Sequence[Query],
        algorithms: Sequence[CompressionAlgorithm | str] = ("page",),
        fraction: float = 0.01,
        trials: int = 1,
        engine: "EstimationEngine | None" = None,
        seed: SeedLike = None,
        executor: "PlanExecutor | str | None" = None,
        store: "SampleStore | str | None" = None,
        ) -> list[CandidateIndex]:
    """Engine-backed candidate enumeration from data.

    Sizes every (key set × algorithm) compressed candidate in **one**
    engine batch: per trial, each table is sampled once and shared
    across all of its candidates; each column set's sample index is
    built once and shared across algorithms. With ``trials > 1`` the
    per-candidate CF is the mean over trials (variance reduction at
    almost no extra sampling cost, since trials of different candidates
    still share table samples).

    Unlike :func:`enumerate_candidates`, callers never supply CF
    numbers — the estimates come straight from the tables. This is
    :meth:`WhatIfAdvisor.candidates
    <repro.advisor.whatif.WhatIfAdvisor.candidates>` at a budget of
    ``trials``.

    ``executor`` overrides how the batch runs (an executor instance or
    a name: ``"serial"``, ``"process"``, ``"remote"``). The advisor
    batch is embarrassingly parallel and compress-heavy, which is
    exactly the shape the process pool is for; estimates are
    byte-identical across executors for a fixed seed.

    ``store`` (a :class:`~repro.store.store.SampleStore` or a
    directory path) attaches the persistent disk tier, so repeated
    advisor runs over the same stored tables warm-start instead of
    re-sampling — the paper's "design tools call the estimator many
    times over the same data" scenario.
    """
    from repro.advisor.whatif import WhatIfAdvisor  # lazy: cycle guard

    return WhatIfAdvisor(
        tables, queries, algorithms=algorithms, fraction=fraction,
        max_trials=trials, engine=engine, seed=seed, executor=executor,
        store=store).candidates()
