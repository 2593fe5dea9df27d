"""Workload cost model for compression-aware physical design.

Section I motivates the estimator with automated physical design: given
a query workload and a storage bound, choose indexes (possibly
compressed) that minimise workload cost. The model here is deliberately
the textbook one those tools use at candidate-pruning time:

* an index serves a query if its key columns contain the query's
  referenced columns;
* I/O cost is pages read: ``ceil(selectivity * leaf_pages)`` through an
  index, or the full heap scan without one;
* compression reduces pages proportionally to CF but charges a CPU
  penalty per compressed page read (the decompression cost the paper
  highlights as the reason compression must be applied judiciously).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import AdvisorError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table


@dataclass(frozen=True)
class Query:
    """One workload query: which table, which columns, how selective."""

    name: str
    table: str
    columns: tuple[str, ...]
    selectivity: float = 1.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.columns:
            raise AdvisorError(f"query {self.name!r} references no columns")
        if not 0.0 < self.selectivity <= 1.0:
            raise AdvisorError(
                f"selectivity must be in (0, 1], got {self.selectivity}")
        if self.weight <= 0:
            raise AdvisorError(
                f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class TableStats:
    """What the cost model needs to know about a base table."""

    name: str
    rows: int
    heap_pages: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.heap_pages <= 0:
            raise AdvisorError(
                f"table {self.name!r} needs positive rows and pages")


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the cost function."""

    page_size: int = DEFAULT_PAGE_SIZE
    #: Extra CPU cost per compressed page read, as a fraction of the I/O
    #: cost of that page (Section I: decompression is a real CPU cost).
    decompression_cpu_factor: float = 0.2

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise AdvisorError("page size must be positive")
        if self.decompression_cpu_factor < 0:
            raise AdvisorError("CPU factor must be non-negative")

    def pages_for_bytes(self, size_bytes: float) -> int:
        """Whole pages needed to hold ``size_bytes``."""
        if size_bytes <= 0:
            return 1
        return max(1, math.ceil(size_bytes / self.page_size))

    def index_access_cost(self, query: Query, leaf_pages: int,
                          compressed: bool) -> float:
        """Cost of answering ``query`` through a covering index."""
        touched = max(1, math.ceil(query.selectivity * leaf_pages))
        multiplier = 1.0 + (self.decompression_cpu_factor
                            if compressed else 0.0)
        return query.weight * touched * multiplier

    def scan_cost(self, query: Query, table: TableStats) -> float:
        """Fallback cost: scan the whole heap."""
        return query.weight * table.heap_pages


def stats_for_tables(tables: dict[str, "Table"],
                     ) -> dict[str, TableStats]:
    """Derive :class:`TableStats` straight from live tables.

    The engine-backed advisor path estimates everything from data, so
    callers should not have to hand-assemble row/page counts either.
    """
    return {name: TableStats(name=name, rows=table.num_rows,
                             heap_pages=table.heap.num_pages)
            for name, table in tables.items()}


def covers(key_columns: Sequence[str], query: Query) -> bool:
    """Whether an index on ``key_columns`` can serve ``query``.

    The standard sargability shortcut: the index is usable when every
    referenced column appears among its keys.
    """
    return set(query.columns).issubset(set(key_columns))


@dataclass
class WorkloadCost:
    """Total workload cost with a per-query breakdown."""

    total: float = 0.0
    #: Best cost by query name; queries that share a name share a key.
    per_query: dict[str, float] = field(default_factory=dict)
    #: Best cost of each query, in query order: what
    #: :func:`~repro.advisor.selection.candidate_gain` prices a probe
    #: from.
    best_costs: list[float] = field(default_factory=list)


def workload_cost(queries: Sequence[Query],
                  tables: dict[str, TableStats],
                  chosen: Sequence["CandidateIndex"],  # noqa: F821
                  model: CostModel) -> WorkloadCost:
    """Cost of the workload given the chosen physical design.

    Each query uses the cheapest applicable access path among the chosen
    indexes, falling back to a heap scan. ``total`` adds the queries'
    best costs in query order, starting from 0.0, and ``best_costs``
    keeps them by position, so a caller that prices one more index
    from them reproduces this sum float for float.
    """
    from repro.advisor.candidates import CandidateIndex  # cycle guard

    result = WorkloadCost()
    for query in queries:
        try:
            table = tables[query.table]
        except KeyError:
            raise AdvisorError(
                f"query {query.name!r} references unknown table "
                f"{query.table!r}") from None
        best = model.scan_cost(query, table)
        for candidate in chosen:
            if not isinstance(candidate, CandidateIndex):
                raise AdvisorError(
                    f"chosen design contains a non-candidate: "
                    f"{candidate!r}")
            if candidate.table != query.table:
                continue
            if not covers(candidate.key_columns, query):
                continue
            leaf_pages = model.pages_for_bytes(candidate.size_bytes)
            cost = model.index_access_cost(
                query, leaf_pages, candidate.compressed)
            best = min(best, cost)
        result.per_query[query.name] = best
        result.best_costs.append(best)
        result.total += best
    return result
