"""Capacity planning: how much storage will the archive need?

The paper's second application (Section I): estimate the space required
to store data compressed — for archival, backup sizing, or data-retention
budgeting — without compressing anything. Each table contributes its
estimated compressed size; null-suppression estimates carry Theorem 1
confidence intervals so the plan can be quoted with a safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import AdvisorError
from repro.sampling.rng import SeedLike
from repro.storage.index import IndexKind
from repro.storage.table import Table
from repro.compression.base import CompressionAlgorithm
from repro.compression.null_suppression import NullSuppression
from repro.compression.registry import get_algorithm
from repro.core.confidence import ConfidenceInterval, ns_confidence_interval
from repro.engine.engine import EstimationEngine
from repro.engine.requests import EstimationRequest
from repro.advisor.candidates import uncompressed_index_bytes


@dataclass(frozen=True)
class CapacityEntry:
    """One table's contribution to the capacity plan."""

    table: str
    rows: int
    uncompressed_bytes: int
    estimated_cf: float
    estimated_compressed_bytes: float
    interval: ConfidenceInterval | None = None


@dataclass(frozen=True)
class CapacityPlan:
    """Aggregate archival sizing across tables."""

    entries: tuple[CapacityEntry, ...]
    algorithm: str
    sampling_fraction: float

    @property
    def total_uncompressed_bytes(self) -> int:
        return sum(entry.uncompressed_bytes for entry in self.entries)

    @property
    def total_compressed_bytes(self) -> float:
        return sum(entry.estimated_compressed_bytes
                   for entry in self.entries)

    @property
    def total_high_bytes(self) -> float:
        """Conservative (upper-CI) total, for quoting with a margin."""
        total = 0.0
        for entry in self.entries:
            if entry.interval is not None:
                total += entry.interval.high * entry.uncompressed_bytes
            else:
                total += entry.estimated_compressed_bytes
        return total

    def describe(self) -> str:
        lines = [f"capacity plan ({self.algorithm}, "
                 f"f={self.sampling_fraction:.2%}):"]
        for entry in self.entries:
            lines.append(
                f"  {entry.table}: {entry.uncompressed_bytes:,} B -> "
                f"{entry.estimated_compressed_bytes:,.0f} B "
                f"(CF {entry.estimated_cf:.3f})")
        lines.append(
            f"  TOTAL: {self.total_uncompressed_bytes:,} B -> "
            f"{self.total_compressed_bytes:,.0f} B "
            f"(safe upper {self.total_high_bytes:,.0f} B)")
        return "\n".join(lines)


def plan_capacity(tables: Sequence[Table],
                  algorithm: CompressionAlgorithm | str = "null_suppression",
                  fraction: float = 0.01,
                  confidence: float = 0.95,
                  seed: SeedLike = None) -> CapacityPlan:
    """Estimate compressed sizes for archiving ``tables``.

    Each table is sized through a clustered index on all of its columns
    (archival stores whole rows; :func:`uncompressed_index_bytes`), and
    every table must have fixed-width rows; that is checked before any
    sample is drawn. The estimates run as one engine batch, one request
    per table, on an :class:`~repro.engine.engine.EstimationEngine`
    whose master seed is ``seed`` (``None`` draws a fresh one). For
    null suppression the Theorem 1 interval is attached; other
    algorithms report point estimates.
    """
    if not tables:
        raise AdvisorError("no tables to plan for")
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    sizes = [uncompressed_index_bytes(table, table.schema.names,
                                      IndexKind.CLUSTERED)
             for table in tables]
    batch = EstimationEngine(seed=seed).execute([
        EstimationRequest(table=table, columns=tuple(table.schema.names),
                          algorithm=algorithm, fraction=fraction,
                          kind=IndexKind.CLUSTERED,
                          page_size=table.page_size)
        for table in tables])
    entries: list[CapacityEntry] = []
    for table, uncompressed, result in zip(tables, sizes, batch.results):
        estimate = result.estimates[0]
        interval = None
        if isinstance(algorithm, NullSuppression):
            interval = ns_confidence_interval(
                estimate.estimate, estimate.sample_rows,
                confidence=confidence)
        entries.append(CapacityEntry(
            table=table.name,
            rows=table.num_rows,
            uncompressed_bytes=uncompressed,
            estimated_cf=estimate.estimate,
            estimated_compressed_bytes=estimate.estimate * uncompressed,
            interval=interval))
    return CapacityPlan(entries=tuple(entries), algorithm=algorithm.name,
                        sampling_fraction=fraction)
