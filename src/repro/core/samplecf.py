"""The SampleCF estimator — Figure 2 of the paper.

::

    Algorithm SampleCF (T, f, S, C)
      // Table T, sampling fraction f, index columns S, compression C
      1. T' = uniform random sample of f*n rows from T
      2. Build index I'(S) on T'
      3. Compress index I' using C
      4. Return CF for index I'

Two execution paths share the same estimator object:

* :meth:`SampleCF.estimate_table` — the literal algorithm against the
  storage engine: draw rows, build the sample's index leaves, size them
  compressed, report the sample's CF. Supports every sampler,
  including block sampling, and every registered algorithm.
  :meth:`SampleCF.estimate_index` is this path run over an *existing*
  index's leaf pages instead of the base table (Section II-C notes
  this cheaper variant), via :meth:`~repro.storage.index.Index.leaf_table`.
* :meth:`SampleCF.estimate_histogram` — the closed-form fast path over a
  :class:`~repro.core.cf_models.ColumnHistogram`; distributionally
  identical to the storage path for model-able algorithms and fast
  enough for the paper's 100M-row Example 1.

``SampleCF`` is a thin single-request facade: every call builds an
:class:`~repro.engine.requests.EstimationRequest` and runs it on the
shared :class:`~repro.engine.engine.EstimationEngine`, so repeated
calls over the same table or index reuse materialized samples and
built sample indexes (and, with a store attached, persisted ones).
Results are bit-identical to running the algorithm inline for a fixed
seed.

Ground truth comes from :func:`true_cf_table` / :func:`true_cf_histogram`
(the same sizing over every row, no sampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import EstimationError, SamplingError
from repro.sampling.base import RowSampler, rows_for_fraction
from repro.sampling.block import BlockSampler
from repro.sampling.rng import SeedLike
from repro.sampling.row_samplers import WithReplacementSampler
from repro.storage.index import Accounting, Index, IndexKind
from repro.storage.table import Table
from repro.compression.base import CompressionAlgorithm
from repro.compression.registry import get_algorithm
from repro.core.cf_models import ColumnHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EstimationEngine


@dataclass(frozen=True)
class SampleCFEstimate:
    """Outcome of one SampleCF run."""

    #: The estimate CF' — the compression fraction observed on the sample.
    estimate: float
    #: Rows actually sampled (``r``; random for Bernoulli/block designs).
    sample_rows: int
    #: The requested sampling fraction ``f``.
    sampling_fraction: float
    #: Compression algorithm name (``C`` in the paper's pseudocode).
    algorithm: str
    #: Size accounting used (``payload`` reproduces the paper's model).
    accounting: str
    #: Which execution path produced the estimate.
    path: str
    #: Uncompressed bytes of the sampled index (CF' denominator).
    uncompressed_sample_bytes: int
    #: Compressed bytes of the sampled index (CF' numerator).
    compressed_sample_bytes: int
    #: Distinct key values observed in the sample (``d'``), if tracked.
    sample_distinct: int | None = None
    #: Extra path-specific diagnostics.
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Zero is a legitimate outcome — a perfectly compressible
        # sample (e.g. RLE over a constant column under payload
        # accounting) compresses to zero bytes. Only a negative CF is
        # impossible.
        if self.estimate < 0:
            raise EstimationError(
                f"SampleCF produced a negative estimate {self.estimate}")


class SampleCF:
    """The sampling-based compression-fraction estimator.

    Parameters
    ----------
    algorithm:
        A :class:`CompressionAlgorithm` instance or registered name.
    sampler:
        Sampling design; defaults to the paper's uniform-with-replacement
        tuple sampler. :class:`BlockSampler` is accepted on the table
        and index paths only (block sampling has no layout-free
        histogram model).
    accounting:
        ``payload`` (paper model, default) or ``physical``.
    repack:
        Whether compressed pages are repacked to capacity (``physical``
        realism knob; see :meth:`Index.estimate_compression`).
    page_size / fill_factor:
        Layout of the index built on the sample;
        :meth:`estimate_index` uses the sampled index's own instead.
    engine:
        The :class:`~repro.engine.engine.EstimationEngine` to run on;
        defaults to the shared process-wide engine, whose sample cache
        makes repeated estimates over one table cheap.
    """

    def __init__(self, algorithm: CompressionAlgorithm | str,
                 sampler: RowSampler | BlockSampler | None = None,
                 accounting: Accounting = "payload",
                 repack: bool = False,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 fill_factor: float = 1.0,
                 engine: "EstimationEngine | None" = None) -> None:
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.algorithm = algorithm
        self.sampler = sampler if sampler is not None \
            else WithReplacementSampler()
        self.accounting: Accounting = accounting
        self.repack = repack
        self.page_size = page_size
        self.fill_factor = fill_factor
        self._engine = engine

    def _engine_for_call(self):
        """The engine serving this facade (shared default unless set)."""
        if self._engine is not None:
            return self._engine
        from repro.engine.engine import default_engine  # lazy: cycle guard

        return default_engine()

    @staticmethod
    def _resolve_seed(seed: SeedLike) -> SeedLike:
        """Pin ``None`` to fresh entropy so repeated calls stay random.

        The engine derives seeds deterministically from request content;
        a facade call with ``seed=None`` must instead behave like the
        historical code path — independent randomness on every call. A
        fresh Generator (not an int) takes the engine's opaque-seed
        path, which skips the shared sample cache: a never-reusable
        random draw should not evict reusable fixed-seed samples or pin
        its rows in memory after the call returns.
        """
        if seed is None:
            # repro-lint: ignore[RPL001] -- the facade's documented
            # None-seed behaviour: independent randomness per call, via
            # the engine's opaque-seed path (never cached, never
            # stored), matching the historical pre-engine code path.
            return np.random.default_rng()
        return seed

    # ------------------------------------------------------------------
    # Storage path (the literal Figure 2 algorithm)
    # ------------------------------------------------------------------
    def estimate_table(self, table: Table, fraction: float,
                       key_columns: Sequence[str],
                       kind: IndexKind = IndexKind.CLUSTERED,
                       seed: SeedLike = None) -> SampleCFEstimate:
        """Run SampleCF against a real table (one engine request)."""
        from repro.engine.requests import EstimationRequest  # cycle guard

        if table.num_rows == 0:
            raise EstimationError("cannot estimate over an empty table")
        rows_for_fraction(table.num_rows, fraction)  # validate f early
        request = EstimationRequest(
            table=table, columns=tuple(key_columns),
            algorithm=self.algorithm, fraction=fraction, trials=1,
            seed=self._resolve_seed(seed), kind=kind,
            sampler=self.sampler, accounting=self.accounting,
            repack=self.repack, page_size=self.page_size,
            fill_factor=self.fill_factor)
        return self._engine_for_call().estimate(request).estimates[0]

    def estimate_index(self, index: Index, fraction: float,
                       seed: SeedLike = None) -> SampleCFEstimate:
        """Run SampleCF by sampling an existing index's leaf entries.

        This is :meth:`estimate_table` over :meth:`Index.leaf_table`,
        with the sample index clustered on the index key and laid out
        with the index's own page size and fill factor. The path reads
        ``"index"`` (``"index_block"`` under block sampling).
        """
        if index.num_entries == 0:
            raise EstimationError("cannot estimate over an empty index")
        estimator = SampleCF(self.algorithm, sampler=self.sampler,
                             accounting=self.accounting,
                             repack=self.repack,
                             page_size=index.page_size,
                             fill_factor=index.fill_factor,
                             engine=self._engine)
        estimate = estimator.estimate_table(
            index.leaf_table(), fraction, index.key_columns,
            kind=IndexKind.CLUSTERED, seed=seed)
        return replace(estimate, path="index_block"
                       if estimate.path == "block" else "index")

    # ------------------------------------------------------------------
    # Histogram fast path
    # ------------------------------------------------------------------
    def estimate_histogram(self, histogram: ColumnHistogram,
                           fraction: float, seed: SeedLike = None,
                           record_bytes: int | None = None,
                           ) -> SampleCFEstimate:
        """Run SampleCF in closed form over a value histogram.

        Distributionally identical to the storage path under ``payload``
        accounting (integration tests verify this), and the only
        practical path at the paper's Example 1 scale.
        """
        from repro.engine.requests import EstimationRequest  # cycle guard

        if isinstance(self.sampler, BlockSampler):
            raise SamplingError(
                "block sampling depends on the physical layout; use "
                "estimate_table/estimate_index")
        if self.accounting != "payload":
            raise EstimationError(
                "the histogram path models payload accounting only")
        rows_for_fraction(histogram.n, fraction)  # validate f early
        request = EstimationRequest(
            histogram=histogram, algorithm=self.algorithm,
            fraction=fraction, trials=1, seed=self._resolve_seed(seed),
            sampler=self.sampler, accounting=self.accounting,
            page_size=self.page_size, fill_factor=self.fill_factor,
            record_bytes=record_bytes)
        return self._engine_for_call().estimate(request).estimates[0]


# ----------------------------------------------------------------------
# Figure 2 convenience wrapper and ground truth
# ----------------------------------------------------------------------
def sample_cf(table: Table, fraction: float, columns: Sequence[str],
              algorithm: CompressionAlgorithm | str,
              kind: IndexKind = IndexKind.CLUSTERED,
              seed: SeedLike = None) -> float:
    """The paper's ``SampleCF(T, f, S, C)`` as a one-call function."""
    estimator = SampleCF(algorithm)
    return estimator.estimate_table(
        table, fraction, columns, kind=kind, seed=seed).estimate


def true_cf_table(table: Table, key_columns: Sequence[str],
                  algorithm: CompressionAlgorithm | str,
                  kind: IndexKind = IndexKind.CLUSTERED,
                  accounting: Accounting = "payload",
                  repack: bool = False,
                  page_size: int = DEFAULT_PAGE_SIZE,
                  fill_factor: float = 1.0) -> float:
    """Exact CF: SampleCF's own index build and sizing over every row.

    :meth:`~repro.storage.index.Index.over` gathers all of the table's
    records and sorts and packs them as a sample's are, and
    :meth:`~repro.storage.index.Index.estimate_compression` sizes the
    whole index; no row is decoded.
    """
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    index = Index.over(table, key_columns, kind=kind, page_size=page_size,
                       fill_factor=fill_factor)
    result = index.estimate_compression(algorithm, accounting=accounting,
                                        repack_pages=repack)
    return result.compression_fraction


def true_cf_histogram(histogram: ColumnHistogram,
                      algorithm: CompressionAlgorithm | str,
                      page_size: int = DEFAULT_PAGE_SIZE,
                      record_bytes: int | None = None,
                      fill_factor: float = 1.0) -> float:
    """Exact CF in closed form over the full histogram."""
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    return algorithm.cf_from_histogram(
        histogram, page_size=page_size, record_bytes=record_bytes,
        fill_factor=fill_factor)
