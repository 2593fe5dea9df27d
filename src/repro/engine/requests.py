"""Batch estimation requests and their canonical identities.

An :class:`EstimationRequest` is one "estimate the CF of this candidate"
job: a source (a :class:`~repro.storage.table.Table` or a
:class:`~repro.core.cf_models.ColumnHistogram`), a column set, a
compression algorithm, a sampling fraction, a trial count, and an
optional explicit seed. Requests are plain descriptions — all execution
lives in :class:`~repro.engine.engine.EstimationEngine`.

Canonicalization is what makes batches cheap: two requests that would
draw the *same* sample (same source, sampler, fraction, seed) share one
:class:`~repro.engine.samples.MaterializedSample`, and two requests that
additionally probe the same column set share one built sample index.
The key functions below define those equivalences.

Two kinds of key exist on purpose:

* **cache keys** include the source object itself (identity hashing)
  so a cached sample is never reused for a different object that
  merely looks alike, and the source stays alive while cached;
* **seed scopes** are content-only (no ``id``), so deriving trial seeds
  from them is reproducible across runs that rebuild identical sources.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import EstimationError, SamplingError
from repro.sampling.base import RowSampler
from repro.sampling.block import BlockSampler
from repro.sampling.rng import SeedLike
from repro.sampling.row_samplers import WithReplacementSampler
from repro.storage.index import Accounting, IndexKind
from repro.storage.table import Table
from repro.compression.base import CompressionAlgorithm
from repro.compression.registry import get_algorithm
from repro.core.cf_models import ColumnHistogram

#: Upper bound (exclusive) for all derived integer seeds.
SEED_SPACE = 2 ** 63 - 1


def derive_seed(*parts: object) -> int:
    """A stable 62-bit seed from arbitrary hashable description parts.

    Uses SHA-256 over the parts' string forms, so the derivation is
    independent of Python's per-process hash randomisation and of object
    identity — the property the engine's determinism guarantee rests on.
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % SEED_SPACE


def sampler_key(sampler: RowSampler | BlockSampler) -> tuple:
    """Canonical identity of a sampler: class plus constructor state."""
    state = tuple(sorted((name, repr(value))
                         for name, value in vars(sampler).items()))
    return (type(sampler).__name__, state)


def algorithm_key(algorithm: CompressionAlgorithm) -> tuple:
    """Canonical identity of an algorithm instance: class plus config."""
    state = tuple(sorted((name, repr(value))
                         for name, value in vars(algorithm).items()))
    return (type(algorithm).__name__, algorithm.name, state)


def source_cache_key(request: "EstimationRequest") -> tuple:
    """Identity of the request's source for *caching* (object-bound).

    The source object itself is part of the key: Table and
    ColumnHistogram hash by identity, and keeping the object (rather
    than its ``id()``) referenced from cache keys guarantees a recycled
    memory address can never alias a dead source's cached sample.
    ``num_rows`` additionally invalidates table entries after inserts.
    """
    if request.table is not None:
        return ("table", request.table, request.table.num_rows)
    return ("histogram", request.histogram)


def source_seed_scope(request: "EstimationRequest") -> tuple:
    """Identity of the source for *seed derivation* (content-bound).

    Deliberately excludes ``id()`` so a rebuilt-but-identical workload
    replays to the same derived seeds; collisions between same-shaped
    sources merely make them share sample randomness, which keeps paired
    comparisons across candidates noise-free (the Kimura et al. trick).
    """
    if request.table is not None:
        table = request.table
        return ("table", table.name, table.num_rows, table.page_size,
                tuple(column.name for column in table.schema.columns))
    histogram = request.histogram
    return ("histogram", histogram.n, len(histogram.values),
            histogram.dtype.name)


@dataclass(frozen=True)
class EstimationRequest:
    """One CF-estimation job inside a batch.

    Exactly one of ``table`` / ``histogram`` must be given. The table
    path runs the literal Figure 2 algorithm (sample rows, build an
    index on ``columns``, compress it); the histogram path runs the
    closed-form model and ignores ``columns`` / ``kind`` / ``repack``.
    """

    table: Table | None = None
    histogram: ColumnHistogram | None = None
    columns: tuple[str, ...] = ()
    algorithm: CompressionAlgorithm | str = "null_suppression"
    fraction: float = 0.01
    trials: int = 1
    seed: SeedLike = None
    kind: IndexKind = IndexKind.CLUSTERED
    sampler: RowSampler | BlockSampler | None = None
    accounting: Accounting = "payload"
    repack: bool = False
    page_size: int = DEFAULT_PAGE_SIZE
    fill_factor: float = 1.0
    record_bytes: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.table is None) == (self.histogram is None):
            raise EstimationError(
                "a request needs exactly one of table= or histogram=")
        if isinstance(self.algorithm, str):
            object.__setattr__(self, "algorithm",
                               get_algorithm(self.algorithm))
        if self.sampler is None:
            object.__setattr__(self, "sampler", WithReplacementSampler())
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.table is not None and not self.columns:
            raise EstimationError(
                "a table request needs the index key columns")
        if self.histogram is not None:
            if isinstance(self.sampler, BlockSampler):
                raise SamplingError(
                    "block sampling depends on the physical layout; "
                    "histogram requests model tuple sampling only")
            if self.accounting != "payload":
                raise EstimationError(
                    "the histogram path models payload accounting only")
        if not 0.0 < self.fraction <= 1.0:
            raise SamplingError(
                f"sampling fraction must be in (0, 1], got {self.fraction}")
        if self.trials <= 0:
            raise EstimationError(
                f"need a positive trial count, got {self.trials}")
        if isinstance(self.seed, np.random.Generator) and self.trials > 1:
            raise EstimationError(
                "a Generator seed is stateful; multi-trial requests need "
                "an int seed (or None) so trials can be derived")

    # ------------------------------------------------------------------
    # Canonical identities
    # ------------------------------------------------------------------
    @property
    def is_table(self) -> bool:
        return self.table is not None

    def seed_is_opaque(self) -> bool:
        """Whether the seed is a stateful Generator (uncacheable)."""
        return isinstance(self.seed, np.random.Generator)

    def sample_scope(self) -> tuple:
        """What the drawn sample depends on — excludes columns/algorithm.

        Requests with equal sample scopes (and equal resolved seeds)
        share one materialized sample; this is the whole point of batch
        execution.
        """
        return (source_seed_scope(self), sampler_key(self.sampler),
                float(self.fraction))

    def node_key(self) -> tuple:
        """Full canonical identity used to deduplicate requests."""
        if self.seed_is_opaque():
            seed_part: object = ("opaque", id(self.seed))
        else:
            seed_part = self.seed
        return (source_cache_key(self), self.columns,
                algorithm_key(self.algorithm), float(self.fraction),
                self.trials, seed_part, self.kind.value,
                sampler_key(self.sampler), self.accounting, self.repack,
                self.page_size, float(self.fill_factor), self.record_bytes)

    def with_trials(self, trials: int) -> "EstimationRequest":
        """A copy of this request with a different trial count."""
        return replace(self, trials=trials)


@dataclass(frozen=True)
class RequestResult:
    """Per-request outcome: one estimate per trial, in trial order."""

    request: EstimationRequest
    estimates: tuple = ()

    @property
    def values(self) -> np.ndarray:
        """Trial estimates as a float array."""
        return np.asarray([e.estimate for e in self.estimates],
                          dtype=np.float64)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def estimate(self) -> float:
        """The single-trial estimate (requires ``trials == 1``)."""
        if len(self.estimates) != 1:
            raise EstimationError(
                f"request ran {len(self.estimates)} trials; "
                "use .values/.mean")
        return self.estimates[0].estimate


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :meth:`EstimationEngine.execute` call."""

    results: tuple[RequestResult, ...]
    #: Engine stats delta attributable to this batch.
    stats: dict = field(default_factory=dict)
    #: Id of the ``engine.execute`` span that ran the batch (traced
    #: engines only), so a caller's own spans can link to it.
    span_id: str | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, position: int) -> RequestResult:
        return self.results[position]


#: Legal per-unit statuses in a :class:`PartialBatchResult`.
UNIT_STATUSES = frozenset({"done", "degraded", "deadline_exceeded"})


@dataclass(frozen=True)
class UnitOutcome:
    """Accounting entry for one (node, trial) unit of a bounded run.

    ``done`` means the unit ran cleanly; ``degraded`` means it ran and
    produced a correct value but took a degradation path on the way
    (store retry exhausted, worker died and the parent re-ran it, ...);
    ``deadline_exceeded`` means the unit never ran — its batch budget
    was spent first — so its node has no value.
    """

    index: int
    trial: int
    status: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in UNIT_STATUSES:
            raise EstimationError(
                f"unknown unit status {self.status!r}; known: "
                f"{sorted(UNIT_STATUSES)}")


@dataclass(frozen=True)
class PartialBatchResult:
    """Outcome of a deadline-bounded :meth:`EstimationEngine.execute`.

    The accounting contract: ``outcomes`` holds exactly one entry per
    submitted plan unit — done, degraded, or deadline-exceeded — so no
    unit is ever silently lost. A request whose node lost any trial to
    the deadline gets ``None`` in ``results`` (a partial trial set
    would silently change the mean); every completed request's value is
    bit-identical to an unbounded run's.
    """

    results: tuple[RequestResult | None, ...]
    outcomes: tuple[UnitOutcome, ...]
    #: Engine stats delta attributable to this batch.
    stats: dict = field(default_factory=dict)
    #: As :attr:`BatchResult.span_id`.
    span_id: str | None = field(default=None, compare=False)

    @property
    def complete(self) -> bool:
        """Whether every submitted unit actually ran."""
        return all(outcome.status != "deadline_exceeded"
                   for outcome in self.outcomes)

    def counts(self) -> dict[str, int]:
        """Outcome tally by status (all statuses always present)."""
        tally = {status: 0 for status in sorted(UNIT_STATUSES)}
        for outcome in self.outcomes:
            tally[outcome.status] += 1
        return tally

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, position: int) -> RequestResult | None:
        return self.results[position]


def as_requests(items: Sequence[EstimationRequest],
                ) -> tuple[EstimationRequest, ...]:
    """Validate a request sequence (helpful error for stray inputs)."""
    requests = tuple(items)
    for item in requests:
        if not isinstance(item, EstimationRequest):
            raise EstimationError(
                f"batch items must be EstimationRequest, got "
                f"{type(item).__name__}")
    if not requests:
        raise EstimationError("an estimation batch needs at least one "
                              "request")
    return requests
