"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class. Subsystems raise the most specific
subclass that applies; constructors accept a human-readable message and
optionally attach structured context as attributes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema definition or a row does not satisfy schema constraints."""


class EncodingError(ReproError):
    """A value cannot be encoded to, or decoded from, its on-page bytes."""


class PageError(ReproError):
    """Base class for page-level storage errors."""


class PageFullError(PageError):
    """A record does not fit into the remaining free space of a page."""

    def __init__(self, message: str, *, record_bytes: int | None = None,
                 free_bytes: int | None = None) -> None:
        super().__init__(message)
        self.record_bytes = record_bytes
        self.free_bytes = free_bytes


class PageFormatError(PageError):
    """A serialized page image is malformed and cannot be parsed."""


class RecordNotFoundError(ReproError, LookupError):
    """A RID or key does not resolve to a stored record."""


class IndexError_(ReproError):
    """An index operation failed (build, insert, or scan).

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`.
    """


class CompressionError(ReproError):
    """A compression algorithm could not process the given records."""


class KernelUnavailable(ReproError):
    """No vectorized size kernel covers this algorithm/column combination.

    Raised by a codec's ``_size_column`` (the base one has no kernel)
    through :meth:`CompressionAlgorithm.size_of` to signal "use the
    scalar path"; callers treat it as a routing decision, never as a
    failure, which is why it is not a :class:`CompressionError`
    subclass (a genuine compression failure must not be silently
    absorbed by the fallback).
    """


class SamplingError(ReproError):
    """A sampler received invalid parameters or an empty population."""


class EstimationError(ReproError):
    """An estimator could not produce an estimate (degenerate input)."""


class StoreError(ReproError):
    """The persistent sample/estimate store cannot serve a request."""


class TransientStoreError(StoreError):
    """A store failure that may clear on retry.

    Lock timeouts, interrupted syscalls, a momentarily full disk: the
    operation was well-formed and the store is structurally sound, so
    the engine's :class:`~repro.faults.RetryPolicy` targets exactly
    this class — and nothing broader — before degrading.
    """


class PermanentStoreError(StoreError):
    """A store failure no retry can fix.

    Format-version mismatches, malformed keys, unserializable payloads:
    retrying would burn the deadline repeating the same failure, so
    these degrade immediately (materialize / skip persistence).
    """


class InjectedFault(ReproError):
    """Raised by fault-injection hooks that simulate hard process death.

    Deliberately *not* a :class:`StoreError`: the degradation paths
    must never absorb a simulated crash — the torture harness catches
    it at the call site instead (subprocess variants ``os._exit`` and
    never raise at all).
    """


class AdvisorError(ReproError):
    """The physical-design advisor received an infeasible problem."""


class ExperimentError(ReproError):
    """An experiment specification or run is invalid."""
