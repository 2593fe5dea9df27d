"""Reservoir sampling (Vitter, reference [5] of the paper).

Reservoir sampling draws a uniform without-replacement sample of fixed
size ``r`` from a stream of unknown length in one pass — the natural way
to sample a table scan without knowing ``n`` up front.

Two classic variants are implemented:

* **Algorithm R** — O(N) coin flips; simple and branch-light.
* **Algorithm X** — skip-based: computes how many records to skip before
  the next replacement, touching far fewer random numbers when
  ``N >> r``.

Both produce exactly the same distribution (uniform without
replacement), which the property tests check against the direct sampler.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

import numpy as np

from repro.errors import SamplingError
from repro.sampling.row_samplers import WithoutReplacementSampler
from repro.sampling.rng import SeedLike, make_rng

T = TypeVar("T")


def reservoir_sample_r(stream: Iterable[T], r: int,
                       rng: np.random.Generator) -> list[T]:
    """Vitter's Algorithm R over an arbitrary stream."""
    if r <= 0:
        raise SamplingError(f"reservoir size must be positive, got {r}")
    reservoir: list[T] = []
    for seen, item in enumerate(stream):
        if seen < r:
            reservoir.append(item)
            continue
        slot = int(rng.integers(0, seen + 1))
        if slot < r:
            reservoir[slot] = item
    if not reservoir:
        raise SamplingError("cannot sample from an empty stream")
    return reservoir


def reservoir_sample_x(stream: Iterable[T], r: int,
                       rng: np.random.Generator) -> list[T]:
    """Vitter's Algorithm X: skip-count based reservoir sampling."""
    if r <= 0:
        raise SamplingError(f"reservoir size must be positive, got {r}")
    iterator: Iterator[T] = iter(stream)
    reservoir: list[T] = []
    for item in iterator:
        reservoir.append(item)
        if len(reservoir) == r:
            break
    if not reservoir:
        raise SamplingError("cannot sample from an empty stream")
    if len(reservoir) < r:
        return reservoir
    t = r  # records seen so far
    while True:
        # Draw the skip count S: the number of records to pass over
        # before the next record enters the reservoir. S satisfies
        # P(S >= s) = prod_{i=1..s} (t + i - r) / (t + i); invert by
        # sequential search on a single uniform variate (Vitter 1985).
        u = rng.random()
        skip = 0
        probability = 1.0
        while True:
            probability *= (t + skip + 1 - r) / (t + skip + 1)
            if probability <= u:
                break
            skip += 1
        advanced = 0
        chosen: T | None = None
        for item in iterator:
            advanced += 1
            if advanced == skip + 1:
                chosen = item
                break
        if advanced < skip + 1:
            return reservoir  # stream exhausted during the skip
        slot = int(rng.integers(0, r))
        reservoir[slot] = chosen  # type: ignore[assignment]
        t += skip + 1


class ReservoirSampler(WithoutReplacementSampler):
    """Row sampler backed by reservoir sampling over a position stream.

    Distributionally identical to
    :class:`~repro.sampling.row_samplers.WithoutReplacementSampler`; it
    exists to model the streaming access pattern (one sequential scan).
    A reservoir sample is a uniform without-replacement sample, so its
    histogram draw is the inherited multivariate hypergeometric one.
    """

    name = "reservoir"

    def __init__(self, variant: str = "r") -> None:
        if variant not in ("r", "x"):
            raise SamplingError(f"unknown reservoir variant {variant!r}")
        self.variant = variant

    def sample_positions(self, n: int, r: int,
                         rng: np.random.Generator) -> np.ndarray:
        self._check(n, r)
        sampler = reservoir_sample_r if self.variant == "r" \
            else reservoir_sample_x
        return np.asarray(sampler(range(n), r, rng))


class StreamingReservoir:
    """Incremental reservoir for use inside scan loops.

    Example::

        reservoir = StreamingReservoir(r=1000, seed=7)
        for row in table.rows():
            reservoir.offer(row)
        sample = reservoir.sample()
    """

    def __init__(self, r: int, seed: SeedLike = None) -> None:
        if r <= 0:
            raise SamplingError(f"reservoir size must be positive, got {r}")
        self.r = r
        self._rng = make_rng(seed)
        self._items: list = []
        self._seen = 0

    def offer(self, item) -> None:
        """Present the next stream element to the reservoir."""
        if self._seen < self.r:
            self._items.append(item)
        else:
            slot = int(self._rng.integers(0, self._seen + 1))
            if slot < self.r:
                self._items[slot] = item
        self._seen += 1

    @property
    def seen(self) -> int:
        """How many elements have been offered."""
        return self._seen

    def sample(self) -> list:
        """The current reservoir contents (a copy)."""
        if not self._items:
            raise SamplingError("no elements offered yet")
        return list(self._items)
