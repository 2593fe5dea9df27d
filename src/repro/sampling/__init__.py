"""Sampling infrastructure: tuple, Bernoulli, reservoir and block designs."""

from repro.sampling.base import RowSampler, rows_for_fraction
from repro.sampling.block import BlockSampler
from repro.sampling.reservoir import (ReservoirSampler, StreamingReservoir,
                                      reservoir_sample_r, reservoir_sample_x)
from repro.sampling.rng import SeedLike, make_rng, spawn_rngs
from repro.sampling.row_samplers import (BernoulliSampler,
                                         WithoutReplacementSampler,
                                         WithReplacementSampler)

__all__ = [
    "BernoulliSampler",
    "BlockSampler",
    "ReservoirSampler",
    "RowSampler",
    "SeedLike",
    "StreamingReservoir",
    "WithReplacementSampler",
    "WithoutReplacementSampler",
    "make_rng",
    "reservoir_sample_r",
    "reservoir_sample_x",
    "rows_for_fraction",
    "spawn_rngs",
]
