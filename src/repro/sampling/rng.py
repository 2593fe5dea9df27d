"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either a seed or a
ready-made :class:`numpy.random.Generator`; these helpers normalise that
into a Generator and derive independent child streams for multi-trial
experiments, so any reported number can be reproduced from its seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError

SeedLike = int | np.random.Generator | None


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` gives fresh OS entropy; an ``int`` gives a reproducible
    stream; an existing Generator is passed through unchanged.
    """
    if seed is None:
        # repro-lint: ignore[RPL001] -- make_rng's documented contract:
        # None means fresh OS entropy. The engine never takes this
        # branch (plan units always carry resolved seeds); only
        # explicit seedless facade/workload calls do.
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise SamplingError(
        f"seed must be None, int, or Generator, got {type(seed).__name__}")


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """``count`` statistically independent child generators.

    The whole set replays from one seed.
    """
    if count < 0:
        raise SamplingError(f"cannot spawn {count} generators")
    parent = make_rng(seed)
    return [np.random.default_rng(s)
            for s in parent.integers(0, 2**63 - 1, size=count)]
