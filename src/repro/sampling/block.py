"""Block-level (page) sampling — the paper's declared future work.

Commercial systems rarely sample individual tuples: they sample whole
pages and keep every row on each sampled page, because that is the I/O
granularity. The paper's analysis covers tuple sampling and explicitly
defers page sampling ("Extending the analysis to account for page
sampling is part of future work", Section II-C); the `abl-block`
experiment measures the difference empirically.

Block sampling has *no* layout-free histogram equivalent: when values
are clustered (e.g. the table is sorted), rows on one page are highly
correlated and the effective sample is much less informative than an
equal-size tuple sample. That is exactly the phenomenon the ablation
demonstrates, so the sampler operates only on real pages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError


class BlockSampler:
    """Uniform page sampling without replacement, whole pages kept.

    A draw is :meth:`choose_pages` over the heap's per-page record
    counts, then one gather of every record on the chosen pages
    (:func:`~repro.engine.samples.materialize_table_sample`).
    """

    name = "block"
    with_replacement = False

    def choose_pages(self, counts: np.ndarray, target_rows: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Positions of the pages a draw keeps, in draw order.

        ``counts`` holds each page's record count. Pages are taken in
        one ``rng.permutation`` order until at least ``target_rows``
        records are collected; if the pages run out first, every page
        is taken.
        """
        if counts.size == 0:
            raise SamplingError("cannot block-sample zero pages")
        if target_rows <= 0:
            raise SamplingError(
                f"target rows must be positive, got {target_rows}")
        order = rng.permutation(counts.size)
        collected = np.cumsum(counts[order])
        if collected[-1] == 0:
            raise SamplingError("sampled pages contain no records")
        return order[:int(np.searchsorted(collected, target_rows)) + 1]
