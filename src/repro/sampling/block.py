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

from collections import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SamplingError
from repro.storage.page import Page
from repro.storage.rid import RID


@dataclass(frozen=True)
class BlockSample:
    """Outcome of a block-level draw."""

    records: tuple[bytes, ...]
    rids: tuple[RID, ...]
    page_ids: tuple[int, ...]
    pages_available: int

    @property
    def rows(self) -> int:
        return len(self.records)


class BlockSampler:
    """Uniform page sampling without replacement, whole pages kept."""

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

    def sample_records(self, pages: Sequence[Page], target_rows: int,
                       rng: np.random.Generator) -> BlockSample:
        """Draw pages until at least ``target_rows`` rows are collected.

        Pages are drawn uniformly without replacement; every record on a
        drawn page enters the sample (the block-sampling contract). If
        the table runs out of pages first, the whole table is returned.
        The pages are those :meth:`choose_pages` picks, so this draws
        what a draw over a heap with the same pages draws.
        """
        if not isinstance(pages, abc.Sequence):
            pages = list(pages)
        chosen = self.choose_pages(
            np.fromiter((page.slot_count for page in pages),
                        dtype=np.int64, count=len(pages)),
            target_rows, rng)
        records: list[bytes] = []
        rids: list[RID] = []
        page_ids: list[int] = []
        for position in chosen.tolist():
            page = pages[position]
            page_ids.append(page.page_id)
            for slot, record in enumerate(page.records()):
                records.append(record)
                rids.append(RID(page.page_id, slot))
        return BlockSample(records=tuple(records), rids=tuple(rids),
                           page_ids=tuple(page_ids),
                           pages_available=len(pages))

    def sample_fraction(self, pages: Sequence[Page], fraction: float,
                        total_rows: int,
                        rng: np.random.Generator) -> BlockSample:
        """Draw pages until roughly ``fraction`` of all rows are sampled."""
        if not 0.0 < fraction <= 1.0:
            raise SamplingError(
                f"sampling fraction must be in (0, 1], got {fraction}")
        target = max(1, round(fraction * total_rows))
        return self.sample_records(pages, target, rng)
