"""Unit tests for the block draw.

A block draw is :meth:`BlockSampler.choose_pages` over a heap's
per-page record counts, then one gather of every record on the chosen
pages (``materialize_table_sample``).
"""

import numpy as np
import pytest

from repro.engine import materialize_table_sample
from repro.errors import SamplingError
from repro.sampling.block import BlockSampler
from repro.sampling.rng import make_rng
from repro.storage.heap import HeapFile
from repro.storage.page import Page
from repro.storage.record import decode_record
from repro.storage.schema import single_char_schema
from repro.storage.table import Table

SCHEMA = single_char_schema(10)


def make_table(num_pages: int, rows_per_page: int) -> Table:
    """Page ``p`` holds ``rows_per_page`` records; slot ``s`` reads
    ``p{p}r{s}``."""
    images = []
    for page_id in range(num_pages):
        page = Page(256, page_id=page_id)
        for slot in range(rows_per_page):
            page.insert(f"p{page_id}r{slot}".encode().ljust(10))
        images.append(np.frombuffer(page.to_bytes(), dtype=np.uint8))
    return Table.from_heap("t", SCHEMA, HeapFile.from_images(
        np.stack(images)))


def draw(table: Table, fraction: float, seed: int):
    """The sample and its records, as byte strings."""
    sample = materialize_table_sample(table, BlockSampler(), fraction,
                                      seed)
    data, cuts = sample.buffer.tobytes(), sample.offsets.tolist()
    return sample, [data[a:b] for a, b in zip(cuts, cuts[1:])]


def choose(counts, target_rows: int, seed: int) -> list[int]:
    return BlockSampler().choose_pages(
        np.asarray(counts, dtype=np.int64), target_rows,
        make_rng(seed)).tolist()


class TestBlockSampler:
    def test_whole_pages_kept(self):
        sample, records = draw(make_table(10, 8), 0.25, 0)
        assert len(records) % 8 == 0
        assert len(records) >= 20
        assert sample.extra["pages_sampled"] == len(records) // 8

    def test_rids_match_records(self):
        sample, records = draw(make_table(5, 4), 0.3, 1)
        for rid, record in zip(sample.rids.tolist(), records):
            value = decode_record(SCHEMA, record)[0].rstrip()
            assert value == f"p{rid >> 32}r{rid & 0xFFFFFFFF}"

    def test_pages_distinct(self):
        pages = choose([5] * 10, 30, 2)
        assert len(set(pages)) == len(pages)

    def test_requesting_everything_returns_everything(self):
        sample, records = draw(make_table(4, 3), 1.0, 0)
        assert len(records) == 12
        assert sample.extra == {"pages_sampled": 4, "pages_available": 4}

    def test_requesting_more_than_available_returns_all(self):
        assert sorted(choose([2, 2, 2], 100, 0)) == [0, 1, 2]

    def test_no_pages_rejected(self):
        with pytest.raises(SamplingError):
            choose([], 5, 0)

    def test_bad_target_rejected(self):
        with pytest.raises(SamplingError):
            choose([2, 2], 0, 0)

    def test_sample_fraction(self):
        _, records = draw(make_table(10, 10), 0.25, 3)
        assert len(records) >= 25

    def test_sample_fraction_validation(self):
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(SamplingError):
                draw(make_table(2, 2), fraction, 0)

    def test_different_seeds_pick_different_pages(self):
        assert choose([2] * 20, 4, 0) != choose([2] * 20, 4, 1)
