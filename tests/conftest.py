"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cf_models import ColumnHistogram
from repro.storage.schema import single_char_schema
from repro.storage.table import Table
from repro.storage.types import CharType
from repro.compression.delta import DeltaEncoding
from repro.compression.dictionary import DictionaryCompression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.compression.page_compression import PageCompression
from repro.compression.prefix import PrefixCompression
from repro.compression.rle import RunLengthEncoding

#: Small page size used to force multi-page layouts cheaply in tests.
SMALL_PAGE = 256


def all_algorithms() -> list:
    """Fresh instances of every compression algorithm."""
    return [
        NullSuppression(),
        NullSuppression(mode="runs"),
        DictionaryCompression(),
        DictionaryCompression(pointer_bytes=None),
        DictionaryCompression(entry_storage="null_suppressed"),
        GlobalDictionaryCompression(),
        GlobalDictionaryCompression(pointer_bytes=None),
        RunLengthEncoding(),
        PrefixCompression(),
        PageCompression(),
        DeltaEncoding(),
    ]


def draw_bytes(sample) -> tuple[bytes, bytes, bytes]:
    """A table sample's record buffer, offsets and RIDs, as bytes."""
    return (sample.buffer.tobytes(), sample.offsets.tobytes(),
            sample.rids.tobytes())


def modelable_algorithms() -> list:
    """Algorithms with a closed-form histogram model."""
    return [
        NullSuppression(),
        NullSuppression(mode="runs"),
        DictionaryCompression(),
        GlobalDictionaryCompression(),
        RunLengthEncoding(),
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def char20() -> CharType:
    return CharType(20)


@pytest.fixture
def small_histogram(char20: CharType) -> ColumnHistogram:
    """50 distinct values, mixed lengths, ~5k rows."""
    values = [f"v{i:02d}" + "x" * (i % 12) for i in range(50)]
    counts = np.arange(1, 51) * 4
    return ColumnHistogram(char20, values, counts)


@pytest.fixture
def tiny_table() -> Table:
    """A 200-row single-column table over a tiny value domain."""
    generator = np.random.default_rng(7)
    domain = ["alpha", "beta", "gamma", "delta", "epsilon longer value"]
    rows = [(domain[int(generator.integers(0, len(domain)))],)
            for _ in range(200)]
    return Table.from_rows("tiny", single_char_schema(20), rows,
                           page_size=SMALL_PAGE)


@pytest.fixture
def medium_table() -> Table:
    """A 5000-row table with 100 distinct values, shuffled layout."""
    from repro.workloads.generators import make_table

    return make_table(n=5000, d=100, k=20, distribution="zipf",
                      order="shuffled", page_size=1024, seed=99)
