"""Experiment `micro-storage` — storage-engine microbenchmarks and
fidelity checks.

Times the primitives everything else is built on (page fill, heap
insert, index build, per-algorithm compression throughput) and
re-asserts the load-bearing fidelity property: payload accounting
equals the closed-form models exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.heap import HeapFile
from repro.storage.index import Index
from repro.storage.page import Page
from repro.storage.record import encode_record, record_offsets
from repro.storage.schema import single_char_schema
from repro.compression.registry import get_algorithm, list_algorithms
from repro.core.samplecf import true_cf_table
from repro.experiments.report import format_table
from repro.workloads.generators import histogram_to_table, make_histogram

from _common import write_report

K = 20
SCHEMA = single_char_schema(K)
PAGE = 8192


@pytest.fixture(scope="module")
def records() -> list[bytes]:
    histogram = make_histogram(50_000, 1_000, K, seed=1100)
    return [encode_record(SCHEMA, (value,))
            for value in histogram.expand("sorted")]


def test_page_fill(benchmark, records):
    def fill() -> int:
        page = Page(PAGE)
        count = 0
        for record in records:
            if not page.fits(record):
                break
            page.insert(record)
            count += 1
        return count

    filled = benchmark(fill)
    assert filled == (PAGE - 16) // (K + 4)


def test_heap_bulk_insert(benchmark, records):
    def load() -> HeapFile:
        heap = HeapFile(page_size=PAGE)
        heap.insert_many(records[:10_000])
        return heap

    heap = benchmark(load)
    assert heap.num_records == 10_000


def test_index_build(benchmark, records):
    batch = records[:20_000][::-1]
    buffer = np.frombuffer(b"".join(batch), dtype=np.uint8)
    offsets = record_offsets(np.full(len(batch), K, dtype=np.int64))
    rids = np.arange(len(batch), dtype=np.int64)

    def build() -> Index:
        return Index("bench", SCHEMA, ["a"], page_size=PAGE).build(
            buffer, offsets, rids)

    index = benchmark(build)
    assert index.num_entries == 20_000
    assert index.leaf_records() == sorted(batch)


@pytest.mark.parametrize("name", sorted(list_algorithms()))
def test_compression_throughput(benchmark, records, name):
    algorithm = get_algorithm(name)
    page_records = records[:300]  # one page's worth at 8 KiB
    block = benchmark(algorithm.compress, page_records, SCHEMA)
    assert block.row_count == 300
    assert algorithm.decompress(block, SCHEMA) == page_records


def test_fidelity_payload_equals_models(benchmark):
    """The engine's payload CF equals every closed form, byte-exactly."""
    histogram = make_histogram(20_000, 400, K, seed=1111)
    table = histogram_to_table(histogram, page_size=PAGE, seed=1112)

    def check() -> list[list[str]]:
        rows = []
        for name in ("null_suppression", "dictionary",
                     "global_dictionary", "rle"):
            algorithm = get_algorithm(name)
            engine = true_cf_table(table, ["a"], algorithm,
                                   page_size=PAGE)
            model = algorithm.cf_from_histogram(histogram,
                                                page_size=PAGE)
            assert engine == pytest.approx(model, abs=1e-12), name
            rows.append([name, f"{engine:.6f}", f"{model:.6f}"])
        return rows

    rows = benchmark.pedantic(check, rounds=1, iterations=1)
    write_report("micro_storage_fidelity", format_table(
        ["algorithm", "engine CF (payload)", "closed-form CF"], rows,
        title="Engine vs model fidelity (20k rows, byte-exact)"))
