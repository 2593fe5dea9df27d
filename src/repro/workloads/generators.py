"""Histogram and table builders used by tests, examples and benches."""

from __future__ import annotations

from typing import Sequence

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import ExperimentError
from repro.sampling.rng import SeedLike, make_rng, spawn_rngs
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.table import Table
from repro.storage.types import CharType
from repro.core.cf_models import ColumnHistogram, Order
from repro.workloads.distributions import make_counts
from repro.workloads.strings import distinct_strings


def make_histogram(n: int, d: int, k: int,
                   distribution: str = "zipf",
                   min_len: int | None = None,
                   max_len: int | None = None,
                   seed: SeedLike = None,
                   **dist_params) -> ColumnHistogram:
    """A CHAR(k) histogram with exact ``n``, ``d`` and length control.

    The workhorse generator: chooses ``d`` distinct strings with
    stripped lengths uniform in ``[min_len, max_len]`` and apportions
    ``n`` rows over them by the named distribution.
    """
    value_rng, _ = spawn_rngs(seed, 2)
    values = distinct_strings(d, k, min_len=min_len, max_len=max_len,
                              seed=value_rng)
    counts = make_counts(distribution, n, d, **dist_params)
    return ColumnHistogram(CharType(k), values, counts)


def histogram_to_table(histogram: ColumnHistogram, name: str = "t",
                       column: str = "a", order: Order = "shuffled",
                       page_size: int = DEFAULT_PAGE_SIZE,
                       seed: SeedLike = None) -> Table:
    """Materialise a single-column table holding the histogram's rows.

    ``shuffled`` (default) models a heap in arrival order; ``sorted``
    models a table already clustered on the column.
    """
    dtype = histogram.dtype
    if not isinstance(dtype, CharType):
        raise ExperimentError(
            "histogram_to_table currently materialises CHAR columns")
    schema = single_char_schema(dtype.k, column)
    return Table.from_columns(
        name, schema, [(histogram.sorted_by_value().values,
                        histogram.expand_codes(order, seed=seed))],
        page_size=page_size)


def make_table(n: int, d: int, k: int, distribution: str = "zipf",
               order: Order = "shuffled", page_size: int = DEFAULT_PAGE_SIZE,
               seed: SeedLike = None, **dist_params) -> Table:
    """One-call histogram + materialisation for storage-path tests."""
    histogram = make_histogram(n, d, k, distribution=distribution,
                               seed=seed, **dist_params)
    return histogram_to_table(histogram, order=order, page_size=page_size,
                              seed=seed)


def make_multicolumn_table(name: str, n: int,
                           column_specs: Sequence[tuple[str, int, int]],
                           page_size: int = DEFAULT_PAGE_SIZE,
                           seed: SeedLike = None) -> Table:
    """A table with several independent CHAR columns.

    ``column_specs`` is a sequence of ``(column_name, k, d)`` triples;
    each column gets its own Zipf-distributed value set. Used by the
    physical-design advisor experiments, which need multi-column
    candidate indexes.
    """
    if not column_specs:
        raise ExperimentError("need at least one column spec")
    rng = make_rng(seed)
    columns = [Column(cname, CharType(k)) for cname, k, _ in column_specs]
    schema = Schema(columns)
    per_column = []
    for cname, k, d in column_specs:
        histogram = make_histogram(
            n, d, k, distribution="zipf",
            seed=int(rng.integers(0, 2**63 - 1)))
        per_column.append((histogram.sorted_by_value().values,
                           histogram.expand_codes(
                               "shuffled",
                               seed=int(rng.integers(0, 2**63 - 1)))))
    return Table.from_columns(name, schema, per_column, page_size=page_size)
