"""Integration: the closed-form models equal the storage engine, byte
for byte, under payload accounting.

This is the load-bearing property of the whole reproduction: theorems
are verified against the histogram models, and these tests transfer
those verifications to the real engine.
"""

import pytest

from repro.storage.index import Index, IndexKind
from repro.compression.dictionary import DictionaryCompression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.null_suppression import NullSuppression
from repro.compression.rle import RunLengthEncoding
from repro.core.cf_models import ColumnHistogram
from repro.core.samplecf import SampleCF, true_cf_table
from repro.workloads.generators import histogram_to_table, make_histogram
from tests.btree_oracle import leaf_pages

PAGE = 1024


def build_cases() -> list:
    """Histograms covering both d regimes, skew, and length variety."""
    return [
        ("small_d_uniform", make_histogram(4000, 8, 20,
                                           distribution="uniform", seed=1)),
        ("small_d_zipf", make_histogram(4000, 40, 20, seed=2)),
        ("large_d", make_histogram(3000, 2400, 20,
                                   distribution="singleton_heavy", seed=3)),
        ("wide_column", make_histogram(2000, 100, 64, min_len=3,
                                       max_len=60, seed=4)),
    ]


ALGORITHMS = [
    NullSuppression(),
    NullSuppression(mode="runs"),
    DictionaryCompression(),
    GlobalDictionaryCompression(),
    RunLengthEncoding(),
]


@pytest.mark.parametrize("case_name,histogram", build_cases(),
                         ids=[name for name, _ in build_cases()])
@pytest.mark.parametrize("algorithm", ALGORITHMS,
                         ids=[a.name for a in ALGORITHMS])
def test_exact_payload_equality(case_name, histogram, algorithm):
    """Storage-path CF == closed-form CF, exactly."""
    table = histogram_to_table(histogram, page_size=PAGE, seed=7)
    storage_cf = true_cf_table(table, ["a"], algorithm, page_size=PAGE)
    model_cf = algorithm.cf_from_histogram(histogram, page_size=PAGE)
    assert storage_cf == pytest.approx(model_cf, abs=1e-12)


@pytest.mark.parametrize("algorithm", ALGORITHMS,
                         ids=[a.name for a in ALGORITHMS])
def test_samplecf_paths_agree_at_full_fraction(algorithm):
    """f=1 without replacement: both estimator paths return the truth."""
    from repro.sampling.row_samplers import WithoutReplacementSampler

    histogram = make_histogram(1500, 60, 20, seed=11)
    table = histogram_to_table(histogram, page_size=PAGE, seed=12)
    estimator = SampleCF(algorithm,
                         sampler=WithoutReplacementSampler(),
                         page_size=PAGE)
    from_table = estimator.estimate_table(table, 1.0, ["a"], seed=1)
    from_hist = estimator.estimate_histogram(histogram, 1.0, seed=1)
    assert from_table.estimate == pytest.approx(from_hist.estimate,
                                                abs=1e-12)


def test_samplecf_storage_and_histogram_distributions_match():
    """At f<1 the two paths are random but share mean and spread."""
    import numpy as np

    histogram = make_histogram(3000, 50, 20, seed=21)
    table = histogram_to_table(histogram, page_size=PAGE, seed=22)
    estimator = SampleCF(NullSuppression(), page_size=PAGE)
    storage = np.array([
        estimator.estimate_table(table, 0.05, ["a"], seed=s).estimate
        for s in range(60)])
    hist = np.array([
        estimator.estimate_histogram(histogram, 0.05, seed=1000 + s
                                     ).estimate
        for s in range(60)])
    assert storage.mean() == pytest.approx(hist.mean(), abs=0.01)
    assert storage.std() == pytest.approx(hist.std(), rel=0.8, abs=0.01)


def test_paged_dictionary_model_tracks_leaf_boundaries():
    """Pg(i) in the model equals distinct-per-leaf in the real index."""
    histogram = make_histogram(2000, 12, 20, seed=31)
    table = histogram_to_table(histogram, page_size=PAGE, seed=32)
    index = Index.over(table, ["a"], kind=IndexKind.CLUSTERED,
                       page_size=PAGE)
    total_entries = 0
    for page in leaf_pages(index):
        distinct_on_page = len({bytes(record)
                                for record in page.records()})
        total_entries += distinct_on_page
    from repro.core.cf_models import layout_rows_per_page, pages_spanned

    rows_per_page = layout_rows_per_page(histogram, page_size=PAGE)
    spans = pages_spanned(histogram, rows_per_page)
    assert total_entries == int(spans.sum())
