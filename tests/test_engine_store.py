"""Integration tests: the engine's two-tier (memory + disk) caching."""

import pytest

from repro.errors import EstimationError
from repro.advisor.cost import Query
from repro.advisor.selection import advise_from_data
from repro.core.samplecf import true_cf_histogram
from repro.experiments.runner import engine_sweep
from repro.workloads.generators import make_histogram, make_table
from repro.engine import (EstimationEngine, EstimationRequest,
                          EngineStats, SampleCache)
from repro.engine.samples import (DEFAULT_SAMPLE_CACHE_SIZE,
                                  SAMPLE_CACHE_SIZE_ENV,
                                  resolve_sample_cache_size)
from repro.store import SampleStore


@pytest.fixture
def store(tmp_path) -> SampleStore:
    return SampleStore(tmp_path / "store")


def _table():
    return make_table(n=3000, d=50, k=20, page_size=1024, seed=7)


def _requests(algorithms=("null_suppression", "rle"), trials=2):
    table = _table()
    return [EstimationRequest(table=table, columns=("a",), algorithm=a,
                              fraction=0.02, trials=trials,
                              page_size=table.page_size)
            for a in algorithms]


def _values(batch):
    return [e.estimate for r in batch.results for e in r.estimates]


class TestWarmStart:
    def test_second_run_materializes_nothing(self, store):
        cold = EstimationEngine(seed=11, store=store).execute(_requests())
        warm = EstimationEngine(seed=11, store=store).execute(_requests())
        assert cold.stats["samples_materialized"] > 0
        assert cold.stats["sample_store_writes"] == \
            cold.stats["samples_materialized"]
        assert cold.stats["estimate_store_writes"] == \
            cold.stats["estimates_computed"]
        assert warm.stats["samples_materialized"] == 0
        assert warm.stats["estimates_computed"] == 0
        assert warm.stats["estimate_store_hits"] == warm.stats["trials"]

    def test_warm_estimates_bit_identical(self, store):
        cold = EstimationEngine(seed=11, store=store).execute(_requests())
        warm = EstimationEngine(seed=11, store=store).execute(_requests())
        bare = EstimationEngine(seed=11).execute(_requests())
        assert _values(cold) == _values(warm) == _values(bare)

    def test_new_algorithm_hits_sample_tier(self, store):
        EstimationEngine(seed=11, store=store).execute(_requests())
        batch = EstimationEngine(seed=11, store=store).execute(
            _requests(algorithms=("dictionary",)))
        assert batch.stats["samples_materialized"] == 0
        assert batch.stats["sample_store_hits"] > 0
        assert batch.stats["estimates_computed"] == \
            batch.stats["trials"]

    def test_histogram_requests_warm_start(self, store):
        def batch():
            histogram = make_histogram(5000, 40, 16, seed=9)
            return [EstimationRequest(histogram=histogram, fraction=0.05,
                                      trials=3)]

        cold = EstimationEngine(seed=4, store=store).execute(batch())
        warm = EstimationEngine(seed=4, store=store).execute(batch())
        assert warm.stats["samples_materialized"] == 0
        assert warm.stats["estimate_store_hits"] == 3
        assert _values(cold) == _values(warm)

    def test_table_mutation_invalidates(self, store):
        table = _table()
        request = EstimationRequest(table=table, columns=("a",),
                                    fraction=0.02,
                                    page_size=table.page_size)
        EstimationEngine(seed=11, store=store).execute([request])
        table.insert(("zzzz new row",))
        batch = EstimationEngine(seed=11, store=store).execute([request])
        assert batch.stats["samples_materialized"] == 1
        assert batch.stats["estimate_store_hits"] == 0

    def test_memory_tier_checked_before_disk(self, store):
        # One table *object* across batches: the identity-keyed memory
        # LRU serves it, and disk is never consulted.
        table = _table()

        def request(algorithm):
            return EstimationRequest(table=table, columns=("a",),
                                     algorithm=algorithm, fraction=0.02,
                                     trials=2,
                                     page_size=table.page_size)

        engine = EstimationEngine(seed=11, store=store)
        engine.execute([request("null_suppression")])
        batch = engine.execute([request("dictionary")])
        assert batch.stats["sample_cache_hits"] == batch.stats["trials"]
        assert batch.stats["sample_store_hits"] == 0

    def test_opaque_seeds_bypass_store(self, store):
        import numpy as np

        table = _table()
        request = EstimationRequest(table=table, columns=("a",),
                                    fraction=0.02,
                                    seed=np.random.default_rng(3),
                                    page_size=table.page_size)
        batch = EstimationEngine(seed=11, store=store).execute([request])
        assert batch.stats["samples_materialized"] == 1
        assert batch.stats["sample_store_writes"] == 0
        assert batch.stats["estimate_store_writes"] == 0

    def test_failing_store_degrades_to_miss(self, store, monkeypatch):
        """A broken disk tier (ENOSPC, permissions) never kills a batch."""
        from repro.errors import StoreError

        def boom(*args, **kwargs):
            raise StoreError("disk full")

        monkeypatch.setattr(store, "get_or_create_sample", boom)
        monkeypatch.setattr(store, "get_estimate", boom)
        monkeypatch.setattr(store, "put_estimate", boom)
        degraded = EstimationEngine(seed=11, store=store).execute(
            _requests(algorithms=("null_suppression",)))
        bare = EstimationEngine(seed=11).execute(
            _requests(algorithms=("null_suppression",)))
        assert _values(degraded) == _values(bare)
        assert degraded.stats["samples_materialized"] == \
            degraded.stats["trials"]
        assert degraded.stats["sample_store_writes"] == 0
        assert degraded.stats["estimate_store_writes"] == 0

    def test_store_accepts_directory_path(self, tmp_path):
        engine = EstimationEngine(seed=1, store=tmp_path / "by-path")
        assert isinstance(engine.store, SampleStore)
        engine.execute(_requests(algorithms=("null_suppression",),
                                 trials=1))
        assert len(engine.store) > 0


class TestProcessPoolSharing:
    def test_workers_share_the_store(self, store):
        cold = EstimationEngine(seed=11, store=store,
                                executor="process").execute(_requests())
        warm = EstimationEngine(seed=11, store=store,
                                executor="process").execute(_requests())
        assert warm.stats["samples_materialized"] == 0
        assert _values(cold) == _values(warm)

    def test_process_warm_serves_serial_and_back(self, store):
        serial = EstimationEngine(seed=11, store=store).execute(
            _requests())
        pooled = EstimationEngine(seed=11, store=store,
                                  executor="process").execute(_requests())
        assert pooled.stats["samples_materialized"] == 0
        assert _values(serial) == _values(pooled)


class TestCacheConfiguration:
    def test_engine_kwarg_sets_capacity(self):
        engine = EstimationEngine(seed=1, sample_cache_size=3)
        assert engine.cache.capacity == 3

    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_CACHE_SIZE_ENV, "17")
        assert EstimationEngine(seed=1).cache.capacity == 17
        # explicit kwarg still wins
        assert EstimationEngine(seed=1,
                                sample_cache_size=5).cache.capacity == 5

    def test_env_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(SAMPLE_CACHE_SIZE_ENV, raising=False)
        assert resolve_sample_cache_size() == DEFAULT_SAMPLE_CACHE_SIZE
        assert SampleCache().capacity == DEFAULT_SAMPLE_CACHE_SIZE

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_CACHE_SIZE_ENV, "lots")
        with pytest.raises(EstimationError):
            EstimationEngine(seed=1)

    def test_as_dict_exposes_cache_gauges(self):
        engine = EstimationEngine(seed=1, sample_cache_size=9)
        engine.execute(_requests(algorithms=("null_suppression",),
                                 trials=1))
        gauges = engine.stats.as_dict()["gauges"]
        assert gauges["sample_cache_capacity"] == 9
        assert gauges["sample_cache_size"] == 1
        # a cache-less stats bag reports no cache gauges
        assert "sample_cache_size" not in EngineStats().as_dict()["gauges"]


class TestStackIntegration:
    def _workload(self):
        tables = {"t": _table()}
        queries = [Query("q1", "t", ("a",), weight=1.0)]
        return tables, queries

    def test_advisor_warm_starts(self, store):
        tables, queries = self._workload()
        bound = 10 * tables["t"].num_rows * 30
        first = advise_from_data(
            tables, queries, bound,
            engine=EstimationEngine(seed=5, store=store))
        cold_counters = dict(store.counters)
        tables2, queries2 = self._workload()
        second = advise_from_data(
            tables2, queries2, bound,
            engine=EstimationEngine(seed=5, store=store))
        assert [c.size_bytes for c in first.chosen] == \
            [c.size_bytes for c in second.chosen]
        assert store.counters["estimate_hits"] > \
            cold_counters["estimate_hits"]

    def test_engine_sweep_warm_starts(self, store):
        def run():
            histogram = make_histogram(5000, 40, 16, seed=9)
            truth = true_cf_histogram(histogram, "null_suppression")

            def make(fraction):
                return truth, EstimationRequest(
                    histogram=histogram, fraction=fraction), {}

            return engine_sweep(
                [0.02, 0.05], make, trials=3,
                engine=EstimationEngine(seed=2, store=store))

        cold = run()
        warm = run()
        assert [p.summary.mean for p in cold] == \
            [p.summary.mean for p in warm]
        assert store.counters["estimate_hits"] >= 6
