"""Unit tests for repro.engine — shared-sample batch estimation."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.errors import EstimationError, SamplingError
from repro.sampling.block import BlockSampler
from repro.sampling.row_samplers import (BernoulliSampler,
                                         WithReplacementSampler)
from repro.storage.index import IndexKind
from repro.compression.null_suppression import NullSuppression
from repro.core.samplecf import SampleCF
from repro.experiments.runner import engine_sweep
from repro.workloads.generators import make_histogram
from repro.engine import (EstimationEngine, EstimationRequest,
                          ProcessPoolPlanExecutor, SampleCache,
                          SerialExecutor, make_executor, plan_batch,
                          plan_units, run_plan_unit)
from tests.conftest import draw_bytes

PAGE = 512

ALGORITHMS = ("null_suppression", "global_dictionary", "rle")


@pytest.fixture
def table(medium_table):
    return medium_table


@pytest.fixture
def histogram():
    return make_histogram(8000, 80, 20, seed=3)


class TestEstimationRequest:
    def test_needs_exactly_one_source(self, table, histogram):
        with pytest.raises(EstimationError):
            EstimationRequest(columns=("a",))
        with pytest.raises(EstimationError):
            EstimationRequest(table=table, histogram=histogram,
                              columns=("a",))

    def test_table_request_needs_columns(self, table):
        with pytest.raises(EstimationError):
            EstimationRequest(table=table)

    def test_histogram_rejects_block_sampler(self, histogram):
        with pytest.raises(SamplingError):
            EstimationRequest(histogram=histogram, sampler=BlockSampler())

    def test_histogram_rejects_physical_accounting(self, histogram):
        with pytest.raises(EstimationError):
            EstimationRequest(histogram=histogram, accounting="physical")

    def test_fraction_validated(self, histogram):
        with pytest.raises(SamplingError):
            EstimationRequest(histogram=histogram, fraction=0.0)

    def test_trials_validated(self, histogram):
        with pytest.raises(EstimationError):
            EstimationRequest(histogram=histogram, trials=0)

    def test_generator_seed_single_trial_only(self, histogram):
        with pytest.raises(EstimationError):
            EstimationRequest(histogram=histogram,
                              seed=np.random.default_rng(1), trials=2)

    def test_algorithm_name_resolved(self, histogram):
        request = EstimationRequest(histogram=histogram, algorithm="rle")
        assert request.algorithm.name == "rle"


class TestPlanning:
    def test_dedup_identical_requests(self, histogram):
        request = EstimationRequest(histogram=histogram, fraction=0.05,
                                    trials=2)
        twin = EstimationRequest(histogram=histogram, fraction=0.05,
                                 trials=2)
        plan = plan_batch([request, twin, request], master_seed=1)
        assert plan.num_requests == 3
        assert plan.num_unique == 1
        assert plan.nodes[0].positions == (0, 1, 2)

    def test_distinct_algorithms_share_sample_keys(self, table):
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.05)
                    for name in ALGORITHMS]
        plan = plan_batch(requests, master_seed=1)
        assert plan.num_unique == len(ALGORITHMS)
        assert plan.num_distinct_samples == 1
        assert plan.num_index_layouts == 1

    def test_explicit_seed_trial_zero_is_verbatim(self, table):
        request = EstimationRequest(table=table, columns=("a",),
                                    seed=42, trials=3)
        plan = plan_batch([request], master_seed=9)
        seeds = plan.nodes[0].trial_seeds
        assert seeds[0] == 42
        assert len(set(seeds)) == 3

    def test_master_seed_changes_derived_seeds(self, table):
        request = EstimationRequest(table=table, columns=("a",))
        one = plan_batch([request], master_seed=1).nodes[0].trial_seeds
        two = plan_batch([request], master_seed=2).nodes[0].trial_seeds
        assert one != two

    def test_describe_mentions_counts(self, histogram):
        plan = plan_batch([EstimationRequest(histogram=histogram)],
                          master_seed=0)
        assert "1 requests" in plan.describe()


class TestSampleCache:
    def test_lru_eviction(self):
        cache = SampleCache(capacity=2)
        sentinel = object()
        cache.get_or_create(("a",), lambda: sentinel)
        cache.get_or_create(("b",), lambda: sentinel)
        cache.get_or_create(("c",), lambda: sentinel)
        assert len(cache) == 2
        _, hit = cache.get_or_create(("a",), lambda: sentinel)
        assert not hit  # "a" was evicted and had to be rebuilt

    def test_hit_after_create(self):
        cache = SampleCache(capacity=4)
        value, hit = cache.get_or_create(("k",), lambda: "v")
        assert (value, hit) == ("v", False)
        value, hit = cache.get_or_create(("k",), lambda: "other")
        assert (value, hit) == ("v", True)

    def test_failed_factory_propagates_and_retries(self):
        cache = SampleCache(capacity=4)
        with pytest.raises(RuntimeError):
            cache.get_or_create(("k",), self._boom)
        value, hit = cache.get_or_create(("k",), lambda: "ok")
        assert (value, hit) == ("ok", False)

    @staticmethod
    def _boom():
        raise RuntimeError("factory failed")

    def test_capacity_validated(self):
        with pytest.raises(EstimationError):
            SampleCache(capacity=0)
        with pytest.raises(EstimationError):
            SampleCache(capacity=4, max_bytes=0)

    def test_failed_creator_wakes_waiters_one_retries(self):
        """Single-flight failure under real threads.

        The first creator fails while others wait on its event; the
        waiters must wake, exactly one must retry the factory (and
        succeed), and everyone else must then hit the cached value.
        """
        cache = SampleCache(capacity=4)
        creator_entered = threading.Event()
        waiters_ready = threading.Event()
        calls: list[str] = []
        calls_lock = threading.Lock()

        def factory():
            with calls_lock:
                calls.append(threading.current_thread().name)
                first = len(calls) == 1
            if first:
                creator_entered.set()
                # Hold the single-flight slot until the other threads
                # are definitely enqueued as waiters, then fail.
                assert waiters_ready.wait(timeout=5.0)
                raise RuntimeError("materialization failed")
            return "ok"

        outcomes: dict[str, object] = {}

        def worker(name):
            try:
                outcomes[name] = cache.get_or_create(("k",), factory)
            except RuntimeError as exc:
                outcomes[name] = exc

        threads = [threading.Thread(target=worker, args=(f"t{i}",),
                                    name=f"t{i}") for i in range(5)]
        threads[0].start()
        assert creator_entered.wait(timeout=5.0)
        for thread in threads[1:]:
            thread.start()
        # Give the late threads a moment to park on the pending event,
        # then let the creator fail.
        time.sleep(0.05)
        waiters_ready.set()
        for thread in threads:
            thread.join(timeout=10.0)
        errors = [o for o in outcomes.values()
                  if isinstance(o, RuntimeError)]
        successes = [o for o in outcomes.values() if isinstance(o, tuple)]
        assert len(errors) == 1  # only the failed creator saw the error
        assert len(successes) == 4
        assert all(value == "ok" for value, _hit in successes)
        # One retry materialized; the rest were cache hits.
        assert sum(1 for _v, hit in successes if not hit) == 1
        assert len(calls) == 2

    def test_persistent_failure_surfaces_to_every_thread(self):
        cache = SampleCache(capacity=4)
        barrier = threading.Barrier(4)
        outcomes: list[object] = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                cache.get_or_create(("k",), self._boom)
            except RuntimeError as exc:
                with lock:
                    outcomes.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(outcomes) == 4  # the error persists and surfaces
        assert len(cache) == 0


class _Sized:
    """A cache entry double carrying only a byte size."""

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


class TestSampleCacheBytes:
    """Byte-aware eviction: the LRU counts payload bytes, not entries."""

    def test_large_sample_evicts_several_small_ones(self):
        cache = SampleCache(capacity=100, max_bytes=1000)
        for position in range(5):
            cache.get_or_create((position,), lambda: _Sized(100))
        assert len(cache) == 5
        assert cache.nbytes == 500
        cache.get_or_create(("big",), lambda: _Sized(950))
        # 500 + 950 > 1000: every small entry must go, LRU-first.
        assert len(cache) == 1
        assert cache.nbytes == 950
        _, hit = cache.get_or_create(("big",), lambda: _Sized(950))
        assert hit

    def test_partial_eviction_stops_at_budget(self):
        cache = SampleCache(capacity=100, max_bytes=1000)
        for position in range(4):
            cache.get_or_create((position,), lambda: _Sized(250))
        cache.get_or_create(("extra",), lambda: _Sized(300))
        # 1300 -> evict two oldest (250 each) to reach 800 <= 1000.
        assert cache.nbytes == 800
        assert len(cache) == 3
        _, hit = cache.get_or_create((0,), lambda: _Sized(250))
        assert not hit  # the oldest was evicted

    def test_single_oversized_entry_is_kept(self):
        """Evicting the entry a unit is about to use would thrash."""
        cache = SampleCache(capacity=100, max_bytes=1000)
        cache.get_or_create(("huge",), lambda: _Sized(5000))
        assert len(cache) == 1
        assert cache.nbytes == 5000

    def test_clear_resets_bytes(self):
        cache = SampleCache(capacity=4, max_bytes=1000)
        cache.get_or_create(("k",), lambda: _Sized(400))
        cache.clear()
        assert cache.nbytes == 0

    def test_env_override(self, monkeypatch):
        from repro.engine import (SAMPLE_CACHE_BYTES_ENV,
                                  resolve_sample_cache_bytes)

        monkeypatch.setenv(SAMPLE_CACHE_BYTES_ENV, "4096")
        assert resolve_sample_cache_bytes() == 4096
        assert SampleCache(capacity=4).max_bytes == 4096
        monkeypatch.setenv(SAMPLE_CACHE_BYTES_ENV, "not-a-number")
        with pytest.raises(EstimationError):
            resolve_sample_cache_bytes()

    def test_materialized_samples_carry_bytes(self):
        """Real engine samples charge real bytes into the gauge."""
        engine = EstimationEngine(seed=3)
        request = EstimationRequest(
            histogram=make_histogram(2000, 40, 12, seed=5),
            algorithm="null_suppression", fraction=0.1)
        engine.execute([request])
        assert engine.cache.nbytes > 0

    def test_byte_gauges_in_stats(self):
        engine = EstimationEngine(seed=3, sample_cache_bytes=12345)
        data = engine.stats.as_dict()
        assert data["gauges"]["sample_cache_max_bytes"] == 12345
        assert data["gauges"]["sample_cache_bytes"] == 0


class TestEngineSharing:
    def test_sample_shared_across_algorithms(self, table):
        engine = EstimationEngine(seed=5)
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.05)
                    for name in ALGORITHMS]
        batch = engine.execute(requests)
        assert batch.stats["samples_materialized"] == 1
        assert batch.stats["sample_cache_hits"] == len(ALGORITHMS) - 1
        assert batch.stats["indexes_built"] == 1
        assert batch.stats["index_reuse_hits"] == len(ALGORITHMS) - 1
        assert batch.stats["estimates_computed"] == len(ALGORITHMS)

    def test_trials_share_samples_across_requests(self, table):
        engine = EstimationEngine(seed=5)
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.05,
                                      trials=4)
                    for name in ALGORITHMS]
        batch = engine.execute(requests)
        # One sample per trial, shared by all algorithms.
        assert batch.stats["samples_materialized"] == 4
        assert batch.stats["sample_cache_hits"] == \
            4 * (len(ALGORITHMS) - 1)

    def test_column_sets_share_one_table_sample(self, table):
        engine = EstimationEngine(seed=5)
        # medium_table has a single column; same columns but different
        # index kinds must share the sample yet build two indexes.
        requests = [
            EstimationRequest(table=table, columns=("a",), fraction=0.05,
                              kind=IndexKind.CLUSTERED),
            EstimationRequest(table=table, columns=("a",), fraction=0.05,
                              kind=IndexKind.NONCLUSTERED),
        ]
        batch = engine.execute(requests)
        assert batch.stats["samples_materialized"] == 1
        assert batch.stats["indexes_built"] == 2

    def test_cache_persists_across_batches(self, table):
        engine = EstimationEngine(seed=5)
        request = EstimationRequest(table=table, columns=("a",),
                                    fraction=0.05)
        first = engine.execute([request])
        second = engine.execute([request])
        assert first.stats["samples_materialized"] == 1
        assert second.stats["samples_materialized"] == 0
        assert second.stats["sample_cache_hits"] == 1
        assert first.results[0].estimates[0].estimate == \
            second.results[0].estimates[0].estimate

    def test_dedup_fans_results_back_out(self, histogram):
        engine = EstimationEngine(seed=5)
        request = EstimationRequest(histogram=histogram, fraction=0.05)
        batch = engine.execute([request, request, request])
        assert len(batch.results) == 3
        values = {result.estimates[0].estimate
                  for result in batch.results}
        assert len(values) == 1
        assert batch.stats["unique_requests"] == 1

    def test_bernoulli_sampler_supported(self, histogram):
        engine = EstimationEngine(seed=5)
        request = EstimationRequest(histogram=histogram,
                                    sampler=BernoulliSampler(0.05),
                                    fraction=0.05)
        result = engine.estimate(request)
        assert result.estimates[0].estimate > 0

    def test_empty_batch_rejected(self):
        engine = EstimationEngine(seed=5)
        with pytest.raises(EstimationError):
            engine.execute([])

    def test_non_request_rejected(self):
        engine = EstimationEngine(seed=5)
        with pytest.raises(EstimationError):
            engine.execute(["not a request"])


class TestFacade:
    def test_estimate_table_matches_engine(self, table):
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        facade = estimator.estimate_table(table, 0.05, ["a"], seed=42)
        engine = EstimationEngine(seed=0)
        request = EstimationRequest(table=table, columns=("a",),
                                    algorithm=NullSuppression(),
                                    fraction=0.05, seed=42,
                                    page_size=PAGE)
        direct = engine.estimate(request).estimates[0]
        assert facade.estimate == direct.estimate
        assert facade.details == direct.details

    def test_facade_with_private_engine(self, table):
        engine = EstimationEngine(seed=1)
        estimator = SampleCF(NullSuppression(), page_size=PAGE,
                             engine=engine)
        estimator.estimate_table(table, 0.05, ["a"], seed=1)
        assert engine.stats["samples_materialized"] == 1

    def test_unseeded_calls_stay_random(self, table):
        estimator = SampleCF(NullSuppression(), page_size=PAGE)
        estimates = {estimator.estimate_table(table, 0.02, ["a"]).estimate
                     for _ in range(5)}
        assert len(estimates) > 1

    def test_unseeded_calls_do_not_pollute_cache(self, table):
        engine = EstimationEngine(seed=1)
        estimator = SampleCF(NullSuppression(), page_size=PAGE,
                             engine=engine)
        for _ in range(3):
            estimator.estimate_table(table, 0.02, ["a"])
        assert len(engine.cache) == 0
        estimator.estimate_table(table, 0.02, ["a"], seed=5)
        assert len(engine.cache) == 1


class TestExecutors:
    def test_make_executor_names(self):
        assert make_executor("serial").name == "serial"
        assert make_executor("process", max_workers=2).name == "process"

    def test_make_executor_aliases(self):
        assert make_executor("processes").name == "process"

    def test_make_executor_unknown(self):
        with pytest.raises(EstimationError):
            make_executor("gpu")

    def test_process_pool_validates_workers(self):
        with pytest.raises(EstimationError):
            ProcessPoolPlanExecutor(max_workers=0)

    def test_serial_preserves_order(self):
        tasks = [lambda context, i=i: i for i in range(10)]
        assert SerialExecutor().run(tasks) == list(range(10))

    def test_process_pool_rejects_non_units(self):
        with pytest.raises(EstimationError):
            ProcessPoolPlanExecutor(2).run([lambda context: 1])

    def test_engine_accepts_executor_name(self, histogram):
        engine = EstimationEngine(seed=2, executor="process")
        assert engine.executor.name == "process"
        request = EstimationRequest(histogram=histogram, fraction=0.05)
        by_name = engine.execute([request], executor="serial")
        assert by_name.results[0].estimates[0].estimate > 0


class TestProcessExecution:
    def test_process_matches_serial(self, table, histogram):
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.05,
                                      trials=2, page_size=PAGE)
                    for name in ALGORITHMS]
        requests.append(EstimationRequest(histogram=histogram,
                                          fraction=0.05, trials=2))
        serial = EstimationEngine(seed=13).execute(requests)
        process = EstimationEngine(
            seed=13, executor=ProcessPoolPlanExecutor(2)).execute(requests)
        for ours, theirs in zip(serial.results, process.results):
            assert [e.estimate for e in ours.estimates] == \
                [e.estimate for e in theirs.estimates]
            assert [e.details for e in ours.estimates] == \
                [e.details for e in theirs.estimates]

    def test_process_merges_worker_stats(self, histogram):
        engine = EstimationEngine(seed=13,
                                  executor=ProcessPoolPlanExecutor(2))
        request = EstimationRequest(histogram=histogram, fraction=0.05,
                                    trials=3)
        batch = engine.execute([request])
        assert batch.stats["estimates_computed"] == 3
        assert batch.stats["samples_materialized"] >= 3 - \
            batch.stats["sample_cache_hits"]

    def test_opaque_seed_runs_in_parent(self, histogram):
        engine = EstimationEngine(seed=13,
                                  executor=ProcessPoolPlanExecutor(2))
        request = EstimationRequest(histogram=histogram, fraction=0.05,
                                    seed=np.random.default_rng(3))
        result = engine.estimate(request)
        assert result.estimates[0].estimate > 0


class TestPlanUnitPickling:
    def test_table_unit_roundtrips(self, table):
        engine = EstimationEngine(seed=3)
        plan = engine.plan([EstimationRequest(
            table=table, columns=("a",), fraction=0.05, page_size=PAGE)])
        units = plan_units(plan)
        restored = pickle.loads(pickle.dumps(units))
        assert restored[0].seed == units[0].seed
        assert run_plan_unit(restored[0]) == run_plan_unit(units[0])

    def test_histogram_unit_roundtrips(self, histogram):
        engine = EstimationEngine(seed=3)
        plan = engine.plan([EstimationRequest(
            histogram=histogram, fraction=0.05, trials=2)])
        units = plan_units(plan)
        restored = pickle.loads(pickle.dumps(units))
        assert len(restored) == 2
        for ours, theirs in zip(units, restored):
            assert run_plan_unit(theirs) == run_plan_unit(ours)

    def test_units_share_one_table_pickle(self, table):
        engine = EstimationEngine(seed=3)
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.05,
                                      page_size=PAGE)
                    for name in ALGORITHMS]
        units = plan_units(engine.plan(requests))
        restored = pickle.loads(pickle.dumps(units))
        tables = {id(unit.request.table) for unit in restored}
        assert len(tables) == 1  # pickle memo keeps the source shared

    def test_materialized_sample_roundtrips(self, table):
        from repro.engine import materialize_table_sample
        from repro.sampling.row_samplers import WithReplacementSampler

        sample = materialize_table_sample(
            table, WithReplacementSampler(), 0.05, 7)
        sample.index_for(table, ("a",), IndexKind.CLUSTERED, PAGE, 1.0)
        restored = pickle.loads(pickle.dumps(sample))
        assert draw_bytes(restored) == draw_bytes(sample)
        entry = restored.index_for(table, ("a",), IndexKind.CLUSTERED,
                                   PAGE, 1.0)
        assert entry.distinct == \
            sample.indexes[(("a",), "clustered", PAGE, 1.0)].distinct


class TestStatsConcurrency:
    def test_concurrent_execute_stats_isolated(self):
        """Two racing execute() calls each report their own movement."""
        engine = EstimationEngine(seed=7)
        small = make_histogram(4000, 40, 10, seed=21)
        large = make_histogram(6000, 60, 10, seed=22)
        small_batch = [EstimationRequest(histogram=small, fraction=0.05,
                                         trials=2)]
        large_batch = [EstimationRequest(histogram=large, fraction=0.05,
                                         trials=3),
                       EstimationRequest(histogram=large, fraction=0.02,
                                         trials=3)]
        outcomes: dict[str, list] = {"small": [], "large": []}

        def run(name, requests):
            for _ in range(10):
                outcomes[name].append(engine.execute(requests))

        threads = [threading.Thread(target=run, args=("small",
                                                      small_batch)),
                   threading.Thread(target=run, args=("large",
                                                      large_batch))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for batch in outcomes["small"]:
            assert batch.stats["requests"] == 1
            assert batch.stats["trials"] == 2
            assert batch.stats["estimates_computed"] == 2
        for batch in outcomes["large"]:
            assert batch.stats["requests"] == 2
            assert batch.stats["trials"] == 6
            assert batch.stats["estimates_computed"] == 6
        # The global counters saw every batch exactly once.
        assert engine.stats["requests"] == 10 * 1 + 10 * 2
        assert engine.stats["estimates_computed"] == 10 * 2 + 10 * 6

    def test_default_engine_single_instance_under_race(self):
        import repro.engine.engine as engine_module

        original = engine_module._DEFAULT_ENGINE
        engine_module._DEFAULT_ENGINE = None
        try:
            barrier = threading.Barrier(8)
            seen = []

            def grab():
                barrier.wait()
                seen.append(engine_module.default_engine())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(engine) for engine in seen}) == 1
        finally:
            engine_module._DEFAULT_ENGINE = original

    def test_stats_merge_rejects_unknown_counter(self):
        from repro.engine import EngineStats

        stats = EngineStats()
        with pytest.raises(EstimationError):
            stats.merge({"made_up": 3})


class TestRunnerIntegration:
    def test_engine_and_seed_together_rejected(self, histogram):
        from repro.errors import ExperimentError

        def point(fraction):
            return 0.5, EstimationRequest(histogram=histogram,
                                          fraction=fraction), {}

        with pytest.raises(ExperimentError):
            engine_sweep([0.05], point, trials=2,
                         engine=EstimationEngine(seed=1), seed=5)

    def test_engine_sweep_shares_samples(self, table):
        engine = EstimationEngine(seed=4)
        truth = 0.7  # placeholder truth; sharing is what's under test

        def point(name):
            request = EstimationRequest(table=table, columns=("a",),
                                        algorithm=name, fraction=0.05)
            return truth, request, {"algorithm": name}

        points = engine_sweep(ALGORITHMS, point, trials=3, engine=engine)
        assert len(points) == len(ALGORITHMS)
        assert all(p.summary.trials == 3 for p in points)
        # 3 trials' samples shared across the whole sweep.
        assert engine.stats["samples_materialized"] == 3
