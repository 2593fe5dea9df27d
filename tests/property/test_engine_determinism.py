"""Property: engine batches are deterministic under re-execution.

The engine's contract: with an integer master seed, the same batch
*content* yields byte-identical results regardless of

* executor choice (serial vs. process pool vs. remote worker sockets —
  process and remote additionally round-trip every unit through
  pickle),
* remote faults (a worker dying mid-shard, every worker unreachable),
* request submission order,
* cache state (cold vs. warm, shared vs. private engines),
* object identity (sources rebuilt from the same generator seeds).

This is what lets experiments mix executors freely and lets any
reported number be replayed from its spec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.generators import make_histogram, make_table
from repro.engine import (EstimationEngine, EstimationRequest,
                          ProcessPoolPlanExecutor, RemotePlanExecutor,
                          SerialExecutor)
from repro.engine.remote import start_worker_thread

MASTER_SEED = 20100301

ALGORITHMS = ("null_suppression", "global_dictionary", "rle", "page")
#: Algorithms with a closed-form histogram model (page has none).
MODELABLE = ("null_suppression", "global_dictionary", "rle")
FRACTIONS = (0.02, 0.05)


def build_requests() -> list[EstimationRequest]:
    """A mixed batch over freshly built sources (new objects each call)."""
    table = make_table(n=3000, d=60, k=20, distribution="zipf",
                      order="shuffled", page_size=1024, seed=77)
    histogram = make_histogram(9000, 90, 20, seed=78)
    requests = []
    for algorithm in ALGORITHMS:
        for fraction in FRACTIONS:
            requests.append(EstimationRequest(
                table=table, columns=("a",), algorithm=algorithm,
                fraction=fraction, trials=3, page_size=512))
            if algorithm in MODELABLE:
                requests.append(EstimationRequest(
                    histogram=histogram, algorithm=algorithm,
                    fraction=fraction, trials=3))
    # An explicit-seed request and a duplicate of an earlier one.
    requests.append(EstimationRequest(
        table=table, columns=("a",), algorithm="null_suppression",
        fraction=0.05, trials=2, seed=1234, page_size=512))
    requests.append(EstimationRequest(
        histogram=histogram, algorithm="rle", fraction=0.02, trials=3))
    return requests


def fingerprint(batch) -> list[tuple]:
    """Everything observable about a batch result, bit-for-bit."""
    out = []
    for result in batch.results:
        for estimate in result.estimates:
            out.append((
                result.request.algorithm.name,
                result.request.fraction,
                estimate.estimate,
                estimate.sample_rows,
                estimate.sample_distinct,
                estimate.uncompressed_sample_bytes,
                estimate.compressed_sample_bytes,
                tuple(sorted(estimate.details.items())),
            ))
    return out


def run(executor, order_seed: int | None):
    engine = EstimationEngine(seed=MASTER_SEED, executor=executor)
    requests = build_requests()
    order = np.arange(len(requests))
    if order_seed is not None:
        np.random.default_rng(order_seed).shuffle(order)
    batch = engine.execute([requests[i] for i in order])
    # Undo the permutation so fingerprints align by original position.
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    results = [batch.results[i] for i in inverse]
    return [entry
            for position in range(len(results))
            for entry in fingerprint(
                type(batch)(results=(results[position],), stats={}))]


@pytest.fixture(scope="module")
def reference():
    return run(SerialExecutor(), order_seed=None)


class TestEngineDeterminism:
    def test_serial_rerun_identical(self, reference):
        assert run(SerialExecutor(), order_seed=None) == reference

    @pytest.mark.parametrize("order_seed", [1, 2, 3])
    def test_submission_order_irrelevant(self, reference, order_seed):
        assert run(SerialExecutor(), order_seed=order_seed) == reference

    def test_process_pool_matches_serial(self, reference):
        """Units survive pickling to workers and replay bit-identically."""
        assert run(ProcessPoolPlanExecutor(2),
                   order_seed=None) == reference

    def test_shuffled_process_matches_serial(self, reference):
        assert run(ProcessPoolPlanExecutor(2), order_seed=5) == reference

    def test_rebuilt_sources_replay(self, reference):
        """New source objects with identical content replay exactly."""
        assert run(SerialExecutor(), order_seed=None) == reference

    def test_warm_cache_replay(self):
        engine = EstimationEngine(seed=MASTER_SEED)
        requests = build_requests()
        cold = engine.execute(requests)
        warm = engine.execute(requests)
        assert fingerprint(cold) == fingerprint(warm)
        assert warm.stats["samples_materialized"] == 0

    def test_different_master_seeds_differ(self):
        one = EstimationEngine(seed=1).execute(build_requests())
        two = EstimationEngine(seed=2).execute(build_requests())
        assert fingerprint(one) != fingerprint(two)


#: Reuse counters a batch must report from its plan alone, never from
#: how its units happened to land on workers.
REUSE_COUNTERS = ("samples_materialized", "sample_cache_hits",
                  "indexes_built", "index_reuse_hits")
STORE_COUNTERS = ("sample_store_hits", "estimate_store_hits")


def counters(batch, names) -> dict[str, int]:
    return {name: batch.stats[name] for name in names}


class TestPlacementDeterminism:
    """Units sharing a sample run on one worker, whatever the pool size.

    So each sample is drawn and indexed once per batch, and a pooled
    batch's reuse counters equal a cold serial engine's exactly.
    """

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_reuse_counters_match_cold_serial(self, workers):
        serial = EstimationEngine(seed=MASTER_SEED).execute(
            build_requests())
        pooled = EstimationEngine(
            seed=MASTER_SEED, executor=ProcessPoolPlanExecutor(workers),
        ).execute(build_requests())
        assert counters(pooled, REUSE_COUNTERS) == \
            counters(serial, REUSE_COUNTERS)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_store_counters_match_serial(self, workers, tmp_path):
        """Over a half-warm store: estimate hits for the warmed half,
        one sample-tier read per held-out sample, on any pool size."""
        def half_warm(name):
            root = str(tmp_path / name)
            EstimationEngine(seed=MASTER_SEED, store=root).execute(
                build_requests()[::2])
            return root

        serial = EstimationEngine(
            seed=MASTER_SEED, store=half_warm("serial"),
        ).execute(build_requests())
        pooled = EstimationEngine(
            seed=MASTER_SEED, store=half_warm("pool"),
            executor=ProcessPoolPlanExecutor(workers),
        ).execute(build_requests())
        names = STORE_COUNTERS + REUSE_COUNTERS
        assert all(counters(serial, STORE_COUNTERS).values())
        assert counters(pooled, names) == counters(serial, names)


class TestRemoteDeterminism:
    """The remote executor is an executor, not a different estimator."""

    def _workers(self, count, **kwargs):
        started = [start_worker_thread(**kwargs) for _ in range(count)]
        addresses = [address for address, _ in started]
        shutdowns = [shutdown for _, shutdown in started]
        return addresses, shutdowns

    def test_remote_matches_serial(self, reference):
        """Three socket workers, shuffled submission: bit-identical."""
        addresses, shutdowns = self._workers(3)
        try:
            executor = RemotePlanExecutor(workers=addresses,
                                          chunk_units=2)
            assert run(executor, order_seed=None) == reference
            assert run(executor, order_seed=11) == reference
        finally:
            for shutdown in shutdowns:
                shutdown()

    def test_remote_round_robin_matches_serial(self, reference):
        addresses, shutdowns = self._workers(3)
        try:
            executor = RemotePlanExecutor(workers=addresses,
                                          scheduler="round_robin",
                                          chunk_units=3)
            assert run(executor, order_seed=None) == reference
        finally:
            for shutdown in shutdowns:
                shutdown()

    def test_worker_killed_mid_run_identical(self, reference):
        """One worker dies mid-shard; survivors absorb its units."""
        dying, kill_dying = start_worker_thread(fail_after_units=5)
        addresses, shutdowns = self._workers(2)
        executor = RemotePlanExecutor(workers=[dying] + addresses,
                                      chunk_units=2)
        engine = EstimationEngine(seed=MASTER_SEED, executor=executor)
        try:
            batch = engine.execute(build_requests())
            serial = EstimationEngine(
                seed=MASTER_SEED, executor=SerialExecutor(),
            ).execute(build_requests())
            assert fingerprint(batch) == fingerprint(serial)
            assert batch.stats["remote_worker_failures"] >= 1
            assert batch.stats["remote_retried_units"] >= 1
            # The survivors, not the local fallback, absorbed the loss.
            assert batch.stats["remote_fallback_units"] == 0
        finally:
            kill_dying()
            for shutdown in shutdowns:
                shutdown()

    def test_all_workers_down_falls_back_identical(self, reference):
        """Unreachable workers degrade to the local pool, same numbers."""
        address, shutdown = start_worker_thread()
        shutdown()  # nothing listens here any more
        executor = RemotePlanExecutor(workers=[address],
                                      connect_timeout=0.5,
                                      max_local_workers=2)
        engine = EstimationEngine(seed=MASTER_SEED, executor=executor)
        batch = engine.execute(build_requests())
        serial = EstimationEngine(
            seed=MASTER_SEED, executor=SerialExecutor(),
        ).execute(build_requests())
        assert fingerprint(batch) == fingerprint(serial)
        assert batch.stats["remote_fallback_units"] > 0
        assert batch.stats["remote_fallback_units"] == \
            batch.stats["trials"]


class TestTracedDeterminism:
    """Tracing observes the run; it must never perturb the numbers.

    The ``--trace`` contract: estimates are bit-identical with tracing
    on or off, on every executor — the tracer only ever *reads* the
    execution (span timestamps live in ``repro.obs``, outside the unit
    path the entropy linter audits).
    """

    def _traced(self, executor, tmp_path):
        from repro.obs import Tracer, read_trace

        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(path)
        engine = EstimationEngine(seed=MASTER_SEED, executor=executor,
                                  tracer=tracer)
        batch = engine.execute(build_requests())
        tracer.close()
        return batch, read_trace(path)

    def test_traced_serial_identical(self, reference, tmp_path):
        batch, records = self._traced(SerialExecutor(), tmp_path)
        assert fingerprint(batch) == reference
        assert any(r.get("name") == "unit.run" for r in records)

    def test_traced_process_identical(self, reference, tmp_path):
        batch, records = self._traced(ProcessPoolPlanExecutor(2),
                                      tmp_path)
        assert fingerprint(batch) == reference
        # Worker-side spans came home across the pickle boundary.
        assert any(r.get("adopted") for r in records)

    def test_traced_remote_identical(self, reference, tmp_path):
        started = [start_worker_thread() for _ in range(2)]
        try:
            executor = RemotePlanExecutor(
                workers=[address for address, _ in started],
                chunk_units=2)
            batch, records = self._traced(executor, tmp_path)
            assert fingerprint(batch) == reference
            assert any(r.get("name") == "chunk.run" for r in records)
        finally:
            for _, shutdown in started:
                shutdown()
