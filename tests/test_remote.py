"""Unit tests for the remote plan executor's building blocks.

The determinism property suite proves the end-to-end contract (remote
results == serial results, faults included); this file pins the pieces
in isolation: the length-prefixed frame protocol, the per-unit cost
model, LPT vs round-robin shard quality, worker-address parsing, the
executor registry / environment wiring, and the dispatcher's
placement, chunking, shipping and error paths on the process pool.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.compression.null_suppression import NullSuppression
from repro.engine import remote
from repro.engine.engine import EstimationEngine
from repro.engine.executors import make_executor
from repro.engine.remote import (ALGORITHM_WEIGHTS,
                                 ProcessPoolPlanExecutor,
                                 RemotePlanExecutor, UnitCostModel,
                                 lpt_assign, makespan,
                                 parse_worker_addresses,
                                 round_robin_assign, start_worker_thread)
from repro.engine.requests import EstimationRequest
from repro.engine.samples import EngineStats, SampleCache
from repro.engine.units import UnitContext, plan_units
from repro.errors import EstimationError
from repro.storage.index import IndexKind
from repro.workloads.generators import make_histogram, make_table


def planned_units(trials=3, fraction=0.05, algorithm="null_suppression"):
    table = make_table(n=800, d=30, k=12, seed=5, page_size=1024)
    request = EstimationRequest(table=table, columns=("a",),
                                algorithm=algorithm, fraction=fraction,
                                trials=trials, page_size=512)
    engine = EstimationEngine(seed=99)
    return list(plan_units(engine.plan([request])))


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------
class TestFrames:
    def roundtrip(self, message):
        # The sender runs on its own thread: a frame larger than the
        # socket buffer only drains while the receiver reads it.
        left, right = socket.socketpair()
        sender = threading.Thread(target=remote.send_frame,
                                  args=(left, message))
        try:
            sender.start()
            return remote.recv_frame(right)
        finally:
            sender.join(timeout=10)
            left.close()
            right.close()

    def test_roundtrip_objects(self):
        # The last message is a multi-MB install-sized payload, many
        # times the socketpair buffer, so it arrives over several
        # partial reads into the growing frame buffer.
        big = np.random.default_rng(1).bytes(6 << 20)
        for message in (("ping",), ("run", [0, 1, 2]),
                        {"nested": (b"\x00" * 100, None)},
                        ("install", big, None)):
            assert self.roundtrip(message) == message

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert remote.recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(remote._LENGTH.pack(1000) + b"short")
            left.close()
            with pytest.raises(ConnectionError):
                remote.recv_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(remote._LENGTH.pack(remote.MAX_FRAME_BYTES + 1))
            with pytest.raises(EstimationError):
                remote.recv_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Worker loop over a socketpair (no listener needed)
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def serve_pair(self, state=None):
        client, server = socket.socketpair()
        state = state or remote.WorkerState()
        thread = threading.Thread(
            target=remote.handle_connection, args=(server, state),
            daemon=True)
        thread.start()
        return client, thread

    def ask(self, sock, message):
        remote.send_frame(sock, message)
        return remote.recv_frame(sock)

    def test_ping_install_run_shutdown(self):
        import pickle

        units = planned_units(trials=2)
        client, thread = self.serve_pair()
        try:
            kind, info = self.ask(client, ("ping",))
            assert kind == "pong" and info["pid"] == os.getpid()
            blob = pickle.dumps(list(enumerate(units)),
                                protocol=pickle.HIGHEST_PROTOCOL)
            kind, installed = self.ask(client, ("install", blob, None))
            assert (kind, installed) == ("installed", len(units))
            kind, rows, delta = self.ask(
                client, ("run", list(range(len(units)))))
            assert kind == "results"
            assert sorted(position for position, _, _ in rows) \
                == list(range(len(units)))
            assert all(seconds >= 0.0 for _, _, seconds in rows)
            assert delta["estimates_computed"] == len(units)
            assert self.ask(client, ("shutdown",)) == ("bye",)
        finally:
            client.close()
            thread.join(timeout=5)

    def test_run_unknown_position_fails(self):
        client, thread = self.serve_pair()
        try:
            reply = self.ask(client, ("run", [7]))
            assert reply[0] == "error"
        finally:
            client.close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestUnitCostModel:
    def test_cost_scales_with_fraction_and_algorithm(self):
        cheap = planned_units(fraction=0.02)[0]
        dear = planned_units(fraction=0.10)[0]
        assert UnitCostModel.predict(dear) > UnitCostModel.predict(cheap)
        ns = planned_units(algorithm="null_suppression")[0]
        runs = planned_units(algorithm="null_suppression_runs")[0]
        assert UnitCostModel.predict(runs) > UnitCostModel.predict(ns)

    def test_histogram_units_discounted(self):
        histogram = make_histogram(5000, 40, 12, seed=6)
        request = EstimationRequest(histogram=histogram,
                                    algorithm="null_suppression",
                                    fraction=0.05, trials=1)
        engine = EstimationEngine(seed=99)
        unit = list(plan_units(engine.plan([request])))[0]
        table_unit = planned_units(fraction=0.05)[0]
        assert UnitCostModel.predict(unit) < UnitCostModel.predict(
            table_unit)

    def test_observe_calibrates_seconds(self):
        model = UnitCostModel()
        unit = planned_units()[0]
        assert model.predict_seconds(unit) is None
        model.observe(unit, 0.5)
        first = model.predict_seconds(unit)
        assert first == pytest.approx(0.5, rel=1e-9)
        model.observe(unit, 1.5)
        drifted = model.predict_seconds(unit)
        assert 0.5 < drifted < 1.5  # EMA moved toward the new sample
        assert model.snapshot()  # non-empty calibration table

    def test_every_registered_algorithm_has_a_weight(self):
        from repro.compression.registry import list_algorithms

        for name in list_algorithms():
            assert name in ALGORITHM_WEIGHTS, name


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
class TestScheduling:
    def test_lpt_balances_skewed_costs(self):
        costs = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        lpt = lpt_assign(costs, 2)
        rr = round_robin_assign(costs, 2)
        assert makespan(costs, lpt) < makespan(costs, rr)
        # LPT puts the giant unit alone-ish: its shard carries nothing
        # beyond what balance requires.
        assert makespan(costs, lpt) == 100.0

    def test_lpt_covers_all_units_exactly_once(self):
        rng = np.random.default_rng(3)
        costs = rng.uniform(0.5, 20.0, size=37).tolist()
        for shards in (1, 2, 5, 37, 50):
            assignment = lpt_assign(costs, shards)
            flat = sorted(index for shard in assignment
                          for index in shard)
            assert flat == list(range(len(costs)))

    def test_round_robin_covers_all_units(self):
        assignment = round_robin_assign([1.0] * 7, 3)
        flat = sorted(index for shard in assignment for index in shard)
        assert flat == list(range(7))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(EstimationError):
            RemotePlanExecutor(workers=[("127.0.0.1", 1)],
                               scheduler="fifo")


# ----------------------------------------------------------------------
# Address parsing and registry wiring
# ----------------------------------------------------------------------
class TestWiring:
    def test_parse_worker_addresses(self):
        assert parse_worker_addresses("hostA:7071,hostB:7072") \
            == [("hostA", 7071), ("hostB", 7072)]
        assert parse_worker_addresses([("x", 1), "y:2"]) \
            == [("x", 1), ("y", 2)]
        assert parse_worker_addresses("") == []

    def test_parse_rejects_garbage(self):
        for bad in ("hostA", "hostA:seven", ":7071"):
            with pytest.raises(EstimationError):
                parse_worker_addresses(bad)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(remote.REMOTE_WORKERS_ENV, "w1:9001,w2:9002")
        assert parse_worker_addresses(None) \
            == [("w1", 9001), ("w2", 9002)]
        monkeypatch.delenv(remote.REMOTE_WORKERS_ENV)
        assert parse_worker_addresses(None) == []

    def test_make_executor_remote(self):
        executor = make_executor("remote", workers="h:1,i:2")
        assert isinstance(executor, RemotePlanExecutor)
        assert executor.name == "remote"

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(EstimationError, match="remote"):
            make_executor("carrier-pigeon")


# ----------------------------------------------------------------------
# Executor end-to-end against in-process workers
# ----------------------------------------------------------------------
class TestRemoteExecutorSmall:
    def test_stats_and_identity_small_batch(self):
        from repro.engine.executors import SerialExecutor

        (address, shutdown) = start_worker_thread()
        try:
            table = make_table(n=600, d=25, k=10, seed=8, page_size=1024)
            requests = [EstimationRequest(
                table=table, columns=("a",), algorithm=name,
                fraction=0.05, trials=2, page_size=512)
                for name in ("null_suppression", "rle")]
            remote_engine = EstimationEngine(
                seed=4, executor=RemotePlanExecutor(workers=[address]))
            serial_engine = EstimationEngine(seed=4,
                                             executor=SerialExecutor())
            got = remote_engine.execute(requests)
            want = serial_engine.execute(requests)
            assert [r.values.tolist() for r in got.results] \
                == [r.values.tolist() for r in want.results]
            assert got.stats["remote_units"] == 4
            assert got.stats["remote_fallback_units"] == 0
        finally:
            shutdown()


# ----------------------------------------------------------------------
# Placement, chunking and shipping, on the forked process pool
# ----------------------------------------------------------------------
class ExplodingModel(NullSuppression):
    """A histogram model that fails, as a buggy plug-in algorithm would."""

    def cf_from_histogram(self, histogram, **layout) -> float:
        raise ValueError("model exploded")


def grid(trials, kinds=(IndexKind.CLUSTERED,),
         algorithms=("null_suppression", "rle", "prefix", "dictionary",
                     "delta", "page")):
    table = make_table(n=900, d=30, k=12, seed=8, page_size=1024)
    return [EstimationRequest(table=table, columns=("a",), algorithm=name,
                              fraction=0.05, trials=trials, kind=kind,
                              page_size=512)
            for kind in kinds for name in algorithms]


def values(batch):
    return [result.values.tolist() for result in batch.results]


def sent_frames(monkeypatch) -> list:
    """Record every frame the parent sends, as ``(worker, message)``."""
    import pickle

    frames: list = []
    exchange = remote._WorkerLink.exchange

    def recording(link, body):
        frames.append((link.name, pickle.loads(body)))
        return exchange(link, body)

    monkeypatch.setattr(remote._WorkerLink, "exchange", recording)
    return frames


class TestPoolDispatch:
    def test_group_runs_on_one_worker_in_bounded_chunks(self,
                                                        monkeypatch):
        """A group larger than a chunk goes out in chunk-sized run
        frames, every one to the worker that started it."""
        frames = sent_frames(monkeypatch)
        requests = grid(trials=3)
        pool = ProcessPoolPlanExecutor(2)
        pool.chunk_units = 4
        batch = EstimationEngine(seed=4, executor=pool).execute(requests)
        assert values(batch) == values(
            EstimationEngine(seed=4).execute(requests))
        units = plan_units(EstimationEngine(seed=4).plan(requests))
        runs = [(worker, message[1]) for worker, message in frames
                if message[0] == "run"]
        assert all(len(chunk) <= 4 for _, chunk in runs)
        workers: dict = {}
        for worker, chunk in runs:
            for position in chunk:
                workers.setdefault(units[position].sample_key,
                                   set()).add(worker)
        assert len(workers) == 3
        assert all(len(ran_on) == 1 for ran_on in workers.values())

    @staticmethod
    def mixed_sources():
        histogram = make_histogram(5000, 40, 12, seed=6)
        return grid(trials=3) + [
            EstimationRequest(histogram=histogram, algorithm=name,
                              fraction=0.05, trials=3)
            for name in ("null_suppression", "rle")]

    def test_groups_ship_once_and_sources_once_per_worker(self,
                                                          monkeypatch):
        """Remote workers inherit nothing: each is sent the groups it
        starts, after their sources."""
        frames = sent_frames(monkeypatch)
        requests = self.mixed_sources()
        units = plan_units(EstimationEngine(seed=4).plan(requests))
        groups = remote.placement_groups(units, range(len(units)), 2)
        workers = [start_worker_thread() for _ in range(2)]
        executor = RemotePlanExecutor(
            workers=[address for address, _ in workers])
        try:
            EstimationEngine(seed=4, executor=executor).execute(requests)
        finally:
            executor.close()
            for _, shutdown in workers:
                shutdown()
        installs = [worker for worker, message in frames
                    if message[0] == "install"]
        sources = [(worker, message[1]) for worker, message in frames
                   if message[0] == "source"]
        # Each group reaches only the worker that runs it...
        assert len(installs) == len(groups) == 6
        # ...and each source (the table, the histogram) at most once.
        assert len(sources) == len(set(sources)) <= 2 * len(set(installs))

    def test_pool_sends_only_run_frames(self, monkeypatch):
        """Forked workers inherit the batch: no source, no install."""
        frames = sent_frames(monkeypatch)
        requests = self.mixed_sources()
        batch = EstimationEngine(
            seed=4, executor=ProcessPoolPlanExecutor(2)).execute(requests)
        assert values(batch) == values(
            EstimationEngine(seed=4).execute(requests))
        assert batch.stats["remote_units"] == 24
        assert {message[0] for _, message in frames} == {"run"}

    def test_pool_never_pickles_a_table(self, monkeypatch, tmp_path):
        """No table crosses to a pool worker by pickle, and with a store
        the parent fingerprints each heap before forking."""
        from repro.storage.heap import HeapFile

        tables = [make_table(n=900, d=30, k=12, seed=seed, page_size=1024)
                  for seed in (8, 9)]
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.05,
                                      trials=2, page_size=512)
                    for table in tables
                    for name in ("null_suppression", "rle")]
        want = values(EstimationEngine(seed=4).execute(requests))

        def refuse(heap):
            raise RuntimeError("a table was pickled")

        monkeypatch.setattr(HeapFile, "__getstate__", refuse)
        batch = EstimationEngine(
            seed=4, store=tmp_path,
            executor=ProcessPoolPlanExecutor(2)).execute(requests)
        assert values(batch) == want
        assert batch.stats["remote_units"] == 8
        assert batch.stats["remote_fallback_units"] == 0
        assert all(table.heap._fingerprint is not None for table in tables)

    def test_dominant_sample_splits_by_index_key(self, monkeypatch):
        """A sample outweighing one worker's share (a single-table,
        single-trial advisor batch) spreads across workers by index
        key: each index is still built once, and the sample is drawn
        once per worker."""
        frames = sent_frames(monkeypatch)
        requests = grid(trials=1, kinds=tuple(IndexKind),
                        algorithms=("null_suppression", "rle", "prefix"))
        units = plan_units(EstimationEngine(seed=4).plan(requests))
        assert len(remote.placement_groups(units, range(6), 1)) == 1
        assert len(remote.placement_groups(units, range(6), 2)) == 2
        serial = EstimationEngine(seed=4).execute(requests)
        pooled = EstimationEngine(
            seed=4, executor=ProcessPoolPlanExecutor(2)).execute(requests)
        assert values(pooled) == values(serial)
        assert pooled.stats["indexes_built"] == \
            serial.stats["indexes_built"] == 2
        assert pooled.stats["samples_materialized"] == 2
        assert len({worker for worker, message in frames
                    if message[0] == "run"}) == 2

    def test_concurrent_batches_run_in_parallel(self, monkeypatch):
        """One pool serves concurrent run() calls at once (the service
        shares one executor across its handler threads)."""
        pool = ProcessPoolPlanExecutor(2)
        units = planned_units()
        first_in, second_out = threading.Event(), threading.Event()
        overlapped: list = []
        dispatch = ProcessPoolPlanExecutor._dispatch

        def held_first(self, groups, state):
            if not first_in.is_set():
                first_in.set()
                # Serialized batches would leave this waiting out.
                overlapped.append(second_out.wait(timeout=20))
            return dispatch(self, groups, state)

        monkeypatch.setattr(ProcessPoolPlanExecutor, "_dispatch",
                            held_first)
        results: dict = {}
        first = threading.Thread(
            target=lambda: results.update(first=pool.run(units)))
        first.start()
        assert first_in.wait(timeout=20)
        results["second"] = pool.run(units)
        second_out.set()
        first.join(timeout=60)
        assert not first.is_alive()
        assert overlapped == [True]
        assert results["first"] == results["second"] == [
            unit(None) for unit in units]

    @pytest.mark.parametrize("kind", ["process", "remote"])
    def test_unit_error_reraises_without_burying_workers(self, kind):
        histogram = make_histogram(5000, 40, 12, seed=6)
        requests = [EstimationRequest(histogram=histogram,
                                      algorithm=ExplodingModel(),
                                      fraction=0.05, trials=2)]
        units = plan_units(EstimationEngine(seed=4).plan(requests))
        context = UnitContext(cache=SampleCache(), stats=EngineStats())
        address, shutdown = start_worker_thread()
        executor = (ProcessPoolPlanExecutor(2) if kind == "process"
                    else RemotePlanExecutor(workers=[address]))
        try:
            with pytest.raises(ValueError, match="model exploded"):
                executor.run(units, context)
        finally:
            shutdown()
        counters = context.stats.snapshot()
        assert counters["remote_worker_failures"] == 0
        assert counters["degraded_units"] == 0

    def test_units_that_do_not_pickle_run_in_the_parent(self):
        class LocalModel(NullSuppression):
            """Defined in a function, so pickle cannot find it."""

        table = make_table(n=600, d=25, k=10, seed=8, page_size=1024)
        requests = [EstimationRequest(
            table=table, columns=("a",), algorithm=LocalModel(),
            fraction=0.05, trials=2, page_size=512)]
        want = values(EstimationEngine(seed=4).execute(requests))
        remote_batch = EstimationEngine(
            seed=4, executor=RemotePlanExecutor(workers=[])) \
            .execute(requests)
        assert values(remote_batch) == want
        assert remote_batch.stats["remote_fallback_units"] == 2
        assert remote_batch.stats["remote_units"] == 0
        assert remote_batch.stats["degraded_units"] == 0
        # The pool's workers inherit the units, so none must pickle.
        pool_batch = EstimationEngine(
            seed=4, executor=ProcessPoolPlanExecutor(2)).execute(requests)
        assert values(pool_batch) == want
        assert pool_batch.stats["remote_units"] == 2
        assert pool_batch.stats["remote_fallback_units"] == 0


class TestIdleDrivers:
    def test_idle_driver_wakes_when_its_peer_finishes(self, monkeypatch):
        """An idle driver waits while a peer has a chunk in flight and
        returns as soon as that chunk's results land, not at the next
        check of a timed wait."""
        unit = planned_units(trials=1)[0]
        executor = RemotePlanExecutor(workers=[])
        release = threading.Event()

        def answer(link, state, message):
            release.wait(timeout=30)
            return ("results", [(0, "estimate", 0.001)], {})

        monkeypatch.setattr(executor, "_injected_request", answer)
        monkeypatch.setattr(executor, "_install", lambda *args: None)
        idle = remote._WorkerLink(("idle", 0), 1.0)
        peer = remote._WorkerLink(("peer", 0), 1.0)
        peer.queue.append([0])
        state = remote._DispatchState(
            [unit], [None],
            UnitContext(cache=SampleCache(), stats=EngineStats()),
            [idle, peer], remote._Shipment(group_of={0: 0}))
        driver = threading.Thread(target=executor._drive_worker,
                                  args=(peer, state))
        driver.start()
        while not state.in_flight:
            time.sleep(0.001)
        got: list = []
        waiter = threading.Thread(
            target=lambda: got.append(executor._next_chunk(idle, state)))
        waiter.start()
        waiter.join(timeout=0.2)
        assert waiter.is_alive() and not got
        released = time.perf_counter()
        release.set()
        waiter.join(timeout=remote._IDLE_WAIT)
        woke = time.perf_counter() - released
        driver.join(timeout=5)
        assert got == [[]]
        assert state.results == ["estimate"]
        assert woke < remote._IDLE_WAIT / 4, woke


class TestCircuitBreaker:
    """Cross-batch worker lifecycle: bury, skip, probe, rejoin.

    The executor keeps links and per-address breakers across run()
    calls; a worker that dies is buried through its breaker, and —
    the PR 9 satellite fix — a worker that *restarts* on the same
    address rejoins via the half-open probe instead of staying buried
    for the executor's lifetime.
    """

    @staticmethod
    def _worker_on(port, **kwargs):
        """serve() on a chosen port (0 = ephemeral); returns addr+stop."""
        box: dict = {}
        bound = threading.Event()
        stop = threading.Event()

        def ready(addr):
            box["addr"] = addr
            bound.set()

        thread = threading.Thread(
            target=remote.serve,
            kwargs={"port": port, "ready": ready,
                    "stop_event": stop, **kwargs},
            daemon=True)
        thread.start()
        assert bound.wait(timeout=10)

        def shutdown():
            stop.set()
            thread.join(timeout=5)

        return box["addr"], shutdown

    @staticmethod
    def _requests():
        table = make_table(n=600, d=25, k=10, seed=8, page_size=1024)
        return [EstimationRequest(
            table=table, columns=("a",), algorithm=name,
            fraction=0.05, trials=2, page_size=512)
            for name in ("null_suppression", "rle")]

    def _reference(self):
        from repro.engine.executors import SerialExecutor

        batch = EstimationEngine(
            seed=4, executor=SerialExecutor()).execute(self._requests())
        return [r.values.tolist() for r in batch.results]

    def test_restarted_worker_rejoins_via_probe(self):
        """Die between batches, restart on the same port, rejoin."""
        reference = self._reference()
        # fail_after_units=4: batch 1 (4 units) completes, batch 2's
        # first chunk kills the connection — death *between* batches
        # from the executor's point of view.
        address, shutdown = self._worker_on(0, fail_after_units=4)
        executor = RemotePlanExecutor(
            workers=[address], breaker_threshold=1,
            max_local_workers=2, connect_timeout=0.5)
        engine = EstimationEngine(seed=4, executor=executor)
        try:
            one = engine.execute(self._requests())
            assert one.stats["remote_units"] == 4
            assert [r.values.tolist() for r in one.results] == reference

            two = engine.execute(self._requests())  # worker dies here
            assert two.stats["remote_worker_failures"] == 1
            assert two.stats["remote_fallback_units"] == 4
            assert [r.values.tolist() for r in two.results] == reference
        finally:
            shutdown()
        # The worker restarts on the same address; the next batch's
        # half-open probe must re-connect() it, not skip it forever.
        address2, shutdown2 = self._worker_on(address[1])
        assert address2 == address
        try:
            three = engine.execute(self._requests())
            assert three.stats["breaker_probes"] == 1
            assert three.stats["breaker_reconnects"] == 1
            assert three.stats["remote_units"] == 4
            assert three.stats["remote_fallback_units"] == 0
            assert [r.values.tolist()
                    for r in three.results] == reference
        finally:
            shutdown2()
            executor.close()

    def test_open_breaker_skips_for_cooldown_batches(self):
        """cooldown=N: N batches skip the address without connecting."""
        reference = self._reference()
        address, shutdown = self._worker_on(0, fail_after_units=4)
        executor = RemotePlanExecutor(
            workers=[address], breaker_threshold=1, breaker_cooldown=1,
            max_local_workers=2, connect_timeout=0.5)
        engine = EstimationEngine(seed=4, executor=executor)
        try:
            engine.execute(self._requests())            # warm batch
            engine.execute(self._requests())            # death -> open
        finally:
            shutdown()
        address2, shutdown2 = self._worker_on(address[1])
        try:
            skip = engine.execute(self._requests())     # cooldown skip
            assert skip.stats["breaker_open_skips"] == 1
            assert skip.stats["remote_fallback_units"] == 4
            assert [r.values.tolist()
                    for r in skip.results] == reference
            probe = engine.execute(self._requests())    # the probe
            assert probe.stats["breaker_probes"] == 1
            assert probe.stats["breaker_reconnects"] == 1
            assert probe.stats["remote_units"] == 4
            assert [r.values.tolist()
                    for r in probe.results] == reference
        finally:
            shutdown2()
            executor.close()

    def test_unreachable_address_opens_breaker(self):
        """Connect failures count toward the threshold too."""
        address, shutdown = self._worker_on(0)
        shutdown()  # nothing listens any more
        executor = RemotePlanExecutor(
            workers=[address], breaker_threshold=2, breaker_cooldown=5,
            max_local_workers=2, connect_timeout=0.2)
        engine = EstimationEngine(seed=4, executor=executor)
        reference = self._reference()
        for expected_skips in (0, 0, 1):
            batch = engine.execute(self._requests())
            assert batch.stats["breaker_open_skips"] == expected_skips
            assert [r.values.tolist()
                    for r in batch.results] == reference
        executor.close()
