"""Cross-process store behaviour: locking, single materialization,
torn-write safety.

Two processes open the same store directory concurrently; the per-key
``flock`` must serialize materialization (the factory runs exactly once
across both processes) and every entry either reads back complete or
not at all — never a torn half-write. These tests fork real processes
(the container is POSIX; ``fork`` keeps the workers importable without
re-running pytest's collection).
"""

import json
import multiprocessing
import pickle
import time

import pytest

from repro.sampling.row_samplers import WithReplacementSampler
from repro.workloads.generators import make_table
from repro.engine.samples import materialize_table_sample
from repro.store import HAVE_FLOCK, FileLock, SampleStore, digest_parts
from tests.conftest import draw_bytes

pytestmark = pytest.mark.skipif(
    not HAVE_FLOCK, reason="no fcntl flock on this platform")

_CTX = multiprocessing.get_context("fork")

KEY = digest_parts("contended-key")


def _draw_sample():
    table = make_table(n=1500, d=30, k=16, page_size=1024, seed=21)
    return materialize_table_sample(table, WithReplacementSampler(),
                                    0.05, 13)


def _contending_worker(store_dir, log_path, result_path, barrier):
    """Race for one key; record whether this process materialized."""
    store = SampleStore(store_dir)

    def factory():
        with open(log_path, "a", encoding="utf-8") as log:
            log.write("materialized\n")
        time.sleep(0.2)  # widen the race window
        return _draw_sample()

    barrier.wait(timeout=30)
    sample, hit = store.get_or_create_sample(KEY, factory)
    payload = {"hit": hit, "rows": sample.sample_rows,
               "draw": [part.hex() for part in draw_bytes(sample)]}
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump(payload, out)


def _locker_worker(lock_path, acquired_at_path, barrier):
    """Blocks on a lock the parent holds; records when it got in."""
    barrier.wait(timeout=30)
    with FileLock(lock_path):
        with open(acquired_at_path, "w", encoding="utf-8") as out:
            out.write(repr(time.monotonic()))


class TestCrossProcess:
    def test_two_processes_materialize_once(self, tmp_path):
        store_dir = tmp_path / "store"
        SampleStore(store_dir)  # pre-create so workers race on entries
        log_path = tmp_path / "materializations.log"
        results = [tmp_path / "result-0.json", tmp_path / "result-1.json"]
        barrier = _CTX.Barrier(3)
        workers = [
            _CTX.Process(target=_contending_worker,
                         args=(str(store_dir), str(log_path),
                               str(result), barrier))
            for result in results
        ]
        for worker in workers:
            worker.start()
        barrier.wait(timeout=30)  # release both at once
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # Exactly one process ran the factory...
        lines = log_path.read_text().splitlines()
        assert lines == ["materialized"]
        # ...the other saw a hit, and both got the same sample.
        outcomes = [json.loads(result.read_text()) for result in results]
        assert sorted(o["hit"] for o in outcomes) == [False, True]
        assert outcomes[0]["rows"] == outcomes[1]["rows"] > 0
        assert outcomes[0]["draw"] == outcomes[1]["draw"]

    def test_no_torn_writes_after_contention(self, tmp_path):
        """The winning entry validates end to end (checksum intact)."""
        store_dir = tmp_path / "store"
        SampleStore(store_dir)
        barrier = _CTX.Barrier(3)
        workers = [
            _CTX.Process(target=_contending_worker,
                         args=(str(store_dir), str(tmp_path / "log"),
                               str(tmp_path / f"r{i}.json"), barrier))
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        barrier.wait(timeout=30)
        for worker in workers:
            worker.join(timeout=60)
        fresh = SampleStore(store_dir)
        loaded = fresh.get_sample(KEY)
        assert loaded is not None  # envelope parsed + checksum passed
        assert draw_bytes(loaded) == draw_bytes(_draw_sample())
        assert fresh.counters["quarantined"] == 0
        # No stray tmp files left behind by either writer.
        assert not list(store_dir.rglob(".tmp-*"))

    def test_lock_contention_blocks_second_process(self, tmp_path):
        lock_path = tmp_path / "contended.lock"
        acquired_at = tmp_path / "acquired_at.txt"
        barrier = _CTX.Barrier(2)
        lock = FileLock(lock_path)
        lock.acquire()
        try:
            worker = _CTX.Process(target=_locker_worker,
                                  args=(str(lock_path), str(acquired_at),
                                        barrier))
            worker.start()
            barrier.wait(timeout=30)
            released_at = time.monotonic() + 0.5
            time.sleep(0.5)  # child must sit blocked this whole time
            assert not acquired_at.exists()
        finally:
            lock.release()
        worker.join(timeout=60)
        assert worker.exitcode == 0
        child_acquired = float(acquired_at.read_text())
        assert child_acquired >= released_at - 0.1

    def test_store_handle_crosses_process_boundary(self, tmp_path):
        """A pickled handle reopens the same directory (executor path)."""
        store = SampleStore(tmp_path / "store", max_bytes=1 << 20)
        store.put_sample(KEY, _draw_sample())
        clone = pickle.loads(pickle.dumps(store))
        assert clone.max_bytes == store.max_bytes
        assert clone.get_sample(KEY) is not None

    def test_corrupt_entry_race_rematerializes_exactly_once(
            self, tmp_path):
        """Two processes racing a byte-flipped envelope: one factory run.

        A valid entry is corrupted in place on disk; both racers see
        the checksum miss (quarantine-as-miss), and the per-key flock
        must still collapse re-materialization to exactly one factory
        run across both processes — the second racer reads the fresh
        entry the winner wrote.
        """
        store_dir = tmp_path / "store"
        store = SampleStore(store_dir)
        store.put_sample(KEY, _draw_sample())
        entry = store._entry_path("samples", KEY)
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one body byte
        entry.write_bytes(bytes(blob))
        log_path = tmp_path / "materializations.log"
        results = [tmp_path / "result-0.json", tmp_path / "result-1.json"]
        barrier = _CTX.Barrier(3)
        workers = [
            _CTX.Process(target=_contending_worker,
                         args=(str(store_dir), str(log_path),
                               str(result), barrier))
            for result in results
        ]
        for worker in workers:
            worker.start()
        barrier.wait(timeout=30)
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # Exactly one re-materialization across both processes, and
        # both racers agree on the recovered sample.
        assert log_path.read_text().splitlines() == ["materialized"]
        outcomes = [json.loads(result.read_text()) for result in results]
        assert sorted(o["hit"] for o in outcomes) == [False, True]
        assert outcomes[0]["draw"] == outcomes[1]["draw"]
        # The corrupt envelope was moved aside, and the rewritten
        # entry reads clean from a fresh handle.
        fresh = SampleStore(store_dir)
        recovered = fresh.get_sample(KEY)
        assert recovered is not None
        assert draw_bytes(recovered) == draw_bytes(_draw_sample())
        assert fresh.counters["quarantined"] == 0
