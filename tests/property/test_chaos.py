"""Chaos property suite: injected faults never corrupt an estimate.

The global invariant (ISSUE 9, acceptance criterion): for *any*
injected fault sequence, a batch either yields results bit-identical
to the fault-free run or reports typed degradations — never a wrong
number, a hang, or a lost unit. Hypothesis generates seeded fault
plans (``derandomize=True`` pins the example stream, so CI replays the
identical schedules); every plan is itself content-fingerprinted, so
a failing example reproduces from its repr alone.

Three executor surfaces, each with the fault classes that can reach
it in-process:

* serial — store read/write/lock faults against a warm store;
* process pool — worker death (``pool.unit`` crash, a real
  ``os._exit``) delivered through the ``REPRO_FAULT_PLAN`` env hook;
* fake-remote — socket drops and delays on the send/recv sides.

Plus the store crash-consistency torture: a writer killed mid-``put``
at *every byte offset* of the envelope must leave a store that reads
clean-or-miss, never torn (in-process ``torn`` faults for the full
sweep, real ``os._exit(32)`` subprocesses for spot checks).
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InjectedFault
from repro.engine import (EstimationEngine, EstimationRequest,
                          PartialBatchResult, ProcessPoolPlanExecutor,
                          RemotePlanExecutor)
from repro.engine.remote import start_worker_thread
from repro.engine.samples import materialize_table_sample
from repro.faults import (FAULT_PLAN_ENV, FaultInjector, FaultPlan,
                          FaultSpec, NULL_INJECTOR)
from repro.sampling.row_samplers import WithReplacementSampler
from repro.store import SampleStore, digest_parts
from repro.workloads.generators import make_table
from tests.conftest import draw_bytes

MASTER_SEED = 20260808

CHAOS_SETTINGS = settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.function_scoped_fixture])

#: (site, kind) pairs that are safe to fire in the test process
#: itself: they raise catchable errors or perturb blobs, never
#: ``os._exit``.  ``torn``/``crash`` writes and ``pool.unit`` crashes
#: simulate process death and get their own harnesses below.
IN_PROCESS_FAULTS = (
    ("store.read", "error"),
    ("store.read", "corrupt"),
    ("store.read", "truncate"),
    ("store.write", "error"),
    ("store.write", "error_permanent"),
    ("store.lock", "error"),
)

REMOTE_FAULTS = (
    ("remote.send", "drop"),
    ("remote.send", "delay"),
    ("remote.recv", "drop"),
)


def fault_plans(pairs, max_faults=4):
    """Strategy: a :class:`FaultPlan` drawn from the given site table."""
    specs = st.tuples(
        st.sampled_from(pairs),
        st.integers(min_value=0, max_value=5),    # at
        st.integers(min_value=1, max_value=3),    # count
        st.integers(min_value=0, max_value=512),  # arg (offset bytes)
    ).map(lambda t: FaultSpec(
        site=t[0][0], kind=t[0][1], at=t[1], count=t[2],
        arg=(t[3] / 10_000.0 if t[0][1] == "delay" else float(t[3]))))
    return st.lists(specs, min_size=1, max_size=max_faults).map(
        lambda faults: FaultPlan(faults=tuple(faults)))


def build_requests():
    table = make_table(n=2000, d=50, k=16, distribution="zipf",
                       order="shuffled", page_size=1024, seed=11)
    return [EstimationRequest(table=table, columns=("a",),
                              algorithm=algorithm, fraction=fraction,
                              trials=2, page_size=512)
            for algorithm in ("null_suppression", "rle",
                              "global_dictionary")
            for fraction in (0.02, 0.05)]


def values(batch):
    return [None if result is None
            else tuple((float(e.estimate), e.sample_rows,
                        e.compressed_sample_bytes)
                       for e in result.estimates)
            for result in batch.results]


@pytest.fixture(scope="module")
def reference():
    return values(EstimationEngine(seed=MASTER_SEED).execute(
        build_requests()))


def assert_invariant(batch, reference_values):
    """The chaos contract for a deadline-bounded run.

    Every submitted unit accounted exactly once; every request whose
    units all ran is bit-identical to the fault-free reference; a
    request is ``None`` only when the deadline took one of its trials.
    """
    assert isinstance(batch, PartialBatchResult)
    requests = build_requests()
    submitted = sum(request.trials for request in requests)
    assert len(batch.outcomes) == submitted
    assert len({(o.index, o.trial) for o in batch.outcomes}) == submitted
    skipped = {o.index for o in batch.outcomes
               if o.status == "deadline_exceeded"}
    for position, got in enumerate(values(batch)):
        if got is None:
            assert skipped, (
                f"request {position} lost without any deadline skip")
        else:
            assert got == reference_values[position], (
                f"request {position}: wrong number under faults")


class TestChaosSerialStore:
    """Store faults on the serial path: absorbed, accounted, identical."""

    @CHAOS_SETTINGS
    @given(plan=fault_plans(IN_PROCESS_FAULTS))
    def test_any_store_fault_plan_absorbed(self, plan, reference,
                                           tmp_path_factory):
        root = tmp_path_factory.mktemp("chaos-store")
        store = SampleStore(root)
        EstimationEngine(seed=MASTER_SEED, store=store).execute(
            build_requests())  # warm both tiers
        store.injector = FaultInjector(plan)
        engine = EstimationEngine(seed=MASTER_SEED, store=store)
        batch = engine.execute(build_requests(), deadline=300.0)
        assert_invariant(batch, reference)
        assert not {o.status for o in batch.outcomes} & \
            {"deadline_exceeded"}
        # Whatever fired was accounted: store-side fault counter
        # matches the injector's own record.
        assert store.counters["faults_injected"] == \
            store.injector.fired_count()

    @CHAOS_SETTINGS
    @given(plan=fault_plans(IN_PROCESS_FAULTS), cold=st.booleans())
    def test_unbounded_chaos_run_stays_exact(self, plan, cold,
                                             reference,
                                             tmp_path_factory):
        """Without a deadline the API shape is unchanged: BatchResult,
        every value bit-identical — degradation shows only in stats."""
        root = tmp_path_factory.mktemp("chaos-store")
        store = SampleStore(root)
        if not cold:
            EstimationEngine(seed=MASTER_SEED, store=store).execute(
                build_requests())
        store.injector = FaultInjector(plan)
        batch = EstimationEngine(seed=MASTER_SEED, store=store).execute(
            build_requests())
        assert values(batch) == reference


class TestChaosProcessPool:
    """Worker death at hypothesis-chosen unit indices: parent absorbs."""

    @CHAOS_SETTINGS
    @given(at=st.integers(min_value=0, max_value=10),
           count=st.integers(min_value=1, max_value=2))
    def test_worker_crash_at_any_index(self, at, count, reference,
                                       monkeypatch):
        plan = FaultPlan(faults=(
            FaultSpec(site="pool.unit", kind="crash", at=at,
                      count=count),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        engine = EstimationEngine(
            seed=MASTER_SEED, executor=ProcessPoolPlanExecutor(2),
            injector=NULL_INJECTOR)
        batch = engine.execute(build_requests(), deadline=600.0)
        assert_invariant(batch, reference)
        assert batch.counts()["deadline_exceeded"] == 0
        # The crash either hit (worker died, units re-ran degraded) or
        # the index was past the worker's share — both are legal; what
        # is not legal is a crash that fired without being accounted.
        if batch.stats["remote_worker_failures"]:
            assert batch.stats["degraded_units"] >= 1
            assert batch.counts()["degraded"] >= 1


class TestChaosRemote:
    """Socket faults on the fake-remote path: survivors absorb."""

    @CHAOS_SETTINGS
    @given(plan=fault_plans(REMOTE_FAULTS, max_faults=3))
    def test_any_socket_fault_plan_absorbed(self, plan, reference):
        started = [start_worker_thread() for _ in range(2)]
        try:
            executor = RemotePlanExecutor(
                workers=[address for address, _ in started],
                chunk_units=2, max_local_workers=2,
                injector=FaultInjector(plan))
            engine = EstimationEngine(seed=MASTER_SEED,
                                      executor=executor)
            batch = engine.execute(build_requests(), deadline=600.0)
            assert_invariant(batch, reference)
            assert batch.counts()["deadline_exceeded"] == 0
            fired = executor.injector.fired_count()
            assert batch.stats["faults_injected"] == fired
            dropped = sum(1 for f in executor.injector.fired
                          if f.kind == "drop")
            if dropped:
                # Every drop buried a worker attempt; the units still
                # all resolved (survivor, retry, or local fallback).
                assert batch.stats["remote_worker_failures"] >= 1
        finally:
            for _, shutdown in started:
                shutdown()


class TestChaosDeadline:
    """Any deadline shrinks the result set, never corrupts it."""

    @CHAOS_SETTINGS
    @given(budget=st.sampled_from([0.0, 0.0005, 0.002, 0.01, 30.0]))
    def test_any_budget_accounts_exactly_once(self, budget, reference):
        engine = EstimationEngine(seed=MASTER_SEED)
        batch = engine.execute(build_requests(), deadline=budget)
        assert_invariant(batch, reference)

    def test_zero_budget_is_all_skips(self, reference):
        batch = EstimationEngine(seed=MASTER_SEED).execute(
            build_requests(), deadline=0.0)
        counts = batch.counts()
        assert counts["deadline_exceeded"] == len(batch.outcomes)
        assert counts["done"] == counts["degraded"] == 0


# ----------------------------------------------------------------------
# Store crash-consistency torture
# ----------------------------------------------------------------------
KEY = digest_parts("crash-torture-key")


def _sample():
    table = make_table(n=400, d=10, k=8, page_size=512, seed=3)
    return materialize_table_sample(table, WithReplacementSampler(),
                                    0.1, 7)


def _torn_store(root, offset):
    return SampleStore(root, injector=FaultInjector(FaultPlan(faults=(
        FaultSpec(site="store.write", kind="torn", at=0,
                  arg=float(offset)),))))


def _crashing_put(root, offset):
    """Subprocess target: die with ``os._exit(32)`` mid-``put``."""
    store = SampleStore(root, injector=FaultInjector(FaultPlan(faults=(
        FaultSpec(site="store.write", kind="crash", at=0,
                  arg=float(offset)),))))
    store.put_sample(KEY, _sample())


class TestCrashConsistency:
    def test_writer_killed_at_every_offset_reads_clean_or_miss(
            self, tmp_path):
        """The full sweep: a tear at byte 0 through byte N-1.

        The abandoned tmp file is exactly the on-disk state a killed
        writer leaves (unique ``mkstemp`` name, never ``os.replace``d),
        so the in-process ``torn`` kind covers every offset cheaply;
        the real-``os._exit`` spot checks below keep it honest.
        """
        sample = _sample()
        probe = SampleStore(tmp_path / "probe")
        probe.put_sample(KEY, sample)
        blob_len = probe._entry_path("samples", KEY).stat().st_size
        assert blob_len > 100
        root = tmp_path / "torture"
        for offset in range(blob_len):
            store = _torn_store(root, offset)
            with pytest.raises(InjectedFault):
                store.put_sample(KEY, sample)
            assert SampleStore(root).get_sample(KEY) is None, (
                f"torn write at offset {offset} left a readable entry")
        # No torn blob ever became a live entry, and nothing was ever
        # close enough to valid to quarantine.
        fresh = SampleStore(root)
        assert len(fresh) == 0
        assert fresh.counters["quarantined"] == 0

    def test_overwrite_kill_preserves_the_old_entry(self, tmp_path):
        """A tear during overwrite must leave the *previous* value."""
        sample = _sample()
        root = tmp_path / "store"
        SampleStore(root).put_sample(KEY, sample)
        blob_len = SampleStore(root)._entry_path(
            "samples", KEY).stat().st_size
        for offset in range(0, blob_len, 7):
            store = _torn_store(root, offset)
            with pytest.raises(InjectedFault):
                store.put_sample(KEY, sample)
            survivor = SampleStore(root).get_sample(KEY)
            assert survivor is not None, (
                f"overwrite tear at {offset} destroyed the old entry")
            assert draw_bytes(survivor) == draw_bytes(sample)

    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_real_process_kill_mid_put(self, tmp_path, where):
        """Spot checks with an actual ``os._exit(32)`` in a fork."""
        sample = _sample()
        probe = SampleStore(tmp_path / "probe")
        probe.put_sample(KEY, sample)
        blob_len = probe._entry_path("samples", KEY).stat().st_size
        offset = {"start": 0, "middle": blob_len // 2,
                  "end": blob_len - 1}[where]
        root = tmp_path / "crash"
        context = multiprocessing.get_context("fork")
        worker = context.Process(target=_crashing_put,
                                 args=(root, offset))
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == 32  # died inside the injected fault
        assert SampleStore(root).get_sample(KEY) is None
        # The key is still writable afterwards: the abandoned tmp file
        # never poisons the slot.
        SampleStore(root).put_sample(KEY, sample)
        recovered = SampleStore(root).get_sample(KEY)
        assert recovered is not None
        assert draw_bytes(recovered) == draw_bytes(sample)
