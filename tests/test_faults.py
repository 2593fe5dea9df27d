"""Unit tests for ``repro.faults``: plans, policies, and engine wiring.

The chaos *property* suite (``tests/property/test_chaos.py``) owns the
global invariant; this module pins the building blocks — fault-plan
data model, deterministic retry jitter, deadline arithmetic, the
circuit-breaker state machine — and the engine-level integration
seams (``execute(deadline=...)``, transient-vs-permanent store retry
classes, pool-worker crash recovery, the CLI flags).
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.cli import main
from repro.errors import (EstimationError, InjectedFault,
                          PermanentStoreError, ReproError, StoreError,
                          TransientStoreError)
from repro.engine import (EstimationEngine, EstimationRequest,
                          PartialBatchResult, ProcessPoolPlanExecutor)
from repro.faults import (DEFAULT_RETRY_POLICY, FAULT_PLAN_ENV,
                          FAULT_SITES, CircuitBreaker, Deadline,
                          FaultInjector, FaultPlan, FaultSpec,
                          NULL_INJECTOR, RetryPolicy, injector_from_env,
                          plan_from_env)
from repro.store.store import SampleStore
from repro.workloads.generators import make_table


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(EstimationError, match="unknown fault site"):
            FaultSpec(site="store.nope", kind="error")

    def test_unknown_kind_rejected(self):
        with pytest.raises(EstimationError, match="does not honour"):
            FaultSpec(site="store.read", kind="crash")

    def test_bad_window_rejected(self):
        with pytest.raises(EstimationError, match="fault window"):
            FaultSpec(site="store.read", kind="error", at=-1)
        with pytest.raises(EstimationError, match="fault window"):
            FaultSpec(site="store.read", kind="error", count=0)

    def test_matches_window(self):
        spec = FaultSpec(site="store.read", kind="error", at=2, count=3)
        assert [spec.matches(i) for i in range(7)] == [
            False, False, True, True, True, False, False]

    def test_every_registered_site_has_kinds(self):
        for site, kinds in FAULT_SITES.items():
            assert kinds, site
            for kind in kinds:
                FaultSpec(site=site, kind=kind)  # all constructible


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="store.read", kind="corrupt", at=1, arg=40.0),
            FaultSpec(site="remote.send", kind="delay", arg=0.01),
        ), seed=99)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_fingerprint_is_content_identity(self):
        one = FaultPlan(faults=(FaultSpec(site="store.lock",
                                          kind="error"),))
        same = FaultPlan.from_json(one.to_json())
        other = FaultPlan(faults=(FaultSpec(site="store.lock",
                                            kind="error", at=1),))
        assert one.fingerprint == same.fingerprint
        assert one.fingerprint != other.fingerprint

    def test_from_json_rejects_garbage(self):
        with pytest.raises(EstimationError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(EstimationError, match="'faults' list"):
            FaultPlan.from_json('{"seed": 3}')

    def test_generate_is_seed_deterministic(self):
        assert FaultPlan.generate(7) == FaultPlan.generate(7)
        assert FaultPlan.generate(7) != FaultPlan.generate(8)
        assert FaultPlan.generate(7, n_faults=5).faults != \
            FaultPlan.generate(7, n_faults=3).faults

    def test_generate_respects_site_subset(self):
        plan = FaultPlan.generate(3, n_faults=8,
                                  sites=("store.read", "store.lock"))
        assert {spec.site for spec in plan.faults} <= {
            "store.read", "store.lock"}

    def test_generate_rejects_negative_count(self):
        with pytest.raises(EstimationError, match="non-negative"):
            FaultPlan.generate(1, n_faults=-1)


class TestFaultInjector:
    def test_fires_only_inside_window(self):
        injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=1, count=2),)))
        fired = [injector.fire("store.read") for _ in range(4)]
        assert [spec is not None for spec in fired] == [
            False, True, True, False]
        assert injector.fired_count() == 2
        assert [f.invocation for f in injector.fired] == [1, 2]

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=0),)))
        assert injector.fire("store.write") is None
        assert injector.fire("store.read") is not None

    def test_reset_restarts_the_schedule(self):
        injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=0),)))
        assert injector.fire("store.read") is not None
        assert injector.fire("store.read") is None
        injector.reset()
        assert injector.fire("store.read") is not None

    def test_pickle_ships_plan_not_counters(self):
        injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=0),)))
        assert injector.fire("store.read") is not None
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.plan == injector.plan
        # A fresh process restarts the invocation count: the at=0
        # fault fires again even though the parent already spent it.
        assert clone.fire("store.read") is not None

    def test_null_injector_is_disabled_and_inert(self):
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.fire("store.read") is None
        assert NULL_INJECTOR.fired_count() == 0


class TestEnvHook:
    def test_unset_env_means_null(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert plan_from_env() is None
        assert injector_from_env() is NULL_INJECTOR

    def test_inline_json_plan(self, monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(site="pool.unit",
                                           kind="crash", at=2),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert plan_from_env() == plan
        assert injector_from_env().plan == plan

    def test_plan_file_path(self, monkeypatch, tmp_path):
        plan = FaultPlan(faults=(FaultSpec(site="store.read",
                                           kind="truncate", arg=3.0),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert plan_from_env() == plan

    def test_unreadable_path_is_loud(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_PLAN_ENV, str(tmp_path / "absent.json"))
        with pytest.raises(EstimationError, match="unreadable"):
            plan_from_env()


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic_per_seed(self):
        policy = RetryPolicy(max_attempts=5)
        one = [policy.delay_for(123, a) for a in range(1, 5)]
        two = [policy.delay_for(123, a) for a in range(1, 5)]
        assert one == two
        assert one != [policy.delay_for(124, a) for a in range(1, 5)]

    def test_delays_stay_inside_bounds(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.001,
                             max_delay=0.02)
        for seed in (0, 7, 991):
            for attempt in range(1, 9):
                delay = policy.delay_for(seed, attempt)
                assert 0.001 <= delay <= 0.02

    def test_validation(self):
        with pytest.raises(EstimationError, match="attempt budget"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(EstimationError, match="base_delay"):
            RetryPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(EstimationError, match="1-based"):
            RetryPolicy().delay_for(1, 0)

    def test_default_policy_is_modest(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.max_delay <= 0.5


class TestDeadline:
    def test_negative_budget_rejected(self):
        with pytest.raises(EstimationError, match="non-negative"):
            Deadline.after(-1.0)

    def test_fresh_budget_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0 < deadline.remaining() <= 60.0

    def test_zero_budget_expires_immediately(self):
        assert Deadline.after(0.0).expired

    def test_clamp_caps_to_remaining(self):
        deadline = Deadline.after(0.5)
        assert deadline.clamp(100.0) <= 0.5
        assert Deadline.after(0.0).clamp(100.0) == pytest.approx(0.001)


class TestCircuitBreaker:
    def test_opens_after_threshold_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow()  # the probe (cooldown 0)
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert not breaker.allow()  # cooldown skip
        assert breaker.allow()      # the probe
        breaker.record_failure()    # probe failed: open again
        assert breaker.state == "open"
        assert not breaker.allow()  # a fresh cooldown applies

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(EstimationError, match="failure threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(EstimationError, match="cooldown"):
            CircuitBreaker(cooldown=-1)


class TestErrorTaxonomy:
    def test_store_error_split(self):
        assert issubclass(TransientStoreError, StoreError)
        assert issubclass(PermanentStoreError, StoreError)
        assert not issubclass(TransientStoreError, PermanentStoreError)

    def test_injected_fault_is_not_a_store_error(self):
        # Degradation paths catch StoreError; a simulated process
        # death must never be absorbed by them.
        assert issubclass(InjectedFault, ReproError)
        assert not issubclass(InjectedFault, StoreError)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def _requests():
    table = make_table(n=1500, d=40, k=15, distribution="zipf",
                       order="shuffled", page_size=1024, seed=7)
    return [EstimationRequest(table=table, columns=("a",),
                              algorithm=algorithm, fraction=0.05,
                              trials=2, page_size=512)
            for algorithm in ("null_suppression", "rle")]


def _values(batch):
    return [None if result is None
            else tuple(float(v) for v in result.values)
            for result in batch.results]


@pytest.fixture(scope="module")
def clean_values():
    return _values(EstimationEngine(seed=42).execute(_requests()))


class TestEngineDeadline:
    def test_zero_deadline_skips_everything_typed(self):
        batch = EstimationEngine(seed=42).execute(_requests(),
                                                  deadline=0.0)
        assert isinstance(batch, PartialBatchResult)
        assert not batch.complete
        assert batch.counts()["deadline_exceeded"] == len(batch.outcomes)
        assert all(result is None for result in batch.results)
        assert batch.stats["deadline_skipped_units"] == \
            len(batch.outcomes)

    def test_ample_deadline_is_bit_identical(self, clean_values):
        batch = EstimationEngine(seed=42).execute(_requests(),
                                                  deadline=300.0)
        assert isinstance(batch, PartialBatchResult)
        assert batch.complete
        assert batch.counts()["done"] == len(batch.outcomes)
        assert _values(batch) == clean_values

    def test_accounting_is_exactly_once(self):
        requests = _requests()
        batch = EstimationEngine(seed=42).execute(requests, deadline=0.0)
        submitted = sum(request.trials for request in requests)
        assert len(batch.outcomes) == submitted
        assert len({(o.index, o.trial) for o in batch.outcomes}) == \
            submitted

    def test_deadline_instance_accepted(self, clean_values):
        batch = EstimationEngine(seed=42).execute(
            _requests(), deadline=Deadline.after(300.0))
        assert _values(batch) == clean_values


def _warm_store(tmp_path):
    store = SampleStore(tmp_path / "store")
    EstimationEngine(seed=42, store=store).execute(_requests())
    return store


class TestStoreRetryIntegration:
    def test_transient_fault_heals_by_retry(self, tmp_path,
                                            clean_values):
        store = _warm_store(tmp_path)
        store.injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=0, count=2),)))
        batch = EstimationEngine(seed=42, store=store).execute(
            _requests(), deadline=300.0)
        assert _values(batch) == clean_values
        assert batch.stats["retry_attempts"] >= 2
        assert batch.stats["retry_giveups"] == 0
        assert batch.counts()["done"] == len(batch.outcomes)
        assert store.counters["faults_injected"] == 2

    def test_exhausted_retries_degrade_and_account(self, tmp_path,
                                                   clean_values):
        store = _warm_store(tmp_path)
        store.injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=0,
                      count=500),)))
        batch = EstimationEngine(seed=42, store=store).execute(
            _requests(), deadline=300.0)
        assert _values(batch) == clean_values  # never a wrong number
        assert batch.stats["retry_giveups"] >= 1
        assert batch.stats["store_degraded_reads"] >= 1
        assert batch.counts()["degraded"] >= 1
        assert batch.counts()["deadline_exceeded"] == 0

    def test_permanent_fault_degrades_without_retry(self, tmp_path,
                                                    clean_values):
        store = _warm_store(tmp_path)
        store.injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.write", kind="error_permanent",
                      at=0, count=500),)))
        # Invalidate the estimate tier so the batch re-writes.
        for entry in list(store.entries()):
            if entry.kind == "estimates":
                entry.path.unlink()
        batch = EstimationEngine(seed=42, store=store).execute(
            _requests(), deadline=300.0)
        assert _values(batch) == clean_values
        assert batch.stats["retry_attempts"] == 0  # no retry burned
        assert batch.stats["store_degraded_writes"] >= 1

    def test_corrupt_read_quarantines_and_rematerializes(
            self, tmp_path, clean_values):
        store = _warm_store(tmp_path)
        store.injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(site="store.read", kind="corrupt", at=0,
                      count=3, arg=64.0),)))
        batch = EstimationEngine(seed=42, store=store).execute(
            _requests())
        assert _values(batch) == clean_values
        assert store.counters["quarantined"] >= 1


class TestPoolWorkerCrash:
    def test_worker_death_reruns_in_parent_bit_identical(
            self, monkeypatch, clean_values):
        plan = FaultPlan(faults=(
            FaultSpec(site="pool.unit", kind="crash", at=0, count=1),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        engine = EstimationEngine(seed=42,
                                  executor=ProcessPoolPlanExecutor(2),
                                  injector=NULL_INJECTOR)
        batch = engine.execute(_requests(), deadline=300.0)
        assert _values(batch) == clean_values
        assert batch.stats["remote_worker_failures"] >= 1
        assert batch.stats["degraded_units"] >= 1
        assert batch.counts()["degraded"] >= 1
        assert batch.counts()["deadline_exceeded"] == 0


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLI_SPEC = {
    "seed": 7,
    "workloads": {"w": {"n": 3000, "d": 30, "k": 16}},
    "requests": [
        {"workload": "w", "algorithm": "null_suppression",
         "fraction": 0.02, "trials": 2},
        {"workload": "w", "algorithm": "rle", "fraction": 0.02,
         "trials": 2},
    ],
}


class TestCLIFlags:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CLI_SPEC), encoding="utf-8")
        return str(path)

    def test_zero_deadline_reports_typed_outcomes(self, capsys,
                                                  spec_path):
        code, out, _err = _run_cli(capsys, "estimate-batch", spec_path,
                                   "--deadline", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["deadline"] == 0.0
        assert payload["complete"] is False
        assert payload["outcome_counts"]["deadline_exceeded"] == \
            len(payload["outcomes"])
        for entry in payload["results"]:
            assert entry["deadline_exceeded"] is True
            assert entry["mean"] is None

    def test_ample_deadline_matches_unbounded_run(self, capsys,
                                                  spec_path):
        code, clean_out, _ = _run_cli(capsys, "estimate-batch",
                                      spec_path)
        assert code == 0
        code, bounded_out, _ = _run_cli(capsys, "estimate-batch",
                                        spec_path, "--deadline", "300",
                                        "--max-retries", "2")
        assert code == 0
        clean = json.loads(clean_out)
        bounded = json.loads(bounded_out)
        assert bounded["complete"] is True
        assert bounded["results"] == clean["results"]

    def test_chaos_env_plan_keeps_results_bit_identical(
            self, capsys, spec_path, monkeypatch, tmp_path):
        """The CI chaos-smoke contract, as a test: same JSON results."""
        store_dir = str(tmp_path / "store")
        code, clean_out, _ = _run_cli(capsys, "estimate-batch",
                                      spec_path, "--store-dir",
                                      store_dir)
        assert code == 0
        plan = FaultPlan(faults=(
            FaultSpec(site="store.read", kind="error", at=0, count=2),
            FaultSpec(site="store.read", kind="corrupt", at=3,
                      arg=80.0),
        ))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        code, chaos_out, _ = _run_cli(capsys, "estimate-batch",
                                      spec_path, "--store-dir",
                                      store_dir)
        assert code == 0
        assert json.loads(chaos_out)["results"] == \
            json.loads(clean_out)["results"]
