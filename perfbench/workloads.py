"""The benchmark's four workloads: set-up, one timed operation, checks.

Each workload drives the program only through its public entry points
(``EstimationEngine.execute``, a ``repro serve`` subprocess over HTTP,
``WhatIfAdvisor.advise``) on inputs generated from the workload seed,
and checks every output against a reference computed once, outside the
timed region.  An operation whose output differs from the reference, or
whose batch reports degraded or deadline-skipped units, counts as failed.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import pathlib
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any

import numpy as np

from repro.advisor import CostModel, Query, WhatIfAdvisor, advise_from_data
from repro.engine import EstimationEngine, EstimationRequest
from repro.engine.executors import ProcessPoolPlanExecutor
from repro.engine.units import plan_units
from repro.service import schemas
from repro.store import SampleStore
from repro.workloads import generators

from metrics import yardstick

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

CODECS = ("null_suppression", "dictionary", "global_dictionary", "rle",
          "prefix")
#: Codecs the re-run adds to the pre-filled grid: their units find the
#: samples on disk but must rebuild indexes and write estimates.
HELD_OUT = ("delta", "page")
KINDS = ("clustered", "nonclustered")

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def derive_seeds(seed: int, count: int = 8) -> list[int]:
    """Independent input seeds derived from the workload seed."""
    draws = np.random.default_rng(seed).integers(0, 2 ** 31 - 1,
                                                 size=count)
    return [int(value) for value in draws]


def fingerprint(results) -> list[tuple]:
    """Every estimate of a batch, with the fields that must not move."""
    return [tuple((e.estimate, e.sample_rows, e.algorithm, e.path,
                   e.uncompressed_sample_bytes, e.compressed_sample_bytes,
                   e.sample_distinct) for e in result.estimates)
            for result in results]


def nudged(value: float) -> float:
    """The next float above ``value``: a deliberately wrong reference."""
    return math.nextafter(value, math.inf)


def batch_failure(stats: dict, observed: Any, expected: Any) -> str | None:
    if observed != expected:
        return "wrong output"
    if stats.get("degraded_units") or stats.get("deadline_skipped_units"):
        return "degraded"
    return None


class Workload:
    """A single caller in a closed loop over :meth:`op`."""

    name = ""
    loop = "closed"
    callers = 1
    #: Whose peak RSS is the program's: this process, its children
    #: (the server), or both (the pool's parent plus its largest worker).
    rss_scope = "self"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seeds = derive_seeds(seed)
        self.master = self.seeds[2]
        self.workdir = workdir
        self.inputs: dict[str, Any] = {}
        self.reference: Any = None

    # -- hooks a workload fills in --------------------------------------
    def setup(self) -> None:
        """Build inputs, start servers, pre-fill, warm up (``setup_s``)."""
        raise NotImplementedError

    def make_reference(self) -> None:
        """Set ``reference`` and ``reference_output`` once, untimed."""
        raise NotImplementedError

    def op(self) -> Any:
        """One timed operation; returns its output."""
        raise NotImplementedError

    def check(self, output: Any, reference: Any) -> str | None:
        """``None`` when ``output`` matches ``reference``, else why not."""
        raise NotImplementedError

    def wrong_reference(self) -> Any:
        """A copy of ``reference`` with one number moved by one ulp."""
        raise NotImplementedError

    def units(self, output: Any) -> int:
        return int(output.stats["trials"])

    def extras(self, output: Any) -> dict[str, float]:
        return {}

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def close(self) -> None:
        """Stop whatever the workload started."""

    # -- driving --------------------------------------------------------
    def canary(self) -> None:
        """Prove the output check fires on a deliberately wrong reference."""
        if self.check(self.reference_output, self.wrong_reference()) is None:
            raise RuntimeError(f"{self.name}: the output check accepted a "
                               f"deliberately wrong reference")

    def run_op(self, clock=None, op=None) -> dict[str, Any]:
        self.prepare()
        op = op or self.op
        record: dict[str, Any] = {}
        try:
            if clock is None:
                start = time.perf_counter()
                output = op()
                record["wall"] = time.perf_counter() - start
            else:
                with clock.op() as traced:
                    output = op()
                record.update(traced)
        except Exception as exc:  # an operation that raises has failed
            record.setdefault("wall", math.nan)
            record.update(units=0, failure=f"{type(exc).__name__}: {exc}")
            return record
        record["units"] = self.units(output)
        record["failure"] = self.check(output, self.reference)
        record["extras"] = self.extras(output)
        return record

    def measure(self, seconds: float) -> list[dict[str, Any]]:
        """Operations, each with the mean of the yardsticks around it."""
        ops = []
        deadline = time.perf_counter() + seconds
        before = yardstick()
        while time.perf_counter() < deadline:
            op = self.run_op()
            after = yardstick()
            op["yardstick"] = (before + after) / 2
            before = after
            ops.append(op)
        return ops

    def traced_ops(self) -> tuple:
        """``(group, operation)`` pairs each traced cycle runs."""
        return (("traced", self.op),)

    def measure_traced(self, seconds: float, clock) -> dict[str, list]:
        """An untraced operation, then the traced ones, in cycles."""
        groups: dict[str, list] = {"untraced": []}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(groups) == 1:
            groups["untraced"].append(self.run_op())
            clock.enabled = True
            try:
                for group, op in self.traced_ops():
                    groups.setdefault(group, []).append(
                        self.run_op(clock, op))
            finally:
                clock.enabled = False
        return groups


# ----------------------------------------------------------------------
# batch-cold and rerun-pool: Figure 2 over two stored tables
# ----------------------------------------------------------------------
class BatchCold(Workload):
    name = "batch-cold"
    rows = 20_000

    def build_tables(self) -> dict:
        specs = (("customer_names", self.seeds[0]),
                 ("product_skus", self.seeds[1]))
        return {name: schemas.build_batch_workload(
                    name, {"scenario": name, "rows": self.rows,
                           "storage": True, "seed": seed})["table"]
                for name, seed in specs}

    @staticmethod
    def grid(tables: dict, codecs: tuple[str, ...]) -> list:
        return [EstimationRequest(
                    table=table, columns=("a",), algorithm=codec,
                    fraction=0.1, trials=3,
                    kind=schemas.BATCH_KINDS[kind],
                    page_size=table.page_size, label=name)
                for name, table in tables.items()
                for codec in codecs for kind in KINDS]

    def setup(self) -> None:
        self.tables = self.build_tables()
        self.requests = self.grid(self.tables, CODECS)
        self.warm_engine = EstimationEngine(seed=self.master)
        self.warm = self.warm_engine.execute(self.requests)

    def make_reference(self) -> None:
        self.reference_output = self.warm
        self.reference = fingerprint(self.warm.results)
        self.inputs = {"rows": sum(t.num_rows for t in self.tables.values()),
                       "sample_bytes": self.warm_engine.cache.nbytes,
                       "requests": len(self.requests),
                       "units_per_op": self.warm.stats["trials"]}

    def op(self) -> Any:
        return EstimationEngine(seed=self.master).execute(self.requests)

    def check(self, output: Any, reference: Any) -> str | None:
        return batch_failure(output.stats, fingerprint(output.results),
                             reference)

    def wrong_reference(self) -> Any:
        wrong = [list(result) for result in self.reference]
        first = list(wrong[0][0])
        first[0] = nudged(first[0])
        wrong[0][0] = tuple(first)
        return [tuple(result) for result in wrong]


class RerunPool(BatchCold):
    name = "rerun-pool"
    rss_scope = "self+children"

    def setup(self) -> None:
        self.tables = self.build_tables()
        self.requests = self.grid(self.tables, CODECS + HELD_OUT)
        self.store_dir = self.workdir / f"store-{time.perf_counter_ns()}"
        EstimationEngine(seed=self.master, store=str(self.store_dir)) \
            .execute(self.grid(self.tables, CODECS))
        self.snapshot = self.store_files()
        self.op()
        self.prepare()

    def store_files(self) -> set[pathlib.Path]:
        return {path for path in self.store_dir.rglob("*")
                if path.is_file()}

    def prepare(self) -> None:
        """Restore the store to its pre-filled state."""
        for path in self.store_files() - self.snapshot:
            path.unlink()

    def make_reference(self) -> None:
        serial = EstimationEngine(seed=self.master)
        batch = serial.execute(self.requests)
        self.reference_output = batch
        self.reference = fingerprint(batch.results)
        units = plan_units(serial.plan(self.requests))
        self.ship_bytes = len(pickle.dumps(units,
                                           protocol=pickle.HIGHEST_PROTOCOL))
        self.inputs = {"rows": sum(t.num_rows for t in self.tables.values()),
                       "sample_bytes": serial.cache.nbytes,
                       "requests": len(self.requests),
                       "units_per_op": batch.stats["trials"],
                       "prefilled_store_entries":
                           SampleStore(self.store_dir).stats()[
                               "total_entries"]}

    def op(self) -> Any:
        engine = EstimationEngine(
            seed=self.master, store=str(self.store_dir),
            executor=ProcessPoolPlanExecutor(max_workers=2))
        return engine.execute(self.requests)

    def replay(self) -> Any:
        """The same batch on the serial executor, for worker-side layers."""
        engine = EstimationEngine(seed=self.master,
                                  store=str(self.store_dir))
        return engine.execute(self.requests)

    def extras(self, output: Any) -> dict[str, float]:
        return {name: output.stats[name]
                for name in ("indexes_built", "sample_store_hits")}

    def traced_ops(self) -> tuple:
        return (("traced", self.op), ("replay", self.replay))


# ----------------------------------------------------------------------
# advise: the lazy what-if advisor, the paper's application
# ----------------------------------------------------------------------
PAGE = 4096


class Advise(Workload):
    name = "advise"

    def setup(self) -> None:
        columns = {
            "orders": (9_000, [("status", 10, 6), ("customer", 24, 500),
                               ("region", 12, 20)]),
            "parts": (6_000, [("sku", 24, 400), ("brand", 16, 30)]),
            "events": (4_800, [("kind", 8, 12), ("source", 20, 150)]),
        }
        self.tables = {
            name: generators.make_multicolumn_table(
                name, rows, specs, page_size=PAGE, seed=seed)
            for (name, (rows, specs)), seed in zip(columns.items(),
                                                   self.seeds[5:])}
        self.queries = [
            Query("q_status", "orders", ("status",), selectivity=0.15,
                  weight=10),
            Query("q_customer", "orders", ("customer",), selectivity=0.03,
                  weight=6),
            Query("q_region", "orders", ("region",), selectivity=0.2,
                  weight=4),
            Query("q_cust_reg", "orders", ("customer", "region"),
                  selectivity=0.02, weight=3),
            Query("q_sku", "parts", ("sku",), selectivity=0.05, weight=5),
            Query("q_brand", "parts", ("brand",), selectivity=0.25,
                  weight=3),
            Query("q_kind", "events", ("kind",), selectivity=0.3,
                  weight=4),
            Query("q_source", "events", ("source",), selectivity=0.04,
                  weight=2),
        ]
        footprint = sum(
            table.num_rows * (sum(column.dtype.fixed_size
                                  for column in table.schema.columns) + 8)
            for table in self.tables.values())
        self.bound = 0.2 * footprint
        self.warm = self.op()

    def op(self) -> Any:
        advisor = WhatIfAdvisor(
            self.tables, self.queries, algorithms=CODECS, fraction=0.1,
            max_trials=6, model=CostModel(PAGE), seed=self.master)
        return advisor.advise(self.bound), advisor

    @staticmethod
    def design(result) -> tuple:
        return (result.chosen, result.steps, result.bytes_used,
                result.cost_after)

    def make_reference(self) -> None:
        eager = advise_from_data(
            self.tables, self.queries, self.bound, algorithms=CODECS,
            fraction=0.1, trials=6, model=CostModel(PAGE),
            engine=EstimationEngine(seed=self.master))
        self.reference = self.design(eager)
        self.reference_output = self.warm
        result, advisor = self.warm
        self.inputs = {"rows": sum(t.num_rows for t in self.tables.values()),
                       "sample_bytes": advisor.engine.cache.nbytes,
                       "queries": len(self.queries),
                       "units_per_op": result.report.units_executed}

    def check(self, output: Any, reference: Any) -> str | None:
        result, advisor = output
        return batch_failure(advisor.engine.stats.snapshot(),
                             self.design(result), reference)

    def wrong_reference(self) -> Any:
        chosen, steps, bytes_used, cost_after = self.reference
        return chosen, steps, nudged(bytes_used), cost_after

    def units(self, output: Any) -> int:
        return int(output[0].report.units_executed)

    def extras(self, output: Any) -> dict[str, float]:
        report = output[0].report
        return {"rounds": report.rounds,
                "unit_savings": report.savings_fraction}


# ----------------------------------------------------------------------
# service-mixed: two keep-alive clients against `repro serve`
# ----------------------------------------------------------------------
READY_PREFIX = "repro-service-ready "


class Server:
    """A ``repro serve`` subprocess, stopped with SIGINT and waited for."""

    def __init__(self, argv: list[str]) -> None:
        env = dict(os.environ)
        src = str(BENCH_DIR.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     text=True, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line[len(READY_PREFIX):].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def post(conn: http.client.HTTPConnection, body: bytes,
         ) -> tuple[int, bytes]:
    conn.request("POST", "/estimate-batch", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


class ServiceMixed(Workload):
    name = "service-mixed"
    callers = 2
    rss_scope = "children"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        self.server: Server | None = None
        self.hot_seed = self.seeds[3]
        self.fresh_base = self.seeds[4]
        self.ref_workloads = schemas.WorkloadCache()
        self.references: dict[int, Any] = {}

    def spec(self, seed: int) -> dict:
        workloads = {
            "customer_names": {"scenario": "customer_names",
                               "rows": 20_000, "seed": self.seeds[0]},
            "status_codes": {"scenario": "status_codes", "rows": 50_000,
                             "seed": self.seeds[5]},
            "product_skus": {"scenario": "product_skus", "rows": 20_000,
                             "storage": True, "seed": self.seeds[1]},
        }
        requests = [
            {"workload": "customer_names", "algorithm": "null_suppression",
             "fraction": 0.05, "trials": 2},
            {"workload": "status_codes", "algorithm": "dictionary",
             "fraction": 0.02, "trials": 2},
            {"workload": "product_skus", "algorithm": "prefix",
             "fraction": 0.05, "trials": 2},
            {"workload": "product_skus", "algorithm": "null_suppression",
             "fraction": 0.05, "trials": 2},
        ]
        return {"seed": seed, "workloads": workloads, "requests": requests}

    def seed_for(self, client: int, position: int) -> int:
        """Three of four specs reuse the hot seed; the fourth is fresh."""
        if position % 4 != 3:
            return self.hot_seed
        return self.fresh_base + 1 + client * 1_000_000 + position

    # -- server lifecycle -----------------------------------------------
    def setup(self, traced_spans: pathlib.Path | None = None) -> None:
        """Boot a server (one with the timing shims when ``traced_spans``
        names where to write its spans) and warm it up."""
        self.close()
        serve = ["serve", "--port", "0"]
        if traced_spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                    str(traced_spans), *serve]
        self.server = Server(argv)
        conn = self.connect()
        try:
            # Warm-up: builds the shared workloads and the hot samples;
            # the fresh seed below is never used inside the window.
            for seed in (self.hot_seed, self.fresh_base):
                status, _ = post(conn, json.dumps(self.spec(seed)).encode())
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {status}")
        finally:
            conn.close()

    def connect(self) -> http.client.HTTPConnection:
        assert self.server is not None
        return http.client.HTTPConnection(self.server.host,
                                          self.server.port, timeout=60)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- the timed window -----------------------------------------------
    def window(self, seconds: float, tag: bool = False) -> list[dict]:
        records: list[dict] = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client(number: int) -> None:
            conn = self.connect()
            position = 0
            try:
                while time.perf_counter() < deadline:
                    seed = self.seed_for(number, position)
                    spec = self.spec(seed)
                    bench_id = f"{number}-{position}"
                    if tag:
                        spec["bench_id"] = bench_id
                    body = json.dumps(spec).encode()
                    record: dict[str, Any] = {"seed": seed, "id": bench_id}
                    start = time.perf_counter()
                    try:
                        status, data = post(conn, body)
                    except (OSError, http.client.HTTPException) as exc:
                        record.update(wall=time.perf_counter() - start,
                                      status=None,
                                      failure=f"{type(exc).__name__}")
                        conn.close()
                        conn = self.connect()
                    else:
                        record.update(wall=time.perf_counter() - start,
                                      status=status, body=data)
                    position += 1
                    with lock:
                        records.append(record)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(number,))
                   for number in range(self.callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        return records

    def measure(self, seconds: float) -> list[dict[str, Any]]:
        records = self.window(seconds)
        self.close()
        return self.finish(records)

    def finish(self, records: list[dict]) -> list[dict[str, Any]]:
        """Check every response after the window; returns op records."""
        for record in records:
            record.setdefault("units", 0)
            if record.get("failure"):
                continue
            if record["status"] != 200:
                record["failure"] = f"HTTP {record['status']}"
                continue
            payload = json.loads(record.pop("body"))
            record["units"] = payload["trial_units"]
            record["failure"] = self.check(
                payload, self.reference_for(record["seed"]))
        return records

    def check(self, output: Any, reference: Any) -> str | None:
        return batch_failure(output["stats"], output["results"], reference)

    def reference_for(self, seed: int) -> Any:
        """The in-process serial ``estimate-batch`` path at ``seed``."""
        if seed not in self.references:
            requests, spec_seed = schemas.build_batch(
                self.spec(seed), workload_builder=self.ref_workloads)
            engine = EstimationEngine(seed=spec_seed)
            batch = engine.execute(requests)
            entries = [schemas.request_result_entry(request, result)
                       for request, result in zip(requests, batch.results)]
            self.references[seed] = json.loads(json.dumps(entries))
            self.last_engine = engine
        return self.references[seed]

    def make_reference(self) -> None:
        self.reference = self.reference_for(self.hot_seed)
        self.reference_output = {"stats": {}, "results": self.reference}
        rows = sum(spec.get("rows", 0) for spec
                   in self.spec(0)["workloads"].values())
        self.inputs = {"rows": rows,
                       "sample_bytes": self.last_engine.cache.nbytes,
                       "requests_per_spec": 4,
                       "units_per_op": self.last_engine.stats["trials"]}

    def wrong_reference(self) -> Any:
        wrong = json.loads(json.dumps(self.reference))
        wrong[0]["estimates"][0] = nudged(wrong[0]["estimates"][0])
        return wrong

    def measure_traced(self, seconds: float, clock) -> dict[str, list]:
        """An untraced server, then one running the timing shims."""
        untraced = self.finish(self.window(seconds / 2))
        spans = self.workdir / "server-spans.json"
        self.setup(traced_spans=spans)
        records = self.window(seconds / 2, tag=True)
        self.close()
        traced = self.finish(records)
        server = json.loads(spans.read_text(encoding="utf-8"))
        traced = attribute_requests(traced, server)
        joined = {op["round"] for op in traced if "round" in op}
        return {"untraced": untraced, "traced": traced,
                "rounds": [server["rounds"][key] for key in joined]}


def attribute_requests(records: list[dict], server: dict) -> list[dict]:
    """Split each client latency over the layers the server timed.

    A request's latency is its transport (client latency minus the
    handler's ``run_batch``) plus the handler's own breakdown.  The
    engine batch that served the request ran on the round leader's
    thread, so its breakdown is charged in full to every request of the
    round, and the rest of ``MicroBatcher.submit`` is the window wait.
    """
    handled = {entry["id"]: entry for entry in server["requests"]}
    rounds = server["rounds"]
    for record in records:
        entry = handled.get(record["id"])
        if entry is None or record.get("failure"):
            record["times"] = {"service.transport": record["wall"]}
            continue
        served = rounds[entry["round"]]
        times = dict(entry["times"])
        if entry["leader"]:
            for layer, seconds in served["times"].items():
                times[layer] -= seconds
        wait = times.pop("batcher.submit", 0.0)
        if not entry["leader"]:
            wait -= served["wall"]
        times["batcher.window_wait"] = wait
        for layer, seconds in served["times"].items():
            times[layer] = times.get(layer, 0.0) + seconds
        times["service.transport"] = record["wall"] - entry["wall"]
        record["times"] = times
        record["counts"] = served["counts"]
        record["round"] = entry["round"]
        record["handler"] = entry["wall"]
        record["execute"] = served["wall"]
        record["window_wait"] = wait
        record["coalesced"] = entry["coalesced_with"] > 0
    return records


WORKLOADS = {cls.name: cls for cls in (BatchCold, ServiceMixed, RerunPool,
                                       Advise)}
