"""``repro.obs``: spans, metrics, reports, and the tracing contract.

The subsystem's three promises, each locked here:

* **structure** — spans nest by thread, cross process-pool and remote
  boundaries via shipped :class:`~repro.obs.SpanContext` objects, and
  re-parent correctly when adopted back;
* **neutrality** — estimates are bit-identical with tracing on or off
  (the executor matrix lives in the determinism property suite; the
  CLI acceptance scenario lives here);
* **accounting** — ``trace summarize`` explains the run: per-phase
  self-times cover >= 90% of wall-clock and every executed unit
  appears exactly once, even when a worker dies mid-shard.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro.cli import main
from repro.engine import (EngineStats, EstimationEngine,
                          EstimationRequest, ProcessPoolPlanExecutor,
                          RemotePlanExecutor, SampleCache,
                          SerialExecutor)
from repro.engine.remote import start_worker_thread
from repro.obs import (NULL_TRACER, MetricsRegistry, SpanContext,
                       Tracer, absorb_engine_stats, one_line,
                       read_trace, render, summarize)
from repro.storage.index import IndexKind
from repro.workloads.generators import make_histogram, make_table


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spans_of(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("type") == "span"]


class TestTracerSpans:
    def test_nesting_parents_by_thread(self):
        stream = io.StringIO()
        tracer = Tracer.to_stream(stream)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        with tracer.span("sibling") as sibling:
            assert sibling.parent_id is None
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert records[0]["type"] == "meta"
        by_name = {r["name"]: r for r in spans_of(records)}
        # Children finish (and record) before their parents.
        assert [r["name"] for r in spans_of(records)] == [
            "inner", "outer", "sibling"]
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["dur"] <= by_name["outer"]["dur"]

    def test_annotate_and_events(self):
        stream = io.StringIO()
        tracer = Tracer.to_stream(stream)
        with tracer.span("work", kind="demo") as span:
            span.annotate(rows=42)
            tracer.event("milestone", step=1)
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        event = next(r for r in records if r["type"] == "event")
        span_record = next(r for r in records if r["type"] == "span")
        assert span_record["attrs"] == {"kind": "demo", "rows": 42}
        assert event["parent"] == span_record["id"]
        assert event["attrs"] == {"step": 1}

    def test_out_of_order_exit_does_not_corrupt_peers(self):
        stream = io.StringIO()
        tracer = Tracer.to_stream(stream)
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__exit__(None, None, None)  # leaked child, parent exits
        with tracer.span("next") as after:
            assert after.parent_id is None
        inner.__exit__(None, None, None)

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer.to_path(path)
        with tracer.span("a"):
            pass
        tracer.close()
        records = read_trace(path)
        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == 1
        assert meta["wall_start"] > 0
        assert records[-1]["type"] == "metrics"
        assert any(r["name"] == "a" for r in spans_of(records))

    def test_close_emits_span_histograms(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer.to_path(path)
        with tracer.span("phase"):
            pass
        tracer.close()
        final = read_trace(path)[-1]
        assert final["type"] == "metrics"
        assert "span.phase.seconds" in final["histograms"]
        assert final["histograms"]["span.phase.seconds"]["count"] == 1

    def test_null_tracer_is_allocation_free(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", big=object())
        assert NULL_TRACER.span("other") is span  # one shared object
        with span:
            span.annotate(ignored=True)
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.current_context() is None


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("reads").inc()
        registry.counter("reads").inc(4)
        registry.gauge("depth").set(7.5)
        registry.histogram("lat").observe(0.002)
        registry.histogram("lat").observe(0.004)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["reads"] == 5
        assert snapshot["gauges"]["depth"] == 7.5
        assert snapshot["histograms"]["lat"]["count"] == 2
        assert snapshot["histograms"]["lat"]["sum"] == \
            pytest.approx(0.006)

    def test_absorb_engine_stats_is_a_projection(self):
        stats = EngineStats(cache=SampleCache(capacity=9))
        stats.add("trials", 3)
        registry = MetricsRegistry()
        absorb_engine_stats(registry, stats)
        absorb_engine_stats(registry, stats)  # snapshot, not a sum
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.trials"] == 3
        assert snapshot["gauges"][
            "engine.gauges.sample_cache_capacity"] == 9


class TestCollectorReparenting:
    def test_span_context_survives_pickle(self):
        context = SpanContext(trace_id="t1", span_id="main.3")
        assert pickle.loads(pickle.dumps(context)) == context

    def test_collector_roots_under_shipped_context(self):
        context = SpanContext(trace_id="t9", span_id="main.7")
        collector = Tracer.collector(context)
        assert collector.trace_id == "t9"
        with collector.span("worker.op"):
            pass
        records = collector.drain()
        assert records[0]["parent"] == "main.7"
        assert collector.drain() == []  # drain empties the buffer

    def test_two_collectors_never_collide(self):
        context = SpanContext(trace_id="t9", span_id="main.7")
        first, second = (Tracer.collector(context) for _ in range(2))
        with first.span("op"):
            pass
        with second.span("op"):
            pass
        ids = {first.drain()[0]["id"], second.drain()[0]["id"]}
        assert len(ids) == 2

    def test_adopt_rebases_to_local_clock(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer.to_path(path)
        # A foreign clock far in this tracer's future.
        foreign = [
            {"type": "span", "id": "w.1", "parent": "main.1",
             "name": "op", "proc": "w", "t": 1e6, "dur": 0.25},
            {"type": "span", "id": "w.2", "parent": "w.1",
             "name": "sub", "proc": "w", "t": 1e6 + 0.1, "dur": 0.05},
        ]
        tracer.adopt(foreign, align_end=2.0)
        tracer.close()
        adopted = {r["id"]: r for r in spans_of(read_trace(path))}
        assert all(r["adopted"] for r in adopted.values())
        # The batch's latest end lands exactly at align_end; relative
        # offsets within the batch are preserved.
        assert adopted["w.1"]["t"] + 0.25 == pytest.approx(2.0)
        assert adopted["w.2"]["t"] - adopted["w.1"]["t"] == \
            pytest.approx(0.1)


def _batch_requests() -> list[EstimationRequest]:
    histogram = make_histogram(8000, 60, 16, seed=3)
    return [EstimationRequest(histogram=histogram,
                              algorithm=algorithm, fraction=0.05,
                              trials=2, label=f"w:{algorithm}")
            for algorithm in ("null_suppression", "rle")]


def _traced_batch(tmp_path, executor):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer.to_path(path)
    engine = EstimationEngine(seed=5, executor=executor, tracer=tracer)
    batch = engine.execute(_batch_requests())
    tracer.close()
    return batch, read_trace(path)


class TestSummarize:
    def test_serial_run_accounts_for_wall_clock(self, tmp_path):
        _, records = _traced_batch(tmp_path, SerialExecutor())
        summary = summarize(records)
        assert summary["units"]["exactly_once"]
        assert summary["units"]["executed"] == 4
        assert summary["units"]["expected"] == 4
        assert summary["coverage"] >= 0.9
        assert {"engine.execute", "unit.run",
                "sample.materialize"} <= set(summary["phases"])
        # Self-times partition each root span: their sum cannot exceed
        # the wall envelope.
        assert summary["self_seconds"] <= summary["wall_seconds"] * 1.001

    def test_one_index_build_span_per_build(self, tmp_path):
        """Builds, never reuses, are traced as ``index.build`` phases."""
        table = make_table(3000, 40, 12, page_size=1024, seed=4)
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=algorithm, fraction=0.05,
                                      trials=2, kind=kind, page_size=1024)
                    for algorithm in ("null_suppression", "dictionary")
                    for kind in IndexKind]
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(path)
        batch = EstimationEngine(seed=5, tracer=tracer).execute(requests)
        tracer.close()
        records = read_trace(path)
        builds = [span for span in spans_of(records)
                  if span["name"] == "index.build"]
        assert batch.stats["index_reuse_hits"] > 0
        assert len(builds) == batch.stats["indexes_built"] == 4
        for span in builds:
            assert min(span["attrs"][name]
                       for name in ("rows", "leaves", "bytes")) > 0
        assert "index.build" in summarize(records)["phases"]

    def test_units_keyed_per_batch_across_a_multi_batch_trace(
            self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer.to_path(path)
        engine = EstimationEngine(seed=5, tracer=tracer)
        engine.execute(_batch_requests())
        engine.execute(_batch_requests())  # unit indexes restart at 0
        tracer.close()
        summary = summarize(read_trace(path))
        assert summary["units"]["executed"] == 8
        assert summary["units"]["expected"] == 8
        assert summary["units"]["exactly_once"]

    def test_process_pool_spans_adopted_and_accounted(self, tmp_path):
        _, records = _traced_batch(tmp_path,
                                   ProcessPoolPlanExecutor(2))
        assert any(r.get("adopted") for r in records)
        summary = summarize(records)
        assert summary["units"]["exactly_once"]
        assert summary["units"]["executed"] == 4
        assert summary["coverage"] >= 0.9  # pool.run covers the wait

    def test_pool_batch_names_its_fork_and_reap(self, tmp_path):
        _, records = _traced_batch(tmp_path, ProcessPoolPlanExecutor(2))
        spans = spans_of(records)
        (execute,) = [s for s in spans if s["name"] == "engine.execute"]
        for name in ("pool.fork", "pool.reap"):
            (span,) = [s for s in spans if s["name"] == name]
            assert span["parent"] == execute["id"]
            assert span["attrs"]["workers"] == 2
        phases = summarize(records)["phases"]
        assert {"pool.fork", "pool.reap"} <= set(phases)

    def test_one_root_reads_self_time_over_wall(self, tmp_path):
        _, records = _traced_batch(tmp_path, SerialExecutor())
        summary = summarize(records)
        wall = summary["wall_seconds"]
        assert summary["coverage"] == pytest.approx(
            summary["self_seconds"] / wall)
        for entry in summary["phases"].values():
            assert entry["share"] == pytest.approx(entry["self"] / wall)

    def test_overlapping_roots_cover_wall_at_most_once(self):
        """Four concurrent service requests, each mostly spent in its
        window: their roots overlap, so summed self time is about three
        times the wall-clock."""
        records = [{"type": "meta", "proc": "main"}]
        for client in range(4):
            start = client * 0.001
            records += [
                {"type": "span", "name": "service.request",
                 "id": f"r{client}", "parent": None, "t": start,
                 "dur": 0.010, "proc": "main"},
                {"type": "span", "name": "batch.window",
                 "id": f"w{client}", "parent": f"r{client}",
                 "t": start, "dur": 0.006, "proc": "main"}]
        summary = summarize(records)
        assert summary["wall_seconds"] == pytest.approx(0.013)
        assert summary["self_seconds"] == pytest.approx(0.040)
        assert summary["coverage"] == pytest.approx(1.0)
        assert summary["coverage"] <= 1.0
        phases = summary["phases"]
        assert phases["batch.window"]["share"] == pytest.approx(0.6)
        assert sum(entry["share"] for entry in phases.values()) \
            == pytest.approx(1.0)
        text = render(summary)
        assert "self-time coverage 100.0%" in text
        assert any(line.startswith("batch.window ")
                   and line.endswith(" 60.0%")
                   for line in text.splitlines())

    def test_concurrent_children_subtract_from_their_parent_once(self):
        """Two workers' ``chunk.run`` spans run at once:
        ``shard.dispatch`` loses the time they cover together, once, so
        no self time or share goes negative."""
        records = [{"type": "meta", "proc": "main"}]
        for name, ident, parent, start, end in (
                ("engine.execute", "e", None, 0.000, 0.030),
                ("pool.fork", "f", "e", 0.000, 0.002),
                ("shard.dispatch", "d", "e", 0.002, 0.022),
                ("chunk.run", "c1", "d", 0.003, 0.020),
                ("chunk.run", "c2", "d", 0.004, 0.021)):
            records.append({"type": "span", "name": name, "id": ident,
                            "parent": parent, "t": start,
                            "dur": end - start, "proc": "main"})
        summary = summarize(records)
        phases = summary["phases"]
        assert phases["shard.dispatch"]["self"] == pytest.approx(0.002)
        assert phases["engine.execute"]["self"] == pytest.approx(0.008)
        assert phases["chunk.run"]["self"] == pytest.approx(0.034)
        assert all(entry["self"] >= 0 and entry["share"] >= 0
                   for entry in phases.values())
        assert summary["coverage"] == pytest.approx(1.0)
        assert summary["coverage"] <= 1.0

    def test_render_and_one_line(self, tmp_path):
        _, records = _traced_batch(tmp_path, SerialExecutor())
        summary = summarize(records)
        text = render(summary)
        assert "Per-phase breakdown" in text
        assert "exactly once" in text
        assert "Slowest units" in text
        line = one_line(summary)
        assert line.startswith("trace: wall ")
        assert "exactly-once" in line


class TestRemoteTracing:
    def test_chunk_spans_carry_worker_attribution(self, tmp_path):
        started = [start_worker_thread() for _ in range(2)]
        try:
            executor = RemotePlanExecutor(
                workers=[address for address, _ in started],
                chunk_units=1)
            _, records = _traced_batch(tmp_path, executor)
        finally:
            for _, shutdown in started:
                shutdown()
        summary = summarize(records)
        assert summary["units"]["exactly_once"]
        assert summary["workers"]  # per-worker busy table populated
        assert sum(entry["units"]
                   for entry in summary["workers"].values()) == 4

    def test_worker_killed_mid_shard_every_unit_exactly_once(
            self, tmp_path):
        """The trace stays honest through retries: a dying worker's
        units are re-run elsewhere, yet each appears exactly once —
        failed chunks return no result frame, so no span ever came
        home for the lost attempts."""
        dying, kill_dying = start_worker_thread(fail_after_units=1)
        survivor, stop_survivor = start_worker_thread()
        try:
            executor = RemotePlanExecutor(workers=[dying, survivor],
                                          chunk_units=1)
            batch, records = _traced_batch(tmp_path, executor)
        finally:
            kill_dying()
            stop_survivor()
        assert batch.stats["remote_worker_failures"] >= 1
        summary = summarize(records)
        assert summary["units"]["exactly_once"], summary["units"]
        assert summary["units"]["executed"] == 4
        assert summary["events"].get("worker.failed", 0) >= 1
        # And the numbers still match an untraced serial run.
        serial = EstimationEngine(seed=5).execute(_batch_requests())
        assert [r.values.tolist() for r in batch.results] == \
            [r.values.tolist() for r in serial.results]


ADVISE_SPEC = {
    "tables": {
        "orders": {"n": 1200,
                   "columns": [["status", 10, 5],
                               ["customer", 24, 150]],
                   "page_size": 1024, "seed": 5},
        "parts": {"n": 700, "d": 60, "k": 20, "seed": 6,
                  "page_size": 1024},
    },
    "queries": [
        {"name": "q_status", "table": "orders", "columns": ["status"],
         "selectivity": 0.2, "weight": 10},
        {"name": "q_customer", "table": "orders",
         "columns": ["customer"], "selectivity": 0.05, "weight": 5},
        {"name": "q_a", "table": "parts", "columns": ["a"],
         "selectivity": 0.1, "weight": 2},
    ],
    "storage_bound_bytes": 60_000,
    "algorithms": ["null_suppression", "dictionary"],
    "fraction": 0.1,
    "trials": 2,
    "seed": 11,
}


class TestCLIAcceptance:
    """The issue's acceptance scenario, end to end through the CLI."""

    @pytest.fixture
    def advise_path(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(ADVISE_SPEC), encoding="utf-8")
        return str(path)

    def test_traced_advise_bit_identical_and_accounted(
            self, capsys, tmp_path, advise_path):
        trace_path = str(tmp_path / "t.jsonl")
        code, traced_out, err = run_cli(
            capsys, "advise", advise_path, "--what-if",
            "--executor", "process", "--trace", trace_path)
        assert code == 0
        assert err.startswith("trace: wall ")
        code, untraced_out, err = run_cli(
            capsys, "advise", advise_path, "--what-if",
            "--executor", "process")
        assert code == 0
        assert err == ""
        # Bit-identical: the JSON payloads match byte for byte.
        assert traced_out == untraced_out

        summary = summarize(read_trace(trace_path))
        assert summary["coverage"] >= 0.9
        assert summary["units"]["exactly_once"], summary["units"]
        assert summary["units"]["executed"] == \
            summary["units"]["expected"]

    def test_trace_summarize_command(self, capsys, tmp_path,
                                     advise_path):
        trace_path = str(tmp_path / "t.jsonl")
        code, _, _ = run_cli(capsys, "advise", advise_path,
                             "--what-if", "--trace", trace_path)
        assert code == 0
        code, out, _ = run_cli(capsys, "trace", "summarize",
                               trace_path, "--top", "3")
        assert code == 0
        assert "Per-phase breakdown" in out
        assert "whatif.advise" in out
        code, out, _ = run_cli(capsys, "trace", "summarize",
                               trace_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["units"]["exactly_once"]
        assert len(payload["slowest_units"]) <= 10

    def test_trace_summarize_rejects_missing_file(self, capsys,
                                                  tmp_path):
        code, _, err = run_cli(capsys, "trace", "summarize",
                               str(tmp_path / "absent.jsonl"))
        assert code == 1
        assert "cannot read trace" in err

    def test_traced_estimate_batch_stderr_one_liner(self, capsys,
                                                    tmp_path):
        spec = {"seed": 7,
                "workloads": {"w": {"n": 4000, "d": 40, "k": 12}},
                "requests": [{"workload": "w", "fraction": 0.05,
                              "trials": 2}]}
        spec_path = tmp_path / "batch.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        trace_path = str(tmp_path / "t.jsonl")
        code, out, err = run_cli(capsys, "estimate-batch",
                                 str(spec_path), "--trace", trace_path)
        assert code == 0
        assert "exactly-once" in err
        payload = json.loads(out)
        # The payload shape is unchanged by tracing.
        assert set(payload) == {"seed", "executor", "store_dir",
                                "plan", "results", "stats"}
