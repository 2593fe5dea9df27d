"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BATCH_SPEC = {
    "seed": 7,
    "workloads": {
        "names": {"scenario": "status_codes", "rows": 4000},
        "ids": {"n": 3000, "d": 30, "k": 20, "storage": True,
                "page_size": 1024},
    },
    "requests": [
        {"workload": "names", "algorithm": "null_suppression",
         "fraction": 0.02, "trials": 3},
        {"workload": "names", "algorithm": "rle", "fraction": 0.02},
        {"workload": "ids", "algorithm": "null_suppression",
         "fraction": 0.05, "trials": 2},
        {"workload": "ids", "algorithm": "rle", "fraction": 0.05,
         "trials": 2},
    ],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BATCH_SPEC), encoding="utf-8")
    return str(path)


class TestListings:
    def test_algorithms(self, capsys):
        code, out, _ = run_cli(capsys, "algorithms")
        assert code == 0
        assert "null_suppression" in out
        assert "global_dictionary" in out
        assert "index" in out and "page" in out

    def test_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        assert "customer_names" in out
        assert "char(40)" in out

    def test_experiments(self, capsys):
        code, out, _ = run_cli(capsys, "experiments")
        assert code == 0
        assert "Theorem 1" in out
        assert "bench_table2_summary.py" in out


class TestEstimate:
    def test_explicit_workload(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "10000", "--d", "100", "--k",
            "20", "--fraction", "0.05", "--seed", "1")
        assert code == 0
        assert "CF' =" in out
        assert "n=10,000" in out

    def test_scenario_workload(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--scenario", "status_codes", "--rows",
            "5000", "--fraction", "0.1", "--seed", "2")
        assert code == 0
        assert "status_codes" in out

    def test_with_truth_and_trials(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "20000", "--d", "50", "--k",
            "20", "--fraction", "0.05", "--trials", "10", "--truth",
            "--seed", "3")
        assert code == 0
        assert "mean CF'" in out
        assert "ratio err" in out
        assert "bias" in out

    def test_adaptive_trials(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "20000", "--d", "50", "--k", "16",
            "--trials", "8", "--adaptive", "--tolerance", "0.5")
        assert code == 0
        assert "converged" in out
        assert "stages 1/1" in out

    def test_adaptive_needs_a_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--n", "10000", "--d", "10", "--k", "8",
            "--adaptive")
        assert code == 1
        assert "--trials" in err

    def test_algorithm_choice(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "10000", "--d", "10", "--k",
            "20", "--algorithm", "rle", "--fraction", "0.1", "--seed",
            "4")
        assert code == 0
        assert "rle" in out

    def test_missing_d_k_is_an_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "estimate", "--n", "1000", "--fraction", "0.1")
        assert code == 1
        assert "error" in err

    def test_reproducible(self, capsys):
        _, first, _ = run_cli(
            capsys, "estimate", "--n", "10000", "--d", "100", "--k",
            "20", "--seed", "9")
        _, second, _ = run_cli(
            capsys, "estimate", "--n", "10000", "--d", "100", "--k",
            "20", "--seed", "9")
        assert first == second

    TRIALS_RUN = ("estimate", "--n", "20000", "--d", "50", "--k", "20",
                  "--fraction", "0.05", "--seed", "3")

    @staticmethod
    def engine_values(trials):
        from repro.engine import EstimationEngine, EstimationRequest
        from repro.workloads.generators import make_histogram

        request = EstimationRequest(
            histogram=make_histogram(20000, 50, 20, seed=3),
            algorithm="null_suppression", fraction=0.05, trials=trials,
            seed=3)
        return EstimationEngine(seed=3).estimate(request).values

    def test_trials_are_one_engine_request(self, capsys):
        code, out, _ = run_cli(capsys, *self.TRIALS_RUN, "--trials", "6")
        assert code == 0
        mean = self.engine_values(6).mean()
        assert f"mean CF' = {mean:.6f} over 6 trials" in out

    def test_adaptive_trials_are_a_prefix_of_the_request(self, capsys):
        code, out, _ = run_cli(capsys, *self.TRIALS_RUN, "--trials", "6",
                               "--adaptive", "--tolerance", "0.5")
        assert code == 0
        ran = int(out.split(" over ", 1)[1].split("/", 1)[0])
        mean = self.engine_values(6)[:ran].mean()
        assert f"mean CF' = {mean:.6f} over {ran}/6 trials" in out

    def test_one_trial_is_the_facade_estimate(self, capsys):
        from repro.core.samplecf import SampleCF
        from repro.workloads.generators import make_histogram

        code, out, _ = run_cli(capsys, *self.TRIALS_RUN)
        assert code == 0
        estimate = SampleCF("null_suppression").estimate_histogram(
            make_histogram(20000, 50, 20, seed=3), 0.05, seed=3)
        assert f"CF' = {estimate.estimate:.6f} " \
            f"({estimate.sample_rows:,} rows sampled" in out

    def test_non_positive_trials_rejected(self, capsys):
        for trials in ("0", "-3"):
            code, out, err = run_cli(capsys, *self.TRIALS_RUN,
                                     "--trials", trials)
            assert code == 1
            assert out == ""
            assert f"trial count, got {trials}" in err

    def test_unknown_algorithm_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--n", "1000", "--d", "10", "--k", "20",
                  "--algorithm", "middle_out"])
        assert excinfo.value.code == 2

    def test_unknown_scenario_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "no_such_scenario"])
        assert excinfo.value.code == 2


class TestEstimateBatch:
    def test_happy_path_output_shape(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "estimate-batch", spec_path)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"seed", "executor", "store_dir", "plan",
                                "results", "stats"}
        assert payload["store_dir"] is None
        assert payload["seed"] == 7
        assert len(payload["results"]) == len(BATCH_SPEC["requests"])
        first = payload["results"][0]
        assert first["workload"] == "names"
        assert first["path"] == "histogram"
        assert len(first["estimates"]) == first["trials"] == 3
        assert first["std"] is not None
        single = payload["results"][1]
        assert single["trials"] == 1
        assert single["std"] is None
        storage = payload["results"][2]
        assert storage["path"] == "storage"

    def test_reuse_visible_in_stats(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "estimate-batch", spec_path)
        assert code == 0
        payload = json.loads(out)
        stats = payload["stats"]
        # Both storage requests share one sample per trial, and the
        # second algorithm reuses the first's built sample index.
        assert stats["sample_cache_hits"] >= 2
        assert stats["index_reuse_hits"] >= 2
        assert payload["plan"]["samples_to_materialize"] < \
            payload["plan"]["trial_units"]

    def test_executor_does_not_change_results(self, capsys, spec_path):
        _, serial_out, _ = run_cli(capsys, "estimate-batch", spec_path,
                                   "--executor", "serial")
        _, process_out, _ = run_cli(capsys, "estimate-batch", spec_path,
                                    "--executor", "process",
                                    "--workers", "3")
        serial = json.loads(serial_out)
        process = json.loads(process_out)
        assert serial["results"] == process["results"]

    def test_process_executor_matches_serial(self, capsys, spec_path):
        _, serial_out, _ = run_cli(capsys, "estimate-batch", spec_path,
                                   "--executor", "serial")
        _, process_out, _ = run_cli(capsys, "estimate-batch", spec_path,
                                    "--executor", "process",
                                    "--workers", "2")
        serial = json.loads(serial_out)
        process = json.loads(process_out)
        assert serial["results"] == process["results"]
        assert process["executor"] == "process"

    def test_process_runs_print_identical_json(self, capsys, tmp_path):
        """Everything printed beside the estimates repeats run to run;
        the pool's wall-clock cost-model calibration goes only to a
        tracer's metrics."""
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "seed": 7,
            "workloads": {"w": {"n": 20000, "d": 100, "k": 16}},
            "requests": [
                {"workload": "w", "algorithm": "null_suppression",
                 "fraction": 0.01, "trials": 3},
                {"workload": "w", "algorithm": "dictionary",
                 "fraction": 0.01, "trials": 3}]}), encoding="utf-8")
        outputs = [run_cli(capsys, "estimate-batch", str(path),
                           "--executor", "process", "--workers", "2")
                   for _ in range(2)]
        assert [code for code, _, _ in outputs] == [0, 0]
        assert outputs[0][1] == outputs[1][1]
        assert "cost_model" not in outputs[0][1]

    def test_remote_executor_matches_serial(self, capsys, spec_path):
        """Full CLI loop: worker serve subprocesses + --executor remote."""
        from repro.engine.remote import spawn_local_workers

        processes, addresses = spawn_local_workers(2)
        try:
            workers = ",".join(f"{host}:{port}"
                               for host, port in addresses)
            _, serial_out, _ = run_cli(capsys, "estimate-batch",
                                       spec_path, "--executor", "serial")
            _, remote_out, _ = run_cli(capsys, "estimate-batch",
                                       spec_path, "--executor", "remote",
                                       "--workers", workers)
            serial = json.loads(serial_out)
            remote = json.loads(remote_out)
            assert serial["results"] == remote["results"]
            assert remote["executor"] == "remote"
            assert remote["stats"]["remote_units"] > 0
            assert remote["stats"]["remote_fallback_units"] == 0
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.wait(timeout=10)

    def test_remote_worker_count_is_rejected(self, capsys, spec_path):
        """--workers must be host:port for remote, a count otherwise."""
        code, _, err = run_cli(capsys, "estimate-batch", spec_path,
                               "--executor", "process",
                               "--workers", "hostA:7071")
        assert code == 1
        assert "host:port" in err

    def test_seed_override_changes_estimates(self, capsys, spec_path):
        _, one, _ = run_cli(capsys, "estimate-batch", spec_path,
                            "--seed", "1")
        _, two, _ = run_cli(capsys, "estimate-batch", spec_path,
                            "--seed", "2")
        assert json.loads(one)["results"] != json.loads(two)["results"]

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "estimate-batch", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _out, err = run_cli(capsys, "estimate-batch", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_unknown_workload_reference(self, capsys, tmp_path):
        spec = {"workloads": {"w": {"n": 100, "d": 5, "k": 8}},
                "requests": [{"workload": "nope"}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _out, err = run_cli(capsys, "estimate-batch", str(path))
        assert code == 1
        assert "unknown workload" in err

    def test_unknown_algorithm_in_spec(self, capsys, tmp_path):
        spec = {"workloads": {"w": {"n": 100, "d": 5, "k": 8}},
                "requests": [{"workload": "w",
                              "algorithm": "middle_out"}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _out, err = run_cli(capsys, "estimate-batch", str(path))
        assert code == 1
        assert "middle_out" in err

    def test_workload_needs_shape_or_scenario(self, capsys, tmp_path):
        spec = {"workloads": {"w": {"n": 100}},
                "requests": [{"workload": "w"}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _out, err = run_cli(capsys, "estimate-batch", str(path))
        assert code == 1
        assert "'scenario' or all of" in err

    def test_empty_requests_rejected(self, capsys, tmp_path):
        spec = {"workloads": {"w": {"n": 100, "d": 5, "k": 8}},
                "requests": []}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _out, err = run_cli(capsys, "estimate-batch", str(path))
        assert code == 1
        assert "requests" in err

    def test_stdin_spec(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin",
                            io.StringIO(json.dumps(BATCH_SPEC)))
        code, out, _ = run_cli(capsys, "estimate-batch", "-")
        assert code == 0
        assert json.loads(out)["plan"]["requests"] == 4


ADVISE_SPEC = {
    "tables": {
        "orders": {"n": 1200,
                   "columns": [["status", 10, 5], ["customer", 24, 150]],
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
    "trials": 3,
    "seed": 9,
}


@pytest.fixture
def advise_path(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(ADVISE_SPEC), encoding="utf-8")
    return str(path)


class TestAdvise:
    def test_eager_mode(self, capsys, advise_path):
        code, out, _ = run_cli(capsys, "advise", advise_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "eager"
        assert payload["cost_after"] <= payload["cost_before"]
        assert payload["bytes_used"] <= payload["storage_bound_bytes"]
        assert "what_if" not in payload

    def test_what_if_mode_matches_eager(self, capsys, advise_path):
        code, eager_out, _ = run_cli(capsys, "advise", advise_path)
        assert code == 0
        code, lazy_out, _ = run_cli(capsys, "advise", advise_path,
                                    "--what-if")
        assert code == 0
        eager = json.loads(eager_out)
        lazy = json.loads(lazy_out)
        assert lazy["mode"] == "what-if"
        assert lazy["chosen"] == eager["chosen"]
        assert lazy["steps"] == eager["steps"]
        assert lazy["cost_after"] == eager["cost_after"]
        report = lazy["what_if"]
        assert report["units_executed"] <= report["units_eager"]
        assert lazy["engine"]["trials"] == report["units_executed"]

    def test_what_if_flags(self, capsys, advise_path):
        code, out, _ = run_cli(capsys, "advise", advise_path,
                               "--what-if", "--no-prune",
                               "--no-adaptive", "--max-trials", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["prune"] is False
        assert payload["adaptive"] is False
        assert payload["max_trials"] == 2
        assert payload["what_if"]["max_trials"] == 2

    def test_storage_bound_override(self, capsys, advise_path):
        code, out, _ = run_cli(capsys, "advise", advise_path,
                               "--what-if", "--storage-bound", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["storage_bound_bytes"] == 10.0
        assert payload["chosen"] == []

    def test_store_dir_warm_start(self, capsys, advise_path, tmp_path):
        store = str(tmp_path / "store")
        code, cold_out, _ = run_cli(capsys, "advise", advise_path,
                                    "--what-if", "--store-dir", store)
        assert code == 0
        code, warm_out, _ = run_cli(capsys, "advise", advise_path,
                                    "--what-if", "--store-dir", store)
        assert code == 0
        cold = json.loads(cold_out)
        warm = json.loads(warm_out)
        assert warm["chosen"] == cold["chosen"]
        assert warm["engine"]["samples_materialized"] == 0

    def test_missing_sections_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tables": {}}), encoding="utf-8")
        code, _, err = run_cli(capsys, "advise", str(path))
        assert code == 1
        assert "tables" in err

    def test_missing_bound_rejected(self, capsys, tmp_path):
        spec = {k: v for k, v in ADVISE_SPEC.items()
                if k != "storage_bound_bytes"}
        path = tmp_path / "nobound.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, err = run_cli(capsys, "advise", str(path))
        assert code == 1
        assert "storage_bound_bytes" in err

    def test_unknown_query_table_rejected(self, capsys, tmp_path):
        spec = dict(ADVISE_SPEC)
        spec["queries"] = [{"table": "ghost", "columns": ["a"]}]
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, err = run_cli(capsys, "advise", str(path))
        assert code == 1
        assert "ghost" in err

    def test_bad_columns_spec_rejected(self, capsys, tmp_path):
        spec = dict(ADVISE_SPEC)
        spec["tables"] = {"orders": {"n": 100, "columns": [["only-two",
                                                           10]]}}
        path = tmp_path / "badcols.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, err = run_cli(capsys, "advise", str(path))
        assert code == 1
        assert "columns" in err


class TestBounds:
    def test_theorem1_paper_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "theorem1", "--n", "100000000",
            "--fraction", "0.01")
        assert code == 0
        assert "0.0005" in out

    def test_theorem2(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "theorem2", "--n", "1000000", "--d",
            "1000", "--k", "20", "--fraction", "0.01")
        assert code == 0
        assert "Theorem 2" in out
        assert "overestimate" in out

    def test_theorem3(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "theorem3", "--alpha", "0.5", "--k", "20",
            "--fraction", "0.01")
        assert code == 0
        assert "Theorem 3" in out

    def test_invalid_alpha_reports_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "bounds", "theorem3", "--alpha", "1.5", "--k", "20",
            "--fraction", "0.01")
        assert code == 1
        assert "error" in err


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestStoreDir:
    def test_warm_batch_materializes_nothing(self, capsys, spec_path,
                                             tmp_path):
        store_dir = str(tmp_path / "store")
        code, cold_out, _ = run_cli(capsys, "estimate-batch", spec_path,
                                    "--store-dir", store_dir)
        assert code == 0
        code, warm_out, _ = run_cli(capsys, "estimate-batch", spec_path,
                                    "--store-dir", store_dir)
        assert code == 0
        cold = json.loads(cold_out)
        warm = json.loads(warm_out)
        assert cold["store_dir"] == store_dir
        assert cold["stats"]["samples_materialized"] > 0
        assert warm["stats"]["samples_materialized"] == 0
        assert warm["stats"]["estimate_store_hits"] == \
            warm["stats"]["trials"]
        assert [r["estimates"] for r in cold["results"]] == \
            [r["estimates"] for r in warm["results"]]

    def test_store_does_not_change_estimates(self, capsys, spec_path,
                                             tmp_path):
        code, bare_out, _ = run_cli(capsys, "estimate-batch", spec_path)
        code, stored_out, _ = run_cli(
            capsys, "estimate-batch", spec_path,
            "--store-dir", str(tmp_path / "store"))
        bare = json.loads(bare_out)
        stored = json.loads(stored_out)
        assert [r["estimates"] for r in bare["results"]] == \
            [r["estimates"] for r in stored["results"]]

    def test_estimate_single_uses_store(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ("estimate", "--scenario", "status_codes", "--rows",
                "3000", "--fraction", "0.02", "--seed", "3",
                "--store-dir", store_dir)
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert code == 0
        assert first == second
        code, stats_out, _ = run_cli(capsys, "cache", "stats",
                                     "--store-dir", store_dir)
        assert code == 0
        assert "estimates" in stats_out


class TestCacheCommands:
    def _populate(self, capsys, spec_path, store_dir):
        code, _, _ = run_cli(capsys, "estimate-batch", spec_path,
                             "--store-dir", store_dir)
        assert code == 0

    def test_stats_lists_kinds(self, capsys, spec_path, tmp_path):
        store_dir = str(tmp_path / "store")
        self._populate(capsys, spec_path, store_dir)
        code, out, _ = run_cli(capsys, "cache", "stats",
                               "--store-dir", store_dir)
        assert code == 0
        for word in ("samples", "estimates", "quarantined", "total",
                     "size budget"):
            assert word in out

    def test_prune_respects_budget(self, capsys, spec_path, tmp_path):
        store_dir = str(tmp_path / "store")
        self._populate(capsys, spec_path, store_dir)
        code, out, _ = run_cli(capsys, "cache", "prune",
                               "--store-dir", store_dir,
                               "--max-bytes", "2000")
        assert code == 0
        assert "evicted" in out
        from repro.store import SampleStore

        assert SampleStore(store_dir).stats()["total_bytes"] <= 2000

    def test_clear_empties_store(self, capsys, spec_path, tmp_path):
        store_dir = str(tmp_path / "store")
        self._populate(capsys, spec_path, store_dir)
        code, out, _ = run_cli(capsys, "cache", "clear",
                               "--store-dir", store_dir)
        assert code == 0
        assert "removed" in out
        code, out, _ = run_cli(capsys, "cache", "stats",
                               "--store-dir", store_dir)
        assert "total       | 0" in out

    def test_cache_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestLint:
    def test_shipped_tree_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "lint")
        assert code == 0
        assert "clean" in out

    def test_findings_set_exit_code(self, capsys, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "import threading\n"
            "from dataclasses import dataclass, field\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class State:\n"
            "    lock: threading.Lock = field("
            "default_factory=threading.Lock)\n",
            encoding="utf-8")
        code, out, _ = run_cli(capsys, "lint", str(path))
        assert code == 1
        assert "RPL003" in out

    def test_select_and_json_format(self, capsys, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import threading\n"
                        "from dataclasses import dataclass, field\n"
                        "\n"
                        "\n"
                        "@dataclass\n"
                        "class State:\n"
                        "    lock: threading.Lock = field("
                        "default_factory=threading.Lock)\n",
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "lint", "--select", "RPL001",
                               "--format", "json", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["total"] == 0
        code, out, _ = run_cli(capsys, "lint", "--format", "json",
                               str(path))
        assert code == 1
        assert json.loads(out)["summary"]["by_code"]["RPL003"] == 1

    def test_fixture_corpus_mode(self, capsys):
        import pathlib
        fixtures = pathlib.Path(__file__).parent / "analysis_fixtures"
        code, out, _ = run_cli(capsys, "lint", "--fixtures",
                               str(fixtures))
        assert code == 0
        assert "behave as declared" in out
