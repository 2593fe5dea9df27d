"""Unit tests for repro.experiments (runner, report, registry)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (EXPERIMENTS, get_experiment,
                                        list_experiments)
from repro.experiments.report import (banner, fmt_bytes, fmt_float,
                                      format_markdown_table, format_table)
from repro.experiments.runner import timed


class TestRunner:
    def test_timed(self):
        result = timed(lambda: sum(range(1000)))
        assert result.value == 499500
        assert result.seconds >= 0


class TestReport:
    def test_fmt_float(self):
        assert fmt_float(0.123456) == "0.1235"
        assert fmt_float(1.0, digits=2) == "1.00"

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.0 KiB"
        assert fmt_bytes(3 * 1024**2) == "3.0 MiB"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_title(self):
        text = format_table(["h"], [["x"]], title="My Table")
        assert text.startswith("My Table")

    def test_format_table_validation(self):
        with pytest.raises(ExperimentError):
            format_table([], [])
        with pytest.raises(ExperimentError):
            format_table(["a"], [["x", "y"]])

    def test_markdown_table(self):
        text = format_markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "| a | b |"
        assert text.splitlines()[1] == "|---|---|"
        assert text.splitlines()[2] == "| 1 | 2 |"

    def test_banner(self):
        assert "My Section" in banner("My Section")


class TestRegistry:
    def test_every_paper_artefact_present(self):
        for artefact in ("fig1", "fig2", "table1", "table2", "thm1",
                         "thm2", "thm3", "ex1"):
            assert artefact in EXPERIMENTS

    def test_future_work_ablations_present(self):
        assert "abl-paging" in EXPERIMENTS
        assert "abl-block" in EXPERIMENTS

    def test_get_experiment(self):
        spec = get_experiment("thm1")
        assert spec.paper_ref == "Theorem 1"
        assert spec.bench_module is not None

    def test_unknown_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("thm9")

    def test_list_is_ordered_and_complete(self):
        specs = list_experiments()
        assert len(specs) == len(EXPERIMENTS)
        assert specs[0].id == "fig1"

    def test_only_table1_lacks_a_bench(self):
        missing = [spec.id for spec in list_experiments()
                   if spec.bench_module is None]
        assert missing == ["table1"]

    def test_bench_modules_exist_on_disk(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for spec in list_experiments():
            if spec.bench_module is not None:
                assert (root / spec.bench_module).exists(), \
                    spec.bench_module


class TestAdaptiveTrials:
    """run_request_trials_adaptive: staged prefix replay of a budget."""

    def make_request(self, trials=16):
        from repro.engine.requests import EstimationRequest
        from repro.workloads.generators import make_histogram

        histogram = make_histogram(8_000, 60, 14, seed=21)
        return EstimationRequest(histogram=histogram,
                                 algorithm="null_suppression",
                                 fraction=0.02, trials=trials)

    def test_values_are_prefix_of_full_run(self):
        from repro.engine.engine import EstimationEngine
        from repro.experiments.runner import run_request_trials_adaptive

        request = self.make_request()
        full = EstimationEngine(seed=300).estimate(request).values
        outcome = run_request_trials_adaptive(
            request, engine=EstimationEngine(seed=300), tolerance=0.002)
        assert outcome.trials_run <= outcome.trials_budget == 16
        assert outcome.values.tolist() \
            == full[:outcome.trials_run].tolist()
        assert sum(outcome.stages) == outcome.trials_run
        # Doubling schedule: 1, 1, 2, 4, ... clipped to the budget.
        expected = [1, 1, 2, 4, 8, 16]
        assert list(outcome.stages) == expected[:len(outcome.stages)]

    def test_loose_tolerance_converges_early(self):
        from repro.engine.engine import EstimationEngine
        from repro.experiments.runner import run_request_trials_adaptive

        outcome = run_request_trials_adaptive(
            self.make_request(64), engine=EstimationEngine(seed=300),
            tolerance=1.0)
        assert outcome.converged
        assert outcome.trials_run == 2  # first interval already inside
        assert outcome.halfwidth is not None and outcome.halfwidth <= 1.0

    def test_budget_exhaustion_reported(self):
        from repro.engine.engine import EstimationEngine
        from repro.experiments.runner import run_request_trials_adaptive

        outcome = run_request_trials_adaptive(
            self.make_request(3), engine=EstimationEngine(seed=300),
            tolerance=1e-12)
        assert outcome.trials_run == 3
        assert list(outcome.stages) == [1, 1, 1]
        # The final interval collapses once every budgeted trial ran,
        # so a spent budget still reports converged with halfwidth 0.
        assert outcome.halfwidth == 0.0

    def test_validation(self):
        from repro.experiments.runner import run_request_trials_adaptive

        with pytest.raises(ExperimentError):
            run_request_trials_adaptive(self.make_request(), trials=0)
        with pytest.raises(ExperimentError):
            run_request_trials_adaptive(self.make_request(),
                                        tolerance=0.0)
