"""Experiment harness: trial running, reporting, and the artefact registry."""

from repro.experiments.registry import (EXPERIMENTS, ExperimentSpec,
                                        get_experiment, list_experiments)
from repro.experiments.report import (banner, fmt_bytes, fmt_float,
                                      format_markdown_table, format_table)
from repro.experiments.runner import (AdaptiveTrials, SweepPoint, Timed,
                                      engine_sweep,
                                      run_request_trials_adaptive, timed)

__all__ = [
    "AdaptiveTrials",
    "EXPERIMENTS",
    "ExperimentSpec",
    "SweepPoint",
    "Timed",
    "banner",
    "engine_sweep",
    "fmt_bytes",
    "fmt_float",
    "format_markdown_table",
    "format_table",
    "get_experiment",
    "list_experiments",
    "run_request_trials_adaptive",
    "timed",
]
