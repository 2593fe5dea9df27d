"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artefact (``repro.experiments.registry``
lists them): it prints the paper-style rows, persists them under
``benchmarks/results/`` so the harness output survives pytest's capture,
and asserts the *shape* claims (who wins, what's bounded, what
converges). Timings come from pytest-benchmark.

Result files all flow through :func:`emit_result`, which stamps one
schema envelope (``schema_version`` / ``experiment`` / ``version`` /
``parameters`` / ``results``) around every bench's payload — the
machine-readable ``BENCH_<id>.json`` CI uploads as artifacts. Measured
durations belong in the payload; *creation* timestamps do not (results
must be byte-identical across reruns of an unchanged bench, the same
discipline ``repro lint`` enforces on the estimate path).
"""

from __future__ import annotations

import json
import os
import pathlib

from repro._version import __version__

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Envelope version for ``BENCH_*.json`` result files.
RESULT_SCHEMA_VERSION = 1


def bench_store() -> str | None:
    """Optional shared sample/estimate store for artefact regeneration.

    Set ``REPRO_BENCH_STORE_DIR`` to let every engine-backed bench
    warm-start from samples and estimates persisted by earlier runs
    (and by each other): a full-suite regeneration then materializes
    each (source, fraction, trial) sample once across figures instead
    of once per bench. Unset (the default, and what CI uses) keeps the
    benches hermetic.
    """
    directory = os.environ.get("REPRO_BENCH_STORE_DIR")
    return directory if directory else None


def emit_result(experiment_id: str, payload: object,
                parameters: dict | None = None,
                text: str | None = None,
                output: pathlib.Path | str | None = None) -> pathlib.Path:
    """Persist one bench's results in the shared schema envelope.

    Writes ``BENCH_<experiment_id>.json`` (or ``output`` when the bench
    takes an ``--output`` flag) containing ``schema_version``, the
    experiment id, the package version, the ``parameters`` the run was
    configured with, and the bench's ``payload`` under ``results``.
    ``text`` additionally persists the human-readable report block as
    ``<experiment_id>.txt`` and prints it, preserving the historical
    ``write_report`` behaviour.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "experiment": experiment_id,
        "version": __version__,
        "parameters": dict(parameters) if parameters else {},
        "results": payload,
    }
    path = (pathlib.Path(output) if output is not None
            else RESULTS_DIR / f"BENCH_{experiment_id}.json")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n",
                    encoding="utf-8")
    if text is not None:
        text_path = RESULTS_DIR / f"{experiment_id}.txt"
        text_path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)
    return path


def write_report(experiment_id: str, text: str,
                 parameters: dict | None = None) -> None:
    """Print a report block and persist it (text + schema envelope)."""
    emit_result(experiment_id, {"report": text.splitlines()},
                parameters=parameters, text=text)


def hexdump(data: bytes, limit: int = 24) -> str:
    """Short hex rendering used by the Figure 1 byte-image report."""
    shown = data[:limit]
    suffix = "..." if len(data) > limit else ""
    return shown.hex(" ") + suffix
