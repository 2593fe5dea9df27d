"""Run ``repro serve`` with the benchmark's timing shims installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_serve.py SPANS.json serve --port 0

The service runs exactly as ``python -m repro serve`` does until SIGINT.
It then writes SPANS.json.  For each ``/estimate-batch`` handled, the file
holds the handler's wall time and layer breakdown, the engine round it
joined, and whether its thread led that round.  For each round, it holds
the ``EstimationEngine.execute`` wall time and breakdown.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from layers import LayerClock  # noqa: E402

import repro.cli  # noqa: E402


def main(argv: list[str]) -> int:
    spans = pathlib.Path(argv[0])
    requests: list[dict] = []
    rounds: dict[str, dict] = {}
    # Round keys are ids of the batch stats dicts every submission of a
    # round shares; holding the dicts keeps the ids from being reused.
    round_stats: list[dict] = []
    lock = threading.Lock()
    joined = threading.local()

    def on_close(layer, frame, args, result) -> None:
        if layer == "engine":
            with lock:
                round_stats.append(result.stats)
                rounds[str(id(result.stats))] = {
                    "wall": frame.wall, "times": dict(frame.times),
                    "counts": dict(frame.counts)}
        elif layer == "batcher.submit":
            joined.round = (str(id(result.stats)), result.coalesced_with,
                            frame.counts.get("engine.batches", 0) > 0)
        elif layer == "service.handler":
            round_key, coalesced_with, leader = joined.round
            with lock:
                requests.append({
                    "id": args[1].get("bench_id"), "wall": frame.wall,
                    "times": dict(frame.times), "round": round_key,
                    "coalesced_with": coalesced_with, "leader": leader})

    clock = LayerClock()
    clock.install()
    clock.on_close = on_close
    clock.enabled = True
    try:
        return repro.cli.main(argv[1:])
    finally:
        spans.write_text(json.dumps({"requests": requests,
                                     "rounds": rounds}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
