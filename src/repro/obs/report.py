"""Trace analysis: per-phase breakdowns, stragglers, slowest units.

``repro trace summarize <trace.jsonl>`` renders the output of
:func:`summarize`, which answers three questions about one traced run:

* **where did the wall-clock go** — per-span-name totals and *self*
  times (duration minus the time same-process children cover, so the
  phase table partitions the run instead of double-counting nested
  spans, and concurrent children, one ``chunk.run`` per worker at a
  time, are subtracted from their parent once);
* **did every unit run exactly once** — ``unit.run`` spans carry the
  plan-unit index, checked against the ``units`` count annotated on
  the ``engine.execute`` root;
* **who was the straggler** — per-worker busy time aggregated from
  remote ``chunk.run`` spans plus steal/failure event counts.

Coverage (the union of main-process root spans over measured
wall-clock) is the report's honesty metric: spans adopted from workers
run *concurrently* with the parent's dispatch spans, so only the parent
process's spans partition wall-clock; worker time shows up under the
per-worker busy table instead. A phase's share is its self time over
the summed root durations, so the shares sum to 100% (more where a
span's children overlap, since each child keeps its own self time) and
coverage stays at or below 100% even when roots overlap (a service's
concurrent requests). For one root, or roots that follow one another
back to back, both read as self time over wall-clock.
"""

from __future__ import annotations

from typing import Any, Iterable


def _main_proc(records: list[dict]) -> str:
    for record in records:
        if record.get("type") == "meta":
            return str(record.get("proc", "main"))
    return "main"


def _union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        covered += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    return covered


def summarize(records: list[dict], top: int = 10) -> dict:
    """Digest trace records into a report dict (see module docstring)."""
    main = _main_proc(records)
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    main_spans = [s for s in spans if s.get("proc") == main
                  and not s.get("adopted")]

    # Wall-clock: the envelope of the parent process's spans.
    if main_spans:
        start = min(s["t"] for s in main_spans)
        end = max(s["t"] + s.get("dur", 0.0) for s in main_spans)
        wall = end - start
    else:
        wall = 0.0

    # Self time: duration minus the union of same-proc children's
    # intervals, clipped to the span. Children that run one after
    # another telescope, so the per-name totals partition each root
    # span's duration; concurrent children (one ``chunk.run`` per
    # worker) are subtracted once. The floor at 0 absorbs rounding
    # where the children cover the whole span.
    children: dict[str, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in main_spans}
    for span in main_spans:
        parent = by_id.get(span.get("parent"))
        if parent is not None:
            children.setdefault(parent["id"], []).append((
                max(span["t"], parent["t"]),
                min(span["t"] + span.get("dur", 0.0),
                    parent["t"] + parent.get("dur", 0.0))))

    phases: dict[str, dict[str, float]] = {}
    for span in main_spans:
        duration = span.get("dur", 0.0)
        self_time = max(0.0, duration
                        - _union(children.get(span["id"], ())))
        entry = phases.setdefault(
            span["name"], {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += duration
        entry["self"] += self_time

    self_total = sum(entry["self"] for entry in phases.values())
    roots = [(s["t"], s["t"] + s.get("dur", 0.0))
             for s in main_spans if s.get("parent") not in by_id]
    root_total = sum(end - start for start, end in roots)
    coverage = _union(roots) / wall if wall > 0 else None
    for entry in phases.values():
        entry["share"] = (entry["self"] / root_total if root_total > 0
                          else 0.0)

    # Unit accounting: every executed unit exactly once, in any proc.
    # Unit indexes restart at 0 for every batch (an advise run executes
    # many), so identity is (enclosing engine.execute span, index) —
    # found by walking parents, which works for adopted worker spans
    # too because collectors root themselves under shipped contexts.
    by_span = {s["id"]: s for s in spans}

    def _batch_of(span: dict) -> Any:
        visited = set()
        current = span
        while True:
            parent = current.get("parent")
            if parent is None or parent in visited \
                    or parent not in by_span:
                return None
            visited.add(parent)
            current = by_span[parent]
            if current["name"] == "engine.execute":
                return current["id"]

    unit_spans = [s for s in spans if s["name"] == "unit.run"]
    seen: dict[Any, int] = {}
    for span in unit_spans:
        unit = (_batch_of(span), span.get("attrs", {}).get("unit"))
        seen[unit] = seen.get(unit, 0) + 1
    expected = None
    for span in spans:
        if span["name"] == "engine.execute":
            units = span.get("attrs", {}).get("units")
            if units is not None:
                expected = (expected or 0) + int(units)
    duplicates = sorted((u for u, n in seen.items() if n > 1),
                        key=str)
    units_report = {
        "expected": expected,
        "executed": len(unit_spans),
        "distinct": len(seen),
        "duplicates": duplicates,
        "exactly_once": (expected is None or expected == len(seen))
        and not duplicates,
    }

    # Straggler analysis: busy time per remote worker from chunk spans.
    workers: dict[str, dict[str, float]] = {}
    for span in spans:
        if span["name"] != "chunk.run":
            continue
        name = str(span.get("attrs", {}).get("worker", "?"))
        entry = workers.setdefault(
            name, {"busy": 0.0, "chunks": 0, "units": 0})
        entry["busy"] += span.get("dur", 0.0)
        entry["chunks"] += 1
        entry["units"] += int(span.get("attrs", {}).get("units", 0))

    event_counts: dict[str, int] = {}
    for event in events:
        event_counts[event["name"]] = event_counts.get(event["name"], 0) + 1

    slowest = sorted(unit_spans, key=lambda s: s.get("dur", 0.0),
                     reverse=True)[:top]
    slowest_rows = [
        {"unit": s.get("attrs", {}).get("unit"),
         "proc": s.get("proc"),
         "seconds": s.get("dur", 0.0),
         "algorithm": s.get("attrs", {}).get("algorithm"),
         "fraction": s.get("attrs", {}).get("fraction"),
         "label": s.get("attrs", {}).get("label")}
        for s in slowest]

    return {
        "wall_seconds": wall,
        "span_count": len(spans),
        "event_count": len(events),
        "phases": {name: dict(entry)
                   for name, entry in sorted(
                       phases.items(),
                       key=lambda item: -item[1]["self"])},
        "self_seconds": self_total,
        "coverage": coverage,
        "units": units_report,
        "workers": {name: dict(entry)
                    for name, entry in sorted(
                        workers.items(),
                        key=lambda item: -item[1]["busy"])},
        "events": dict(sorted(event_counts.items())),
        "slowest_units": slowest_rows,
    }


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i])
                       for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return lines


def render(summary: dict) -> str:
    """Human-readable multi-section report for one summarized trace."""
    lines: list[str] = []
    wall = summary["wall_seconds"]
    coverage = summary["coverage"]
    lines.append(
        f"wall {_fmt_seconds(wall)}  spans {summary['span_count']}  "
        f"events {summary['event_count']}  self-time coverage "
        + (f"{coverage * 100.0:.1f}%" if coverage is not None else "-"))
    lines.append("")

    lines.append("Per-phase breakdown (self time):")
    rows = []
    for name, entry in summary["phases"].items():
        rows.append([name, str(int(entry["count"])),
                     _fmt_seconds(entry["total"]),
                     _fmt_seconds(entry["self"]),
                     f"{entry['share'] * 100.0:.1f}%"])
    lines.extend(_table(["phase", "count", "total", "self", "share"],
                        rows))
    lines.append("")

    units = summary["units"]
    status = "exactly once" if units["exactly_once"] else "MISMATCH"
    expected = units["expected"] if units["expected"] is not None else "?"
    lines.append(
        f"Units: {units['executed']} executed, {units['distinct']} "
        f"distinct, {expected} expected -> {status}")
    if units["duplicates"]:
        lines.append(f"  duplicated: {units['duplicates']}")
    lines.append("")

    if summary["workers"]:
        lines.append("Remote workers (busy time; top = straggler):")
        rows = [[name, _fmt_seconds(entry["busy"]),
                 str(int(entry["chunks"])), str(int(entry["units"]))]
                for name, entry in summary["workers"].items()]
        lines.extend(_table(["worker", "busy", "chunks", "units"], rows))
        lines.append("")

    if summary["events"]:
        lines.append("Events: " + ", ".join(
            f"{name}={count}"
            for name, count in summary["events"].items()))
        lines.append("")

    if summary["slowest_units"]:
        lines.append("Slowest units:")
        rows = [[str(row["unit"]), str(row["proc"]),
                 _fmt_seconds(row["seconds"]),
                 str(row["algorithm"] or "-"),
                 str(row["fraction"] if row["fraction"] is not None
                     else "-"),
                 str(row["label"] or "-")]
                for row in summary["slowest_units"]]
        lines.extend(_table(
            ["unit", "proc", "seconds", "algorithm", "fraction",
             "label"], rows))
    return "\n".join(lines).rstrip() + "\n"


def one_line(summary: dict) -> str:
    """The single-line digest ``--trace`` prints after a run."""
    units = summary["units"]
    coverage = summary["coverage"]
    parts = [
        f"trace: wall {_fmt_seconds(summary['wall_seconds'])}",
        f"{units['executed']} units",
        "exactly-once" if units["exactly_once"] else "UNIT MISMATCH",
        ("coverage " + f"{coverage * 100.0:.0f}%"
         if coverage is not None else "coverage -"),
    ]
    if summary["phases"]:
        hottest = next(iter(summary["phases"]))
        parts.append(f"hottest {hottest}")
    if summary["workers"]:
        parts.append(f"{len(summary['workers'])} workers")
    return "  ".join(parts)
