"""JSON spec parsing and result shaping, shared by the CLI and service.

The ``estimate-batch`` and ``advise`` spec formats predate the service
(they are the CLI's input language), so the builders live here and the
CLI imports them back — one schema, two transports. The service-only
addition is :class:`WorkloadCache`: engine source-cache keys are bound
to the *object identity* of a built table/histogram, so two clients
POSTing byte-identical workload specs would silently miss each other's
memory-tier samples if each request built fresh objects. The cache
canonicalizes a (name, spec) pair to one shared built workload,
which is what makes cross-client sample sharing real.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ReproError
from repro.compression.registry import get_algorithm
from repro.storage.index import IndexKind
from repro.engine.requests import EstimationRequest, RequestResult
from repro.workloads.generators import (histogram_to_table,
                                        make_histogram,
                                        make_multicolumn_table)
from repro.workloads.scenarios import get_scenario
from repro.advisor import Query


def parse_spec_text(text: str, what: str = "batch spec") -> dict:
    """Decode one JSON spec body; must be a JSON object."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{what} is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        raise ReproError(f"{what} must be a JSON object")
    return spec


# ----------------------------------------------------------------------
# estimate-batch specs
# ----------------------------------------------------------------------
def build_batch_workload(name: str, spec: Any) -> dict:
    """One named workload: a histogram, optionally materialised."""
    if not isinstance(spec, dict):
        raise ReproError(f"workload {name!r} must be a JSON object")
    seed = int(spec.get("seed", 0))
    if "scenario" in spec:
        histogram = get_scenario(spec["scenario"]).build(
            spec.get("rows"), seed=seed)
    elif all(field in spec for field in ("n", "d", "k")):
        histogram = make_histogram(
            int(spec["n"]), int(spec["d"]), int(spec["k"]),
            distribution=spec.get("distribution", "zipf"), seed=seed)
    else:
        raise ReproError(
            f"workload {name!r} needs either 'scenario' or all of "
            f"'n'/'d'/'k'")
    if spec.get("storage"):
        table = histogram_to_table(
            histogram, name=name, order=spec.get("order", "shuffled"),
            page_size=int(spec.get("page_size", 8192)), seed=seed)
        return {"table": table}
    return {"histogram": histogram,
            "page_size": int(spec.get("page_size", 8192))}


BATCH_KINDS = {"clustered": IndexKind.CLUSTERED,
               "nonclustered": IndexKind.NONCLUSTERED}


def build_batch_request(position: int, item: Any,
                        workloads: dict[str, dict]) -> EstimationRequest:
    if not isinstance(item, dict):
        raise ReproError(f"request #{position} must be a JSON object")
    workload_name = item.get("workload")
    if workload_name not in workloads:
        raise ReproError(
            f"request #{position} references unknown workload "
            f"{workload_name!r}; defined: {sorted(workloads)}")
    source = workloads[workload_name]
    kwargs: dict[str, Any] = {
        "algorithm": get_algorithm(
            item.get("algorithm", "null_suppression")),
        "fraction": float(item.get("fraction", 0.01)),
        "trials": int(item.get("trials", 1)),
        "label": workload_name,
    }
    if "seed" in item:
        kwargs["seed"] = int(item["seed"])
    if "table" in source:
        table = source["table"]
        kind = str(item.get("kind", "clustered"))
        if kind not in BATCH_KINDS:
            raise ReproError(
                f"request #{position} has unknown index kind {kind!r}; "
                f"known: {sorted(BATCH_KINDS)}")
        return EstimationRequest(
            table=table, columns=("a",), kind=BATCH_KINDS[kind],
            page_size=int(item.get("page_size", table.page_size)),
            **kwargs)
    return EstimationRequest(
        histogram=source["histogram"],
        page_size=int(item.get("page_size", source["page_size"])),
        **kwargs)


def build_batch(spec: dict,
                workload_builder: "Callable[[str, Any], dict] | None"
                = None) -> tuple[list[EstimationRequest], int]:
    """Validate one batch spec into ``(requests, seed)``.

    ``workload_builder`` lets the service route workload construction
    through its :class:`WorkloadCache`; the CLI passes nothing and
    builds fresh objects per invocation.
    """
    # An explicit None test: WorkloadCache defines __len__, so an
    # *empty* cache is falsy and ``or`` would silently bypass it.
    builder = (build_batch_workload if workload_builder is None
               else workload_builder)
    workload_specs = spec.get("workloads")
    request_specs = spec.get("requests")
    if not isinstance(workload_specs, dict) or not workload_specs:
        raise ReproError("batch spec needs a non-empty 'workloads' "
                         "object")
    if not isinstance(request_specs, list) or not request_specs:
        raise ReproError("batch spec needs a non-empty 'requests' list")
    workloads = {name: builder(name, wspec)
                 for name, wspec in workload_specs.items()}
    requests = [build_batch_request(position, item, workloads)
                for position, item in enumerate(request_specs)]
    return requests, int(spec.get("seed", 0))


def request_result_entry(request: EstimationRequest,
                         result: RequestResult | None) -> dict[str, Any]:
    """One output entry per spec request — the CLI's exact JSON shape.

    The service reuses this verbatim so its ``results`` arrays are
    bit-identical to ``repro estimate-batch`` output at the same spec
    seed (the acceptance criterion the service smoke asserts).
    """
    entry: dict[str, Any] = {
        "workload": request.label,
        "algorithm": request.algorithm.name,
        "fraction": request.fraction,
        "trials": request.trials,
    }
    if result is None:
        # Deadline-bounded runs may leave requests unevaluated; a
        # typed null (never a partial trial set) keeps positions
        # aligned with the spec's request list.
        entry.update({"path": None, "estimates": [], "mean": None,
                      "std": None, "sample_rows": [],
                      "deadline_exceeded": True})
        return entry
    values = result.values
    entry.update({
        "path": result.estimates[0].path,
        "estimates": [float(v) for v in values],
        "mean": float(values.mean()),
        "std": (float(values.std(ddof=1)) if len(values) > 1
                else None),
        "sample_rows": [e.sample_rows for e in result.estimates],
    })
    return entry


# ----------------------------------------------------------------------
# advise specs
# ----------------------------------------------------------------------
def build_advise_table(name: str, spec: Any):
    """One named table for the advisor: multi-column or workload-based."""
    if not isinstance(spec, dict):
        raise ReproError(f"table {name!r} must be a JSON object")
    if "columns" in spec:
        if "n" not in spec:
            raise ReproError(
                f"table {name!r} with 'columns' needs a row count 'n'")
        try:
            specs = [(str(cname), int(k), int(d))
                     for cname, k, d in spec["columns"]]
        except (TypeError, ValueError):
            raise ReproError(
                f"table {name!r} 'columns' must be [name, k, d] "
                f"triples") from None
        return make_multicolumn_table(
            name, int(spec["n"]), specs,
            page_size=int(spec.get("page_size", 8192)),
            seed=int(spec.get("seed", 0)))
    workload = build_batch_workload(name, {**spec, "storage": True})
    return workload["table"]


def build_advise_query(position: int, item: Any,
                       tables: dict[str, Any]) -> Query:
    if not isinstance(item, dict):
        raise ReproError(f"query #{position} must be a JSON object")
    table = item.get("table")
    if table not in tables:
        raise ReproError(
            f"query #{position} references unknown table {table!r}; "
            f"defined: {sorted(tables)}")
    columns = item.get("columns")
    if not isinstance(columns, list) or not columns:
        raise ReproError(
            f"query #{position} needs a non-empty 'columns' list")
    return Query(
        name=str(item.get("name", f"q{position}")), table=table,
        columns=tuple(str(column) for column in columns),
        selectivity=float(item.get("selectivity", 1.0)),
        weight=float(item.get("weight", 1.0)))


@dataclass(frozen=True)
class AdviseSpec:
    """One validated advise spec: the advisor's inputs and the bound."""

    tables: dict[str, Any]
    queries: list[Query]
    storage_bound_bytes: float
    algorithms: list[str]
    fraction: float
    trials: int
    seed: int


def build_advise(spec: dict,
                 table_builder: "Callable[[str, Any], Any] | None" = None,
                 ) -> AdviseSpec:
    """Validate one advise spec, filling the shared defaults.

    ``table_builder`` lets the service route table construction
    through its :class:`WorkloadCache`; the CLI passes nothing and
    builds fresh tables per invocation.
    """
    builder = (build_advise_table if table_builder is None
               else table_builder)
    table_specs = spec.get("tables")
    query_specs = spec.get("queries")
    if not isinstance(table_specs, dict) or not table_specs:
        raise ReproError("advise spec needs a non-empty 'tables' object")
    if not isinstance(query_specs, list) or not query_specs:
        raise ReproError("advise spec needs a non-empty 'queries' list")
    bound = spec.get("storage_bound_bytes")
    if bound is None:
        raise ReproError("advise spec needs 'storage_bound_bytes'")
    tables = {name: builder(name, tspec)
              for name, tspec in table_specs.items()}
    queries = [build_advise_query(position, item, tables)
               for position, item in enumerate(query_specs)]
    return AdviseSpec(
        tables=tables, queries=queries, storage_bound_bytes=float(bound),
        algorithms=list(spec.get("algorithms", ["page"])),
        fraction=float(spec.get("fraction", 0.01)),
        trials=int(spec.get("trials", 1)),
        seed=int(spec.get("seed", 0)))


def candidate_entry(candidate) -> dict[str, Any]:
    return {
        "name": candidate.name,
        "table": candidate.table,
        "key_columns": list(candidate.key_columns),
        "compressed": candidate.compressed,
        "algorithm": candidate.algorithm,
        "size_bytes": candidate.size_bytes,
        "estimated_cf": candidate.estimated_cf,
    }


def advise_result_entry(result) -> dict[str, Any]:
    """An advisor run's design and costs, as ``advise`` prints them."""
    return {
        "cost_before": result.cost_before,
        "cost_after": result.cost_after,
        "improvement": result.improvement,
        "bytes_used": result.bytes_used,
        "chosen": [candidate_entry(c) for c in result.chosen],
        "steps": list(result.steps),
    }


# ----------------------------------------------------------------------
# Cross-client workload identity
# ----------------------------------------------------------------------
def canonical_spec_key(name: str, spec: Any) -> str:
    """Stable content key for one named workload/table spec."""
    return json.dumps([name, spec], sort_keys=True,
                      separators=(",", ":"), default=str)


class WorkloadCache:
    """Canonicalize built workloads across requests and clients.

    Engine sample-cache keys embed ``id(source)``-bound cache tokens,
    so byte-identical specs only share memory-tier samples when they
    resolve to the *same* built object. This LRU maps the canonical
    JSON of a (name, spec) pair to one built workload (or advisor
    table), under a lock, so every client's ``customer_names`` is one
    histogram and the engine's dedup can do its job across clients.
    Building happens outside the lock (generation can take seconds);
    two racing builders of one key keep the first-published object.
    """

    def __init__(self, max_entries: int = 64,
                 builder: "Callable[[str, Any], Any] | None" = None,
                 ) -> None:
        self._builder = builder or build_batch_workload
        self._max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __call__(self, name: str, spec: Any) -> Any:
        key = canonical_spec_key(name, spec)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
        built = self._builder(name, spec)
        with self._lock:
            if key in self._entries:  # lost the build race: share theirs
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            self._entries[key] = built
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
            return built

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses}
