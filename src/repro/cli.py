"""Command-line interface.

The library's equivalent of SQL Server's
``sp_estimate_data_compression_savings``: point it at a workload (a
named scenario or explicit n/d/k parameters), pick a compression
algorithm and a sampling fraction, and get the estimate — optionally
with repeated trials, the exact answer, and the relevant analytic
bounds.

Examples::

    python -m repro algorithms
    python -m repro scenarios
    python -m repro experiments
    python -m repro estimate --scenario customer_names --fraction 0.01
    python -m repro estimate --n 1000000 --d 500 --k 20 \
        --algorithm global_dictionary --trials 50 --truth
    python -m repro estimate-batch spec.json --executor process
    echo '{"workloads": {...}, "requests": [...]}' | \
        python -m repro estimate-batch -
    python -m repro estimate-batch spec.json --store-dir ~/.repro-store
    python -m repro worker serve --port 7071 --store-dir /shared/store
    python -m repro estimate-batch spec.json --executor remote \
        --workers hostA:7071,hostB:7071 --store-dir /shared/store
    python -m repro estimate --scenario customer_names --trials 32 \
        --adaptive --tolerance 0.005
    python -m repro advise design.json --what-if --max-trials 5
    python -m repro advise design.json --what-if --no-prune \
        --executor process
    python -m repro estimate-batch spec.json --trace trace.jsonl
    python -m repro trace summarize trace.jsonl --top 5
    python -m repro serve --port 8080 --store-dir ~/.repro-store
    python -m repro cache stats --store-dir ~/.repro-store
    python -m repro cache prune --store-dir ~/.repro-store \
        --max-bytes 104857600
    python -m repro cache clear --store-dir ~/.repro-store
    python -m repro bounds theorem1 --n 100000000 --fraction 0.01
    python -m repro bounds theorem2 --n 1000000 --d 1000 --k 20 --p 2 \
        --fraction 0.01
    python -m repro bounds theorem3 --alpha 0.5 --fraction 0.01 --k 20 \
        --p 2

``estimate --trials T`` runs one ``T``-trial
:class:`~repro.engine.requests.EstimationRequest` with ``--seed`` as
both the request's seed and its private engine's master seed. Trial 0
draws with ``--seed`` itself, so ``--trials 1`` prints what
``SampleCF(...).estimate_histogram(..., seed=--seed)`` returns; trial
``j`` draws with a seed derived from ``--seed`` and ``j``.
``--adaptive`` runs a prefix of those same trials, and a non-positive
``--trials`` is an error.

The ``estimate-batch`` spec is a JSON object with named ``workloads``
(a scenario reference or explicit ``n``/``d``/``k``, optionally
``"storage": true`` to materialise a real table) and a list of
``requests`` over them; all requests run as one shared-sample
:class:`~repro.engine.engine.EstimationEngine` batch and the output
JSON reports per-request estimates plus the engine's reuse stats.

The ``advise`` spec describes a physical-design problem: named
``tables`` (workload shorthands, or ``"columns": [[name, k, d], ...]``
with ``"n"`` for a multi-column table), a ``queries`` list
(``table`` / ``columns`` / ``selectivity`` / ``weight``), and a
``storage_bound_bytes``. Both modes run one
:class:`~repro.advisor.whatif.WhatIfAdvisor` on one engine built from
``--executor``, ``--workers``, ``--store-dir`` and ``--trace``. The
default is eager: it sizes every candidate at the full trial budget,
then runs the greedy scan. ``--what-if`` selects lazily instead,
pruning candidates via Theorem 1/2 CF bounds and allocating trials
adaptively — the JSON output then includes the pruning/early-stop
report alongside the selected design (identical to the eager one for
the same seed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Sequence

from repro._version import __version__
from repro.errors import ReproError
from repro.compression.registry import get_algorithm, list_algorithms
from repro.core.bounds import (dict_large_d_bound, dict_small_d_bound,
                               ns_stddev_bound)
from repro.core.metrics import ErrorSummary, ratio_error
from repro.core.samplecf import true_cf_histogram
from repro.engine.engine import EstimationEngine
from repro.engine.requests import PartialBatchResult
from repro.faults import RetryPolicy
from repro.engine.executors import EXECUTOR_NAMES, make_executor
from repro.engine.requests import EstimationRequest
from repro.experiments.registry import list_experiments
from repro.experiments.report import fmt_bytes, format_table
from repro.store import SampleStore
from repro.workloads.generators import make_histogram
from repro.workloads.scenarios import SCENARIOS, get_scenario
from repro.advisor import WhatIfAdvisor, select_indexes, stats_for_tables
from repro.obs import Tracer, one_line, read_trace, render, summarize
# The JSON spec language is shared with the HTTP service; the builders
# live in repro.service.schemas and the CLI imports them back.
from repro.service.schemas import (advise_result_entry, build_advise,
                                   build_batch, parse_spec_text,
                                   request_result_entry)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SampleCF: estimate index compression fractions "
                    "from samples (ICDE 2010 reproduction).")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("algorithms",
                        help="list registered compression algorithms")
    commands.add_parser("scenarios", help="list workload scenarios")
    commands.add_parser("experiments",
                        help="list registered paper experiments")

    estimate = commands.add_parser(
        "estimate", help="run SampleCF on a synthetic workload")
    source = estimate.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", choices=sorted(SCENARIOS),
                        help="named workload scenario")
    source.add_argument("--n", type=int, help="rows (with --d and --k)")
    estimate.add_argument("--d", type=int, help="distinct values")
    estimate.add_argument("--k", type=int, help="CHAR column width")
    estimate.add_argument("--distribution", default="zipf",
                          help="count distribution (default: zipf)")
    estimate.add_argument("--rows", type=int, default=None,
                          help="override a scenario's row count")
    estimate.add_argument("--algorithm", default="null_suppression",
                          choices=sorted(list_algorithms()))
    estimate.add_argument("--fraction", type=float, default=0.01,
                          help="sampling fraction f (default: 0.01)")
    estimate.add_argument("--trials", type=int, default=1,
                          help="independent estimation trials (with "
                               "--adaptive: the trial budget)")
    estimate.add_argument("--adaptive", action="store_true",
                          help="staged 1/2/4/... trial allocation: stop "
                               "early once the trial-mean confidence "
                               "interval is within --tolerance of the "
                               "full-budget mean")
    estimate.add_argument("--tolerance", type=float, default=0.005,
                          help="(--adaptive) CF half-width target for "
                               "early stopping (default: 0.005)")
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--truth", action="store_true",
                          help="also compute the exact CF and the "
                               "ratio error")
    estimate.add_argument("--page-size", type=int, default=8192)
    estimate.add_argument("--store-dir", default=None,
                          help="persistent sample/estimate store "
                               "directory; repeated runs over the same "
                               "workload warm-start from disk")

    batch = commands.add_parser(
        "estimate-batch",
        help="run a JSON batch of estimates through the shared-sample "
             "engine")
    batch.add_argument("spec",
                       help="path to a JSON batch spec, or '-' for stdin")
    batch.add_argument("--seed", type=int, default=None,
                       help="override the spec's master seed")
    batch.add_argument("--executor", choices=list(EXECUTOR_NAMES),
                       default=None,
                       help="override the spec's executor choice: serial "
                            "(the default), process (forked parallel "
                            "workers; requests must be picklable), or "
                            "remote (shard across 'repro worker serve' "
                            "hosts)")
    batch.add_argument("--workers", default=None,
                       help="worker count for --executor process, or "
                            "comma-separated host:port addresses for "
                            "--executor remote (default: the "
                            "REPRO_REMOTE_WORKERS environment variable)")
    batch.add_argument("--indent", type=int, default=2,
                       help="JSON output indentation (default: 2)")
    batch.add_argument("--store-dir", default=None,
                       help="persistent sample/estimate store directory; "
                            "a repeated batch over the same workloads "
                            "reports 0 sample materializations (all "
                            "tiers served from disk)")
    batch.add_argument("--trace", default=None, metavar="FILE",
                       help="record a JSONL span trace of the run to "
                            "FILE and print a one-line summary to "
                            "stderr; estimates are bit-identical with "
                            "tracing on or off")
    batch.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="batch time budget: units past it are "
                            "skipped as typed deadline failures and "
                            "the output gains a per-unit 'outcomes' "
                            "accounting instead of erroring")
    batch.add_argument("--max-retries", type=int, default=None,
                       metavar="N",
                       help="attempts per transient store failure "
                            "before degrading to re-materialization "
                            "(default: 3; backoff is deterministic "
                            "per unit seed)")

    advise = commands.add_parser(
        "advise",
        help="run the physical-design advisor over a JSON design spec")
    advise.add_argument("spec",
                        help="path to a JSON design spec, or '-' for "
                             "stdin")
    advise.add_argument("--what-if", action="store_true",
                        help="lazy what-if mode: drive the greedy loop "
                             "through the engine, pruning candidates "
                             "whose Theorem 1/2 CF bounds cannot win "
                             "and allocating trials adaptively")
    advise.add_argument("--prune", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="(what-if) bound-based pruning; --no-prune "
                             "still runs lazily but estimates every "
                             "viable candidate at the full budget")
    advise.add_argument("--adaptive",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="(what-if) staged trial allocation; "
                             "--no-adaptive estimates survivors at "
                             "--max-trials straight away")
    advise.add_argument("--max-trials", type=int, default=None,
                        help="per-candidate trial budget (overrides the "
                             "spec's 'trials'); the what-if winner is "
                             "always estimated at the full budget, "
                             "losers may stop early")
    advise.add_argument("--fraction", type=float, default=None,
                        help="sampling fraction (overrides the spec)")
    advise.add_argument("--storage-bound", type=float, default=None,
                        help="storage bound in bytes (overrides the "
                             "spec's 'storage_bound_bytes')")
    advise.add_argument("--seed", type=int, default=None,
                        help="override the spec's master seed")
    advise.add_argument("--executor", choices=list(EXECUTOR_NAMES),
                        default=None,
                        help="how estimation batches run")
    advise.add_argument("--workers", default=None,
                        help="worker count for --executor process, or "
                             "comma-separated host:port addresses for "
                             "--executor remote")
    advise.add_argument("--store-dir", default=None,
                        help="persistent sample/estimate store; repeated "
                             "advise runs over the same spec warm-start "
                             "from disk")
    advise.add_argument("--indent", type=int, default=2,
                        help="JSON output indentation (default: 2)")
    advise.add_argument("--trace", default=None, metavar="FILE",
                        help="record a JSONL span trace of the run to "
                             "FILE and print a one-line summary to "
                             "stderr; the selected design is "
                             "bit-identical with tracing on or off")

    trace = commands.add_parser(
        "trace",
        help="inspect JSONL span traces recorded with --trace")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    trace_summarize = trace_commands.add_parser(
        "summarize",
        help="per-phase time breakdown, unit accounting, straggler "
             "analysis, and the top-N slowest units of one trace")
    trace_summarize.add_argument("trace_file",
                                 help="path to a trace JSONL file")
    trace_summarize.add_argument("--top", type=int, default=10,
                                 help="slowest-units table size "
                                      "(default: 10)")
    trace_summarize.add_argument("--format", choices=("text", "json"),
                                 default="text", dest="fmt",
                                 help="output format (default: text)")

    cache = commands.add_parser(
        "cache",
        help="inspect and maintain a persistent sample/estimate store")
    cache_commands = cache.add_subparsers(dest="cache_command",
                                          required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="entry counts, byte totals, and quarantine state")
    cache_prune = cache_commands.add_parser(
        "prune", help="evict least-recently-used entries to a budget")
    cache_prune.add_argument("--max-bytes", type=int, required=True,
                             help="target size; LRU entries are evicted "
                                  "until the store fits")
    cache_clear = cache_commands.add_parser(
        "clear", help="remove every stored sample and estimate")
    for sub in (cache_stats, cache_prune, cache_clear):
        sub.add_argument("--store-dir", required=True,
                         help="store directory to operate on")

    worker = commands.add_parser(
        "worker",
        help="run a long-lived estimation worker for --executor remote")
    worker_commands = worker.add_subparsers(dest="worker_command",
                                            required=True)
    worker_serve = worker_commands.add_parser(
        "serve",
        help="accept unit shards from remote executors until killed")
    worker_serve.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default: "
                                   "127.0.0.1)")
    worker_serve.add_argument("--port", type=int, default=0,
                              help="port to bind; 0 picks an ephemeral "
                                   "one (printed on the ready line)")
    worker_serve.add_argument("--store-dir", default=None,
                              help="persistent sample/estimate store "
                                   "shared with the parent and the "
                                   "other workers; racing shards then "
                                   "materialize each sample once")
    worker_serve.add_argument("--simulate-cost-scale", type=float,
                              default=None,
                              help="scheduler-evaluation harness: sleep "
                                   "scale*predicted_cost seconds per "
                                   "unit to emulate off-box service "
                                   "time (estimates are unaffected)")
    worker_serve.add_argument("--fail-after-units", type=int,
                              default=None, help=argparse.SUPPRESS)

    serve = commands.add_parser(
        "serve",
        help="run the estimation HTTP service over one shared engine")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind; 0 picks an ephemeral one "
                            "(printed on the ready line)")
    serve.add_argument("--seed", type=int, default=0,
                       help="engine master seed (results never depend "
                            "on it: specs are seed-normalized)")
    serve.add_argument("--window", type=float, default=0.02,
                       metavar="SECONDS",
                       help="longest a micro-batch round waits for "
                            "requests still being read; it closes as "
                            "soon as none is, and concurrent clients "
                            "in one round share an engine batch "
                            "(default: 0.02; 0 never waits)")
    serve.add_argument("--store-dir", default=None,
                       help="persistent sample/estimate store shared "
                            "by every client of this service")
    serve.add_argument("--executor", choices=list(EXECUTOR_NAMES),
                       default=None,
                       help="engine executor for coalesced batches")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker count for --executor process")
    serve.add_argument("--max-body-bytes", type=int, default=1 << 20,
                       help="reject larger request bodies with 413 "
                            "(default: 1048576)")
    serve.add_argument("--max-batch-requests", type=int, default=256,
                       help="reject larger batches with 413 "
                            "(default: 256)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="batching queue bound; a full queue "
                            "rejects with 429 (default: 64)")
    serve.add_argument("--max-concurrent", type=int, default=4,
                       help="concurrent engine execute slots; direct "
                            "(deadline/advise) runs beyond it get 503 "
                            "(default: 4)")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="record a JSONL span trace of every batch "
                            "to FILE")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    lint = commands.add_parser(
        "lint",
        help="run the repro invariant linter (determinism, "
             "picklability, lock discipline)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package source)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule codes to run "
                           "exclusively, e.g. RPL001,RPL003")
    lint.add_argument("--ignore", default=None,
                      help="comma-separated rule codes to skip")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="fmt",
                      help="output format (default: text)")
    lint.add_argument("--fixtures", default=None, metavar="DIR",
                      help="corpus mode: check that every fixture under "
                           "DIR fires exactly its declared rule codes "
                           "(exit 1 on any mismatch)")

    bounds = commands.add_parser(
        "bounds", help="evaluate the paper's analytic bounds")
    which = bounds.add_subparsers(dest="theorem", required=True)
    theorem1 = which.add_parser("theorem1",
                                help="NS std-dev bound (Theorem 1)")
    theorem1.add_argument("--n", type=int, required=True)
    theorem1.add_argument("--fraction", type=float, required=True)
    theorem2 = which.add_parser("theorem2",
                                help="dictionary small-d bound")
    theorem2.add_argument("--n", type=int, required=True)
    theorem2.add_argument("--d", type=int, required=True)
    theorem2.add_argument("--k", type=int, required=True)
    theorem2.add_argument("--p", type=int, default=2)
    theorem2.add_argument("--fraction", type=float, required=True)
    theorem3 = which.add_parser("theorem3",
                                help="dictionary large-d bound")
    theorem3.add_argument("--alpha", type=float, required=True)
    theorem3.add_argument("--k", type=int, required=True)
    theorem3.add_argument("--p", type=int, default=2)
    theorem3.add_argument("--fraction", type=float, required=True)
    return parser


def _cli_executor(name: str | None, workers: str | None):
    """Build the executor a CLI flag pair describes (or ``None``).

    ``--workers`` is overloaded the way the executors need it: an
    integer worker count for the process pool, a comma-separated
    ``host:port`` list for ``--executor remote``.
    """
    if name is None:
        return None
    if name == "remote":
        return make_executor(name, workers=workers)
    if workers is None:
        return make_executor(name)
    try:
        count = int(workers)
    except ValueError:
        raise ReproError(
            f"--workers must be an integer count for --executor "
            f"{name}; got {workers!r} (host:port lists are for "
            f"--executor remote)") from None
    return make_executor(name, max_workers=count)


def _cmd_algorithms() -> str:
    rows = []
    for name in list_algorithms():
        algorithm = get_algorithm(name)
        rows.append([name, algorithm.scope])
    return format_table(["algorithm", "scope"], rows)


def _cmd_scenarios() -> str:
    rows = [[scenario.name, f"char({scenario.k})",
             f"{scenario.default_n:,}", scenario.description]
            for scenario in SCENARIOS.values()]
    return format_table(["scenario", "type", "default n", "description"],
                        rows)


def _cmd_experiments() -> str:
    rows = [[spec.id, spec.paper_ref, spec.title,
             spec.bench_module or "(documented in EXPERIMENTS.md)"]
            for spec in list_experiments()]
    return format_table(["id", "paper ref", "title", "bench"], rows)


def _cmd_estimate(args: argparse.Namespace) -> str:
    if args.scenario is not None:
        histogram = get_scenario(args.scenario).build(args.rows,
                                                      seed=args.seed)
        workload = args.scenario
    else:
        if args.d is None or args.k is None:
            raise ReproError("--n needs --d and --k")
        histogram = make_histogram(args.n, args.d, args.k,
                                   distribution=args.distribution,
                                   seed=args.seed)
        workload = f"n={args.n:,} d={args.d:,} k={args.k}"
    algorithm = get_algorithm(args.algorithm)
    # Always a private engine, never the process-wide default one, so
    # the command's samples never pin rows in (or evict reusable
    # samples from) a shared cache. With --store-dir the engine is
    # store-backed, so the estimates persist and re-running the same
    # command is a disk read.
    engine = EstimationEngine(seed=args.seed, store=args.store_dir)
    request = EstimationRequest(
        histogram=histogram, algorithm=algorithm, fraction=args.fraction,
        trials=args.trials, seed=args.seed, page_size=args.page_size)
    lines = [f"workload  : {workload} "
             f"(n={histogram.n:,}, d={histogram.d:,}, "
             f"{histogram.dtype.name})",
             f"algorithm : {algorithm.name}",
             f"fraction  : {args.fraction:.4%}"]
    if args.adaptive:
        if args.trials <= 1:
            raise ReproError("--adaptive needs --trials > 1 (the "
                             "trial budget)")
        from repro.experiments.runner import run_request_trials_adaptive

        outcome = run_request_trials_adaptive(
            request, engine=engine, tolerance=args.tolerance)
        estimates = outcome.values
        point = outcome.mean
        status = "converged" if outcome.converged else "budget spent"
        halfwidth = (f"{outcome.halfwidth:.6f}"
                     if outcome.halfwidth is not None else "n/a")
        lines.append(f"estimate  : mean CF' = {point:.6f} over "
                     f"{outcome.trials_run}/{outcome.trials_budget} "
                     f"trials ({status}; stages "
                     f"{'/'.join(map(str, outcome.stages))}, "
                     f"mean-CI half-width {halfwidth} vs tolerance "
                     f"{args.tolerance})")
    elif args.trials == 1:
        estimate = engine.estimate(request).estimates[0]
        lines.append(f"estimate  : CF' = {estimate.estimate:.6f} "
                     f"({estimate.sample_rows:,} rows sampled, "
                     f"d' = {estimate.sample_distinct:,})")
        point = estimate.estimate
    else:
        estimates = engine.estimate(request).values
        point = float(estimates.mean())
        lines.append(f"estimate  : mean CF' = {point:.6f} over "
                     f"{args.trials} trials "
                     f"(std {float(estimates.std(ddof=1)):.6f})")
    if args.truth:
        truth = true_cf_histogram(histogram, algorithm,
                                  page_size=args.page_size)
        lines.append(f"truth     : CF  = {truth:.6f}")
        lines.append(f"ratio err : {ratio_error(truth, point):.4f}")
        if args.trials > 1:
            summary = ErrorSummary.from_estimates(truth, estimates)
            lines.append(f"bias      : {summary.bias:+.6f}   "
                         f"mean ratio err {summary.mean_ratio_error:.4f}")
    return "\n".join(lines)


def _load_batch_spec(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot read batch spec {path!r}: {exc}")
    return parse_spec_text(text, what="batch spec")


def _close_and_summarize(tracer: Tracer, path: str) -> None:
    """Finish a ``--trace`` run: flush the file, one-liner to stderr."""
    tracer.close()
    print(one_line(summarize(read_trace(path))), file=sys.stderr)


def _cmd_estimate_batch(args: argparse.Namespace) -> str:
    spec = _load_batch_spec(args.spec)
    requests, spec_seed = build_batch(spec)
    seed = args.seed if args.seed is not None else spec_seed
    executor_name = args.executor or spec.get("executor", "serial")
    store_dir = args.store_dir or spec.get("store_dir")
    tracer = (Tracer.to_path(args.trace) if args.trace is not None
              else None)
    retry_policy = (RetryPolicy(max_attempts=args.max_retries)
                    if args.max_retries is not None else None)
    engine = EstimationEngine(
        seed=seed,
        executor=_cli_executor(executor_name, args.workers),
        store=store_dir,
        tracer=tracer,
        retry_policy=retry_policy)
    plan = engine.plan(requests)
    batch = engine.execute(plan, deadline=args.deadline)
    if tracer is not None:
        _close_and_summarize(tracer, args.trace)
    results = [request_result_entry(request, result)
               for request, result in zip(requests, batch.results)]
    payload = {
        "seed": seed,
        "executor": executor_name,
        "store_dir": store_dir,
        "plan": {
            "requests": plan.num_requests,
            "unique_requests": plan.num_unique,
            "trial_units": plan.num_units,
            "samples_to_materialize": plan.num_distinct_samples,
            "sample_indexes_to_build": plan.num_index_layouts,
        },
        "results": results,
        "stats": batch.stats,
    }
    if isinstance(batch, PartialBatchResult):
        payload["deadline"] = args.deadline
        payload["complete"] = batch.complete
        payload["outcome_counts"] = batch.counts()
        payload["outcomes"] = [
            {"unit": outcome.index, "trial": outcome.trial,
             "status": outcome.status,
             **({"detail": outcome.detail} if outcome.detail else {})}
            for outcome in batch.outcomes]
    indent = args.indent if args.indent and args.indent > 0 else None
    return json.dumps(payload, indent=indent)


def _cmd_advise(args: argparse.Namespace) -> str:
    spec = _load_batch_spec(args.spec)
    overrides = {"storage_bound_bytes": args.storage_bound,
                 "fraction": args.fraction, "trials": args.max_trials,
                 "seed": args.seed}
    parsed = build_advise({**spec, **{key: value for key, value
                                      in overrides.items()
                                      if value is not None}})
    executor = _cli_executor(args.executor or spec.get("executor"),
                             args.workers)
    store_dir = args.store_dir or spec.get("store_dir")
    payload: dict[str, Any] = {
        "mode": "what-if" if args.what_if else "eager",
        "seed": parsed.seed,
        "fraction": parsed.fraction,
        "max_trials": parsed.trials,
        "algorithms": parsed.algorithms,
        "storage_bound_bytes": parsed.storage_bound_bytes,
        "store_dir": store_dir,
    }
    tracer = (Tracer.to_path(args.trace) if args.trace is not None
              else None)
    engine = EstimationEngine(seed=parsed.seed, executor=executor,
                              store=store_dir, tracer=tracer)
    advisor = WhatIfAdvisor(
        parsed.tables, parsed.queries, algorithms=parsed.algorithms,
        fraction=parsed.fraction, max_trials=parsed.trials,
        engine=engine, prune=args.prune, adaptive=args.adaptive)
    if args.what_if:
        result = advisor.advise(parsed.storage_bound_bytes)
        payload["prune"] = args.prune
        payload["adaptive"] = args.adaptive
        payload["what_if"] = result.report.as_dict()
        stats = engine.stats.snapshot()
        payload["engine"] = {
            name: stats[name]
            for name in ("trials", "samples_materialized",
                         "sample_cache_hits", "whatif_rounds",
                         "whatif_pruned", "whatif_early_stops",
                         "whatif_trials_saved")}
    else:
        result = select_indexes(
            advisor.candidates(), parsed.queries,
            stats_for_tables(parsed.tables),
            parsed.storage_bound_bytes)
    if tracer is not None:
        _close_and_summarize(tracer, args.trace)
    payload.update(advise_result_entry(result))
    indent = args.indent if args.indent and args.indent > 0 else None
    return json.dumps(payload, indent=indent)


def _cmd_trace(args: argparse.Namespace) -> str:
    """``trace summarize``: report over one recorded JSONL trace."""
    try:
        records = read_trace(args.trace_file)
    except OSError as exc:
        raise ReproError(
            f"cannot read trace {args.trace_file!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"trace {args.trace_file!r} is not valid JSONL: {exc}")
    if not records:
        raise ReproError(f"trace {args.trace_file!r} is empty")
    summary = summarize(records, top=args.top)
    if args.fmt == "json":
        return json.dumps(summary, indent=2)
    return render(summary)


def _cmd_cache(args: argparse.Namespace) -> str:
    store = SampleStore(args.store_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        rows = [
            ["samples", f"{stats['samples']['entries']:,}",
             fmt_bytes(stats["samples"]["bytes"])],
            ["estimates", f"{stats['estimates']['entries']:,}",
             fmt_bytes(stats["estimates"]["bytes"])],
            ["quarantined", f"{stats['quarantined']['entries']:,}",
             fmt_bytes(stats["quarantined"]["bytes"])],
            ["total", f"{stats['total_entries']:,}",
             fmt_bytes(stats["total_bytes"])],
        ]
        table = format_table(["kind", "entries", "bytes"], rows,
                             title=f"store {stats['root']} "
                                   f"(format {stats['format']})")
        budget = ("unbounded" if stats["max_bytes"] is None
                  else fmt_bytes(stats["max_bytes"]))
        return f"{table}\nsize budget: {budget}"
    if args.cache_command == "prune":
        outcome = store.prune(args.max_bytes)
        return (f"evicted {outcome['evicted_entries']} entries "
                f"({fmt_bytes(outcome['evicted_bytes'])}); "
                f"{fmt_bytes(outcome['remaining_bytes'])} remain")
    removed = store.clear()
    return f"removed {removed} entries from {store.root}"


def _cmd_worker(args: argparse.Namespace) -> str:
    """Run a worker loop until interrupted (``worker serve``)."""
    from repro.engine.remote import serve

    def ready(address: tuple[str, int]) -> None:
        # The machine-readable ready line spawn_local_workers waits on.
        print(f"repro-worker-ready {address[0]}:{address[1]}",
              flush=True)

    try:
        serve(host=args.host, port=args.port, store=args.store_dir,
              simulate_cost_scale=args.simulate_cost_scale,
              fail_after_units=args.fail_after_units,
              exit_on_failure=args.fail_after_units is not None,
              ready=ready)
    except KeyboardInterrupt:
        pass
    return "worker stopped"


def _cmd_serve(args: argparse.Namespace) -> str:
    """Run the estimation HTTP service until interrupted."""
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host, port=args.port, seed=args.seed,
        window=args.window, store_dir=args.store_dir,
        executor=args.executor, workers=args.workers,
        max_body_bytes=args.max_body_bytes,
        max_batch_requests=args.max_batch_requests,
        max_pending=args.max_pending,
        max_concurrent=args.max_concurrent,
        trace_path=args.trace, verbose=args.verbose)

    def ready(address: tuple[str, int]) -> None:
        # Machine-readable ready line; test harnesses wait on it the
        # same way spawn_local_workers waits on repro-worker-ready.
        print(f"repro-service-ready {address[0]}:{address[1]}",
              flush=True)

    try:
        serve(config, ready=ready)
    except KeyboardInterrupt:
        pass
    return "service stopped"


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant linter; exit 1 on any finding."""
    from repro.analysis import (lint_paths, lint_project, project_config,
                                render_findings)

    if args.fixtures is not None:
        from repro.analysis.corpus import check_corpus

        outcomes = check_corpus(pathlib.Path(args.fixtures))
        failed = [outcome for outcome in outcomes if not outcome.ok]
        for outcome in outcomes:
            status = "ok" if outcome.ok else "FAIL"
            print(f"{status:4} {outcome.spec.path}")
            for expectation in outcome.missing:
                print(f"     missing expected finding: {expectation}")
            for finding in outcome.unexpected:
                print(f"     unexpected finding: {finding}")
        print(f"{len(outcomes) - len(failed)}/{len(outcomes)} "
              f"fixtures behave as declared")
        return 1 if failed else 0

    config = project_config()
    if args.select or args.ignore:
        split = (lambda raw: tuple(
            code.strip() for code in raw.split(",") if code.strip()))
        config = config.with_filters(
            select=split(args.select) if args.select else (),
            ignore=split(args.ignore) if args.ignore else ())
    if args.paths:
        result = lint_paths([pathlib.Path(p) for p in args.paths],
                            config)
    else:
        result = lint_project(config)
    print(render_findings(result.findings, args.fmt,
                          result.checked_files))
    return 0 if result.ok else 1


def _cmd_bounds(args: argparse.Namespace) -> str:
    if args.theorem == "theorem1":
        bound = ns_stddev_bound(n=args.n, f=args.fraction)
        return (f"Theorem 1: sigma(CF'_NS) <= (1/2) sqrt(1/(f n)) = "
                f"{bound:.6g}\n(n={args.n:,}, f={args.fraction:.4%}, "
                f"r={round(args.fraction * args.n):,})")
    if args.theorem == "theorem2":
        bound = dict_small_d_bound(args.n, args.d, args.k, args.p,
                                   args.fraction)
        return (f"Theorem 2 (small d): ratio error <= {bound.bound:.6g}\n"
                f"  overestimate side : {bound.overestimate:.6g}\n"
                f"  underestimate side: {bound.underestimate:.6g}")
    bound = dict_large_d_bound(args.alpha, args.fraction, args.k, args.p)
    return (f"Theorem 3 (large d): expected ratio error <= "
            f"{bound.bound:.6g}\n"
            f"  overestimate side : {bound.overestimate:.6g}\n"
            f"  underestimate side: {bound.underestimate:.6g}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "algorithms":
            output = _cmd_algorithms()
        elif args.command == "scenarios":
            output = _cmd_scenarios()
        elif args.command == "experiments":
            output = _cmd_experiments()
        elif args.command == "estimate":
            output = _cmd_estimate(args)
        elif args.command == "estimate-batch":
            output = _cmd_estimate_batch(args)
        elif args.command == "advise":
            output = _cmd_advise(args)
        elif args.command == "trace":
            output = _cmd_trace(args)
        elif args.command == "cache":
            output = _cmd_cache(args)
        elif args.command == "worker":
            output = _cmd_worker(args)
        elif args.command == "serve":
            output = _cmd_serve(args)
        elif args.command == "lint":
            return _cmd_lint(args)
        elif args.command == "bounds":
            output = _cmd_bounds(args)
        else:  # pragma: no cover - argparse enforces choices
            parser.error(f"unknown command {args.command!r}")
            return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
