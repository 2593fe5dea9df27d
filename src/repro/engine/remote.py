"""Sharded plan execution on worker processes, remote or forked.

The engine reduces every batch to a flat list of picklable
:class:`~repro.engine.units.PlanUnit` objects whose randomness was
resolved at plan time. One dispatcher runs them on worker processes
over a length-prefixed socket protocol and merges order-tagged results
plus :class:`~repro.engine.samples.EngineStats` deltas in the parent,
for both parallel executors: :class:`RemotePlanExecutor` (long-lived
``repro worker serve`` hosts, over TCP) and
:class:`ProcessPoolPlanExecutor` (workers forked per batch, each over
one end of a ``socket.socketpair()``).

Units are placed **by sample** (:func:`placement_groups`), so each
sample is drawn and indexed once per batch and a batch's reuse counters
follow from its plan. A calibrated :class:`UnitCostModel` prices each
group; groups go out by LPT (:func:`lpt_assign`; :func:`round_robin_assign`
is the baseline) in chunks of at most ``chunk_units`` units, and an
idle worker steals whole unstarted groups. A timeout or dead worker
buries its link: survivors drain its unfinished groups, marked
degraded; with no worker left the remote executor falls back to the
pool, and the pool to the parent. Results stay bit-identical to
:class:`~repro.engine.executors.SerialExecutor` throughout — the
determinism property suite asserts it, including mid-run worker death.

Wire protocol (one 8-byte big-endian length prefix per pickled frame):

=============================  =======================================
parent -> worker               worker -> parent
=============================  =======================================
``("ping",)``                  ``("pong", info_dict)``
``("source", index, source)``  ``("installed", count)`` (remote only)
``("install", blob, store)``   ``("installed", count)`` (remote only)
``("run", positions)``         ``("results", [(pos, est, sec), ...],
                               stats_delta)`` or ``("raised", exc)``
``("shutdown",)``              ``("bye",)``
=============================  =======================================

A forked pool worker inherits its batch: the fork hands it the unit
list and the pickled store handle as process arguments, which is
memory it already holds, so the pool sends only ``run`` frames and no
table is pickled, shipped or re-hashed. A remote worker lives on
another host and inherits nothing: ``install`` precedes the first chunk
of each group it starts, carrying the group's ``(position, unit)``
pairs, pickled once per batch with their source (table or histogram)
by index, after that ``source`` frame (also encoded once per batch) if
the worker lacks it. So a unit ships only to the worker that runs it,
and a source at most once per worker. A unit that raises ends its
chunk with ``("raised", exc)``; the parent re-raises it.
Traced batches append the parent ``chunk.run`` span's
:class:`~repro.obs.SpanContext` to ``run``, and the worker appends its
units' span records to ``results`` for the parent to adopt.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import multiprocessing
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Sequence

from repro.errors import EstimationError
from repro.faults import (CircuitBreaker, FaultInjector, NullInjector,
                          injector_from_env)
from repro.sampling.base import rows_for_fraction
from repro.engine.samples import EngineStats, SampleCache
from repro.engine.units import (PlanUnit, UnitContext, _note_degraded,
                                deadline_failure, run_plan_unit)
from repro.obs import SpanContext, Tracer

#: Environment variable ``make_executor("remote")`` reads worker
#: addresses from (comma-separated ``host:port`` pairs), so string
#: executor names keep working everywhere an ``executor=`` reaches.
REMOTE_WORKERS_ENV = "REPRO_REMOTE_WORKERS"

_LENGTH = struct.Struct(">Q")

#: Refuse frames above this size — a corrupt length prefix must not
#: trigger a multi-terabyte allocation.
MAX_FRAME_BYTES = 1 << 34


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: object) -> None:
    """Send one length-prefixed pickled frame."""
    _send_body(sock, pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _send_body(sock: socket.socket, body: bytes) -> None:
    """Send a pickled frame body behind its length prefix; one
    ``sendmsg`` call sends both, so a large body is never copied."""
    view = memoryview(body)
    header = _LENGTH.pack(len(view))
    sent = sock.sendmsg([header, view]) - len(header)
    if sent < 0:
        sock.sendall(header[sent:])
        sent = 0
    if sent < len(view):
        sock.sendall(view[sent:])


def recv_frame(sock: socket.socket) -> object | None:
    """Receive one frame; ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size, allow_eof=True)
    if not header:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise EstimationError(
            f"remote frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, count: int,
                allow_eof: bool = False) -> bytearray:
    """Read ``count`` bytes; empty on an allowed EOF before the first.

    An EOF anywhere else is a torn frame. The buffer grows as bytes
    arrive, so a corrupt length prefix cannot force a large allocation,
    and the parts are never joined into a second copy.
    """
    data = bytearray()
    while len(data) < count:
        part = sock.recv(min(count - len(data), 1 << 20))
        if not part:
            if allow_eof and not data:
                return data
            raise ConnectionError("remote peer closed mid-frame")
        data += part
    return data


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
#: Relative per-sampled-row cost by algorithm class, measured against
#: trailing-mode NS (= 1.0) on the canonical clustered CHAR index.
#: These only order the LPT assignment; calibration refines the scale.
ALGORITHM_WEIGHTS = {
    "page": 0.6,
    "null_suppression": 1.0,
    "null_suppression_runs": 1.6,
    "rle": 1.1,
    "delta": 1.1,
    "prefix": 1.2,
    "dictionary": 1.3,
    "global_dictionary": 1.2,
}

#: Histograms estimate in closed form over ``d`` buckets, not ``r``
#: sampled records — orders of magnitude cheaper per sampled row.
_HISTOGRAM_DISCOUNT = 0.05


class UnitCostModel:
    """Predicts a unit's execution cost; calibrates from observations.

    ``predict`` returns abstract cost units (sampled rows x algorithm
    weight) — all LPT needs is the right *ordering*. ``observe`` folds
    measured per-unit seconds into an EMA of seconds per cost unit, per
    algorithm, so ``predict_seconds`` converges on real timings across
    batches on one executor (worker replies carry per-unit seconds).
    """

    def __init__(self, ema_alpha: float = 0.2) -> None:
        if not 0.0 < ema_alpha <= 1.0:
            raise EstimationError(
                f"EMA alpha must be in (0, 1], got {ema_alpha}")
        self.ema_alpha = ema_alpha
        self._lock = threading.Lock()
        self._seconds_per_cost: dict[str, float] = {}

    @staticmethod
    def predict(unit: PlanUnit) -> float:
        request = unit.request
        if request.is_table:
            rows = rows_for_fraction(request.table.num_rows,
                                     request.fraction)
            scale = 1.0
        else:
            rows = rows_for_fraction(request.histogram.n,
                                     request.fraction)
            scale = _HISTOGRAM_DISCOUNT
        weight = ALGORITHM_WEIGHTS.get(request.algorithm.name, 1.0)
        return max(1.0, rows * scale * weight)

    def observe(self, unit: PlanUnit, seconds: float) -> None:
        if seconds <= 0:
            return
        rate = seconds / self.predict(unit)
        name = unit.request.algorithm.name
        with self._lock:
            previous = self._seconds_per_cost.get(name)
            if previous is None:
                self._seconds_per_cost[name] = rate
            else:
                self._seconds_per_cost[name] = (
                    self.ema_alpha * rate
                    + (1.0 - self.ema_alpha) * previous)

    def predict_seconds(self, unit: PlanUnit) -> float | None:
        """Calibrated wall-clock prediction; ``None`` before any data."""
        with self._lock:
            rate = self._seconds_per_cost.get(
                unit.request.algorithm.name)
            if rate is None and self._seconds_per_cost:
                rate = (sum(self._seconds_per_cost.values())
                        / len(self._seconds_per_cost))
        if rate is None:
            return None
        return rate * self.predict(unit)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._seconds_per_cost)


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def lpt_assign(costs: Sequence[float], shards: int) -> list[list[int]]:
    """Longest-processing-time-first assignment to ``shards`` bins.

    Returns per-shard index lists, each ordered by descending cost (so
    chunked dispatch sends the expensive units first and the tail stays
    small). Ties break on index for determinism.
    """
    if shards <= 0:
        raise EstimationError(f"need a positive shard count, got {shards}")
    order = sorted(range(len(costs)),
                   key=lambda i: (-float(costs[i]), i))
    loads = [0.0] * shards
    out: list[list[int]] = [[] for _ in range(shards)]
    for index in order:
        shard = min(range(shards), key=lambda s: (loads[s], s))
        out[shard].append(index)
        loads[shard] += float(costs[index])
    return out


def round_robin_assign(costs: Sequence[float],
                       shards: int) -> list[list[int]]:
    """Cost-blind round-robin — the baseline LPT must beat."""
    if shards <= 0:
        raise EstimationError(f"need a positive shard count, got {shards}")
    out: list[list[int]] = [[] for _ in range(shards)]
    for index in range(len(costs)):
        out[index % shards].append(index)
    return out


SCHEDULERS: dict[str, Callable[[Sequence[float], int], list[list[int]]]] \
    = {"lpt": lpt_assign, "round_robin": round_robin_assign}


def makespan(costs: Sequence[float],
             assignment: list[list[int]]) -> float:
    """The slowest shard's summed cost under an assignment."""
    return max((sum(float(costs[i]) for i in shard)
                for shard in assignment), default=0.0)


class _Part(list):
    """A group split off a sample by index key. It stays where LPT put
    it, so the sample's draws (one per worker holding a part) follow
    from the plan, never from stealing."""


def placement_groups(units: Sequence[PlanUnit], positions: Sequence[int],
                     workers: int) -> list[list[int]]:
    """``positions`` grouped for placement, each group in plan order.

    Units sharing a ``sample_key`` form one group: splitting it would
    mostly duplicate its sample draw and index build, which dominate
    its cost. A ``None`` key (uncacheable unit) is a group of its own.
    A group predicted to cost more than one worker's share of the batch
    would bound the makespan on its own (a single-table advisor batch
    is one sample), so it splits by index key ``(columns, kind)`` into
    :class:`_Part` groups: each index is still built once, and only the
    sample draw repeats on each worker holding a part.
    """
    groups: dict[object, list[int]] = {}
    for position in positions:
        key = units[position].sample_key
        groups.setdefault(position if key is None else key,
                          []).append(position)
    cost = {position: UnitCostModel.predict(units[position])
            for position in positions}
    share = sum(cost.values()) / max(1, workers)
    placed: list[list[int]] = []
    for group in groups.values():
        parts: dict[tuple, list[int]] = {}
        if sum(cost[position] for position in group) > share:
            for position in group:
                request = units[position].request
                parts.setdefault((request.columns, request.kind),
                                 _Part()).append(position)
        placed.extend(parts.values() if len(parts) > 1 else [group])
    return placed


# ----------------------------------------------------------------------
# Shipping
# ----------------------------------------------------------------------
class _SourcePickler(pickle.Pickler):
    """Pickles units with each source replaced by its batch index."""

    def __init__(self, file: io.BytesIO, index: dict[int, int]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.index = index

    def persistent_id(self, obj: object) -> int | None:
        return self.index.get(id(obj))


class _SourceUnpickler(pickle.Unpickler):
    """Loads a :class:`_SourcePickler` blob against installed sources."""

    def __init__(self, blob: bytes, sources: dict[int, object]) -> None:
        super().__init__(io.BytesIO(blob))
        self.sources = sources

    def persistent_load(self, pid: int) -> object:
        return self.sources[pid]


@dataclass
class _Shipment:
    """A batch pickled once for all of its remote workers: per group its
    unit blob and its source's index, per source (table or histogram)
    its whole ``source`` frame, per position its group, and the store.
    A pool batch's is empty: its forked workers inherit the batch."""

    groups: list[bytes] = field(default_factory=list)
    source_of: list[int] = field(default_factory=list)
    sources: list[bytes] = field(default_factory=list)
    group_of: dict[int, int] = field(default_factory=dict)
    store: bytes | None = None


def _pack(units: list[PlanUnit], groups: list[list[int]],
          store: object) -> _Shipment | None:
    """Pickle a batch for its workers, or ``None`` when a unit does not
    pickle (a locally defined algorithm, say): it then runs here."""
    shipment = _Shipment(store=None if store is None else pickle.dumps(
        store, protocol=pickle.HIGHEST_PROTOCOL))
    index: dict[int, int] = {}
    try:
        for number, group in enumerate(groups):
            request = units[group[0]].request
            source = (request.table if request.is_table
                      else request.histogram)
            if id(source) not in index:
                index[id(source)] = len(shipment.sources)
                shipment.sources.append(pickle.dumps(
                    ("source", index[id(source)], source),
                    protocol=pickle.HIGHEST_PROTOCOL))
            shipment.source_of.append(index[id(source)])
            buffer = io.BytesIO()
            _SourcePickler(buffer, index).dump(
                tuple((position, units[position]) for position in group))
            shipment.groups.append(buffer.getvalue())
            shipment.group_of.update(dict.fromkeys(group, number))
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    return shipment


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _InjectedFailure(Exception):
    """Raised by the fault-injection hook to kill a connection."""


@dataclass
class WorkerState:
    """One worker process's long-lived runtime state.

    The cache, stats, and store persist across connections (that is the
    point of a long-lived worker: its memory LRU and the shared disk
    store stay warm between batches); the per-connection unit table
    does not — positions are batch-local.
    """

    context: UnitContext = field(default_factory=lambda: UnitContext(
        cache=SampleCache(), stats=EngineStats()))
    #: Per-unit sleep of ``scale * UnitCostModel.predict(unit)``
    #: seconds before executing. A scheduler-evaluation harness knob:
    #: it emulates hosts whose service time is off-box (real CPU on a
    #: remote machine, I/O), so scaling and LPT-vs-round-robin makespan
    #: can be measured independently of the parent host's core count.
    #: Estimates are unaffected.
    simulate_cost_scale: float | None = None
    #: Fault injection: abort the connection (process workers exit)
    #: after this many executed units. Tests only.
    fail_after_units: int | None = None
    #: ``True`` in worker processes: injected failures hard-exit.
    exit_on_failure: bool = False
    executed_units: int = 0

    def _maybe_fail(self) -> None:
        if self.fail_after_units is not None and \
                self.executed_units >= self.fail_after_units:
            if self.exit_on_failure:
                os._exit(17)
            raise _InjectedFailure(
                f"injected failure after {self.executed_units} units")
        # The ``pool.unit`` crash site: a simulated hard worker death.
        # Only worker processes check it, so a crash plan can never
        # take down an in-process worker's host (or the parent).
        injector = self.context.injector
        if self.exit_on_failure and injector.enabled and \
                injector.fire("pool.unit") is not None:
            os._exit(33)


def handle_connection(sock: socket.socket, state: WorkerState,
                      batch: Sequence[PlanUnit] = ()) -> str:
    """Serve one parent connection until EOF or shutdown.

    Factored out of the accept loop so tests (and the process pool)
    drive the full protocol over a ``socket.socketpair()``. ``batch``
    is the unit list a forked pool worker inherited; its positions run
    without an ``install``. Returns why the connection ended (``"eof"``
    or ``"shutdown"``).
    """
    units: dict[int, PlanUnit] = dict(enumerate(batch))
    sources: dict[int, object] = {}
    while True:
        message = recv_frame(sock)
        if message is None:
            return "eof"
        kind = message[0]
        if kind == "ping":
            send_frame(sock, ("pong", {
                "pid": os.getpid(),
                "store": (str(state.context.store.root)
                          if state.context.store is not None else None)}))
        elif kind == "source":
            sources[message[1]] = message[2]
            send_frame(sock, ("installed", len(sources)))
        elif kind == "install":
            units.update(_SourceUnpickler(message[1], sources).load())
            if message[2] is not None and state.context.store is None:
                state.context.store = pickle.loads(message[2])
            send_frame(sock, ("installed", len(units)))
        elif kind == "run":
            try:
                reply = _run_positions(
                    message[1], units, state,
                    message[2] if len(message) > 2 else None)
            except KeyError as exc:
                # A protocol error, not a crash: tell the parent (it
                # buries this worker) instead of dying replyless.
                reply = ("error", f"unit position {exc} never installed")
            send_frame(sock, reply)
        elif kind == "shutdown":
            send_frame(sock, ("bye",))
            return "shutdown"
        else:
            raise EstimationError(f"unknown remote message {kind!r}")


def _run_positions(positions: Sequence[int], units: dict[int, PlanUnit],
                   state: WorkerState,
                   trace_ctx: SpanContext | None = None) -> tuple:
    context = state.context
    collector: Tracer | None = None
    if trace_ctx is not None:
        # Traced chunk: spans buffer in a per-call collector rooted
        # under the parent's chunk.run span. The shared WorkerState
        # context is replaced, not mutated — concurrent connections
        # (and untraced ones) keep their own tracer.
        collector = Tracer.collector(trace_ctx)
        context = dataclasses.replace(context, tracer=collector)
    before = context.stats.snapshot()
    out = []
    for position in positions:
        state._maybe_fail()
        unit = units[position]
        started = time.perf_counter()
        if state.simulate_cost_scale:
            time.sleep(state.simulate_cost_scale
                       * UnitCostModel.predict(unit))
        try:
            estimate = run_plan_unit(unit, context)
        # repro-lint: ignore[RPL006] -- the unit's own error, not the
        # worker's: the parent re-raises it, as a serial run would.
        except Exception as exc:
            return ("raised", exc)
        out.append((position, estimate,
                    time.perf_counter() - started))
        state.executed_units += 1
    delta = EngineStats.delta(before, context.stats.snapshot())
    if collector is not None:
        return ("results", out, delta, collector.drain())
    return ("results", out, delta)


def serve(host: str = "127.0.0.1", port: int = 0,
          store: object = None,
          simulate_cost_scale: float | None = None,
          fail_after_units: int | None = None,
          exit_on_failure: bool = False,
          ready: Callable[[tuple[str, int]], None] | None = None,
          stop_event: threading.Event | None = None) -> None:
    """Run a worker loop: accept parents, serve the unit protocol.

    ``ready`` is called once with the bound ``(host, port)`` (port 0
    binds an ephemeral one). Each connection is served on its own
    thread — the shared state's cache and stats are thread-safe, and
    the store is cross-process-safe by construction.
    """
    state = WorkerState(simulate_cost_scale=simulate_cost_scale,
                        fail_after_units=fail_after_units,
                        exit_on_failure=exit_on_failure)
    if store is not None:
        from repro.store.store import open_store

        state.context.store = open_store(store)
    listener = socket.create_server((host, port))
    try:
        listener.settimeout(0.25)
        if ready is not None:
            ready(listener.getsockname()[:2])
        while stop_event is None or not stop_event.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            thread = threading.Thread(
                target=_serve_connection, args=(conn, state), daemon=True)
            thread.start()
    finally:
        listener.close()


def _serve_connection(conn: socket.socket, state: WorkerState,
                      batch: Sequence[PlanUnit] = ()) -> None:
    try:
        handle_connection(conn, state, batch)
    except (_InjectedFailure, ConnectionError, OSError, EOFError):
        pass  # the parent observes the drop and reassigns
    finally:
        conn.close()


#: Parent-side ends of this process's live pool links. A forked worker
#: closes all it inherited, so the parent holds each end alone: a
#: worker's exit reads as EOF on its link, and closing the link ends
#: the worker, however many batches fork at once.
_POOL_ENDS: weakref.WeakSet[socket.socket] = weakref.WeakSet()
#: Held while a worker's socketpair end is open in the parent, so no
#: other batch's fork inherits it.
_FORK_LOCK = threading.Lock()


def _serve_forked(sock: socket.socket, batch: list[PlanUnit],
                  store: bytes | None) -> None:
    """Process-pool worker body: serve one socketpair end until EOF.

    ``batch`` and ``store`` (the pickled store handle) arrive as fork
    arguments, so the worker holds the batch's units and tables in the
    memory it inherited, fingerprints included. The store is unpickled
    here for a handle of the worker's own (fresh locks and counters).
    Fault injectors arm from the inherited ``REPRO_FAULT_PLAN``, so
    chaos plans count hooks per worker.
    """
    for end in list(_POOL_ENDS):
        end.close()
    state = WorkerState(
        context=UnitContext(
            cache=SampleCache(), stats=EngineStats(),
            store=None if store is None else pickle.loads(store),
            injector=injector_from_env()),
        exit_on_failure=True)
    _serve_connection(sock, state, batch)


def start_worker_thread(store: object = None,
                        simulate_cost_scale: float | None = None,
                        fail_after_units: int | None = None,
                        ) -> tuple[tuple[str, int], Callable[[], None]]:
    """An in-process worker on an ephemeral port (tests, fake-remote).

    Returns ``(address, shutdown)``. The worker shares this process's
    interpreter but speaks the real socket protocol, so everything —
    framing, install/run/steal round trips, stats merging — exercises
    the production path.
    """
    box: dict[str, tuple[str, int]] = {}
    bound = threading.Event()
    stop = threading.Event()

    def ready(address: tuple[str, int]) -> None:
        box["address"] = address
        bound.set()

    thread = threading.Thread(
        target=serve,
        kwargs={"store": store,
                "simulate_cost_scale": simulate_cost_scale,
                "fail_after_units": fail_after_units,
                "ready": ready, "stop_event": stop},
        daemon=True)
    thread.start()
    if not bound.wait(timeout=10):
        raise EstimationError("worker thread failed to bind")

    def shutdown() -> None:
        stop.set()
        thread.join(timeout=5)

    return box["address"], shutdown


def spawn_local_workers(count: int, store_dir: str | os.PathLike | None
                        = None,
                        simulate_cost_scale: float | None = None,
                        fail_after_units: int | None = None,
                        ) -> tuple[list[subprocess.Popen],
                                   list[tuple[str, int]]]:
    """Spawn ``count`` worker *processes* on ephemeral localhost ports.

    The process form of :func:`start_worker_thread` — used by the
    benchmark and CLI-level tests. Each worker prints a
    ``repro-worker-ready HOST:PORT`` line once bound; this returns the
    processes plus their addresses. Callers terminate the processes
    when done.
    """
    if count <= 0:
        raise EstimationError(f"need a positive worker count, got {count}")
    import repro

    source_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = source_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    processes: list[subprocess.Popen] = []
    addresses: list[tuple[str, int]] = []
    try:
        for _ in range(count):
            command = [sys.executable, "-m", "repro", "worker", "serve",
                       "--host", "127.0.0.1", "--port", "0"]
            if store_dir is not None:
                command += ["--store-dir", str(store_dir)]
            if simulate_cost_scale is not None:
                command += ["--simulate-cost-scale",
                            repr(float(simulate_cost_scale))]
            if fail_after_units is not None:
                command += ["--fail-after-units", str(fail_after_units)]
            process = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
            processes.append(process)
        for process in processes:
            line = process.stdout.readline().strip()
            if not line.startswith("repro-worker-ready "):
                raise EstimationError(
                    f"worker failed to start (got {line!r})")
            host, _, port = line.split(" ", 1)[1].rpartition(":")
            addresses.append((host, int(port)))
    except Exception:
        for process in processes:
            process.terminate()
        raise
    return processes, addresses


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def parse_worker_addresses(spec: str | Sequence | None,
                           ) -> list[tuple[str, int]]:
    """Normalize a worker spec: ``"host:port,host:port"`` or pairs.

    ``None`` (or empty) falls back to ``REPRO_REMOTE_WORKERS``; an
    empty result is allowed — the executor then runs its local
    fallback, which is the documented degradation mode.
    """
    if spec is None or (isinstance(spec, str) and not spec.strip()):
        spec = os.environ.get(REMOTE_WORKERS_ENV, "")
    if isinstance(spec, str):
        entries: Sequence = [part for part in spec.split(",")
                             if part.strip()]
    else:
        entries = spec
    addresses = []
    for entry in entries:
        if isinstance(entry, str):
            host, separator, port = entry.strip().rpartition(":")
            if not separator or not host:
                raise EstimationError(
                    f"worker address {entry!r} is not host:port")
            try:
                addresses.append((host, int(port)))
            except ValueError:
                raise EstimationError(
                    f"worker address {entry!r} has a non-integer "
                    f"port") from None
        else:
            host, port = entry
            addresses.append((str(host), int(port)))
    return addresses


#: Longest an idle dispatch driver sleeps between checks. Every change
#: it acts on notifies it sooner; this bounds only a lost wake-up.
_IDLE_WAIT = 1.0


class _WorkerLink:
    """One parent-held connection to a worker, plus its dispatch queues.

    Both hold groups (position lists). Idle peers steal unstarted
    groups from ``queue``; ``pinned`` holds what must run here: parts
    LPT placed here, and the unsent rest of a group this worker began.
    """

    def __init__(self, address: tuple[str, int], timeout: float,
                 sock: socket.socket | None = None) -> None:
        self.address = address
        self.timeout = timeout
        self.sock = sock
        if sock is not None:
            sock.settimeout(timeout)
        #: The forked worker behind a process-pool link.
        self.process: multiprocessing.process.BaseProcess | None = None
        self.queue: deque[list[int]] = deque()
        self.pinned: deque[list[int]] = deque()
        self.dead = False

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def connect(self, connect_timeout: float) -> bool:
        try:
            self.sock = socket.create_connection(
                self.address, timeout=connect_timeout)
            self.sock.settimeout(self.timeout)
            send_frame(self.sock, ("ping",))
            reply = recv_frame(self.sock)
            return isinstance(reply, tuple) and reply[0] == "pong"
        except (OSError, ConnectionError, pickle.PickleError):
            self.close()
            return False

    def request(self, message: object) -> tuple:
        return self.exchange(
            pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))

    def exchange(self, body: bytes) -> tuple:
        """One round trip with an already-pickled frame body."""
        assert self.sock is not None
        _send_body(self.sock, body)
        reply = recv_frame(self.sock)
        if reply is None:
            raise ConnectionError(
                f"worker {self.address} closed the connection")
        return reply

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None


class RemotePlanExecutor:
    """Shard plan units across remote worker processes.

    Parameters
    ----------
    workers:
        ``"host:port,host:port"``, a sequence of addresses, or ``None``
        to read ``REPRO_REMOTE_WORKERS``. Unreachable workers are
        skipped; with none reachable the batch runs on the local
        fallback (:class:`ProcessPoolPlanExecutor`).
    scheduler:
        ``"lpt"`` (default) or ``"round_robin"`` — how predicted group
        costs map to initial shards.
    chunk_units:
        Most units per ``run`` round trip. Small chunks bound the work
        lost to a dying worker, a round trip's exposure to ``timeout``,
        and how far a deadline can be overrun.
    steal:
        Whether idle workers steal half of the largest remaining queue.
    timeout:
        Per-round-trip socket timeout (seconds); an expiry counts as a
        worker failure and the shard's units are reassigned.
    max_local_workers:
        Pool size for the local fallback.

    Determinism: unit randomness is resolved at plan time and workers
    funnel through the same :func:`~repro.engine.units.run_plan_unit`
    as every other executor, so results are bit-identical to
    :class:`~repro.engine.executors.SerialExecutor` no matter how the
    batch lands on workers, which workers die, or whether the fallback
    runs — only the stats accounting differs.
    """

    name = "remote"

    def __init__(self, workers: str | Sequence | None = None,
                 scheduler: str = "lpt",
                 chunk_units: int = 4,
                 steal: bool = True,
                 timeout: float = 600.0,
                 connect_timeout: float = 5.0,
                 max_local_workers: int | None = None,
                 cost_model: UnitCostModel | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 0,
                 injector: FaultInjector | NullInjector | None = None,
                 ) -> None:
        self.addresses = parse_worker_addresses(workers)
        if scheduler not in SCHEDULERS:
            raise EstimationError(
                f"unknown scheduler {scheduler!r}; known: "
                f"{sorted(SCHEDULERS)}")
        if chunk_units <= 0:
            raise EstimationError(
                f"need a positive chunk size, got {chunk_units}")
        self.scheduler = scheduler
        self.chunk_units = chunk_units
        self.steal = steal
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_local_workers = max_local_workers
        self.cost_model = cost_model or UnitCostModel()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.injector = (injector if injector is not None
                         else injector_from_env())
        # Links and breakers persist across batches: a live link keeps
        # its socket (and the worker keeps its warm cache/store) from
        # one run() to the next; a dead one is retried through its
        # address's circuit breaker, which is what lets a worker that
        # died and *restarted* between batches rejoin instead of
        # staying buried forever. One batch at a time per executor —
        # run() holds _batch_lock for its whole span.
        self._batch_lock: ContextManager[object] = threading.Lock()
        self._links: dict[tuple[str, int], _WorkerLink] = {}
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}

    # -- public entry --------------------------------------------------
    def run(self, units: Sequence[PlanUnit],
            context: UnitContext | None = None) -> list:
        units = list(units)
        for unit in units:
            if not isinstance(unit, PlanUnit):
                raise EstimationError(
                    f"the {self.name} executor ships PlanUnit objects "
                    f"to workers; got {type(unit).__name__}")
        if context is None:
            context = UnitContext(cache=SampleCache(8),
                                  stats=EngineStats())
        results: list = [None] * len(units)
        pending = [position for position, unit in enumerate(units)
                   if not unit.request.seed_is_opaque()]
        if pending:
            with self._batch_lock:
                groups = placement_groups(units, pending, self._slots())
                shipment = self._ship(units, groups, context)
                links = (self._connect(context, units, groups)
                         if shipment else [])
                try:
                    if shipment and links:
                        pending = self._dispatch(groups, _DispatchState(
                            units, results, context, links, shipment))
                finally:
                    self._release(links, context)
            if pending:
                # Leftovers of a dispatch were marked degraded when their
                # worker was buried; with no worker reachable at all,
                # landing here is the degradation itself. Units that do
                # not pickle just run here.
                unreached = bool(shipment and not links and self.addresses)
                self._finish_pending(
                    units, pending, results, context,
                    "remote_fallback" if unreached else None,
                    self._run_fallback if shipment else _run_here)
        # Opaque Generator seeds cannot ship (pickling would fork the
        # stream); they run in the parent.
        _run_here(units, [position for position, unit in enumerate(units)
                          if unit.request.seed_is_opaque()],
                  results, context)
        return results

    @staticmethod
    def _finish_pending(units: list[PlanUnit], pending: list[int],
                        results: list, context: UnitContext,
                        reason: str | None, fallback: Callable) -> None:
        """Resolve positions no worker completed.

        Past-deadline leftovers become typed failures; the rest run on
        ``fallback``, each marked degraded for ``reason`` when one is
        given so a :class:`~repro.engine.requests.PartialBatchResult`
        reports it (values stay bit-identical either way).
        """
        if context.deadline is not None and context.deadline.expired:
            for position in pending:
                results[position] = deadline_failure(units[position],
                                                     context)
            return
        if reason is not None:
            for position in pending:
                _note_degraded(context, units[position], reason)
        context.stats.add("remote_fallback_units", len(pending))
        fallback(units, pending, results, context)

    def close(self) -> None:
        """Drop all warm links and breaker history (e.g. at shutdown)."""
        with self._batch_lock:
            for link in self._links.values():
                link.close()
            self._links.clear()
            self._breakers.clear()

    # -- connection management -----------------------------------------
    def _ship(self, units: list[PlanUnit], groups: list[list[int]],
              context: UnitContext) -> _Shipment | None:
        """The batch pickled for workers that hold none of it, or
        ``None`` when a unit does not pickle (it then runs here)."""
        return _pack(units, groups, context.store)

    def _connect(self, context: UnitContext, units: list[PlanUnit],
                 groups: list[list[int]]) -> list[_WorkerLink]:
        """Collect this batch's usable links, reviving dead ones.

        Live links from the previous batch are reused as-is (socket,
        worker cache, and shipped store all stay warm). A dead or
        never-connected address goes through its circuit breaker:
        while open, the address is skipped without a connect attempt
        (``breaker_open_skips``); when the breaker half-opens, one
        probe reconnect is tried (``breaker_probes``), and on success
        (``breaker_reconnects``) the restarted worker rejoins the
        rotation — the fix for restarted workers staying buried.
        """
        links = []
        stats = context.stats
        for address in self.addresses:
            breaker = self._breakers.get(address)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown)
                self._breakers[address] = breaker
            link = self._links.get(address)
            if link is None:
                link = _WorkerLink(address, self.timeout)
                self._links[address] = link
            if link.dead or link.sock is None:
                if not breaker.allow():
                    stats.add("breaker_open_skips")
                    context.tracer.event("breaker.skip", worker=link.name)
                    continue
                probing = breaker.state == "half_open"
                if probing:
                    stats.add("breaker_probes")
                link.close()
                link.dead = False
                if link.connect(self.connect_timeout):
                    breaker.record_success()
                    if probing:
                        stats.add("breaker_reconnects")
                        context.tracer.event("breaker.reconnect",
                                             worker=link.name)
                else:
                    link.dead = True
                    breaker.record_failure()
                    continue
            links.append(link)
        return links

    def _release(self, links: list[_WorkerLink],
                 context: UnitContext) -> None:
        """End a batch's use of its links (remote links stay warm)."""

    def _slots(self) -> int:
        """How many workers a batch is placed for."""
        return len(self.addresses)

    # -- dispatch core -------------------------------------------------
    def _dispatch(self, groups: list[list[int]],
                  state: _DispatchState) -> list[int]:
        """Run ``groups`` on ``state.links``; returns the positions left.

        Re-raises the first exception a unit raised on a worker.
        """
        costs = [sum(self.cost_model.predict(state.units[position])
                     for position in group) for group in groups]
        assignment = SCHEDULERS[self.scheduler](costs, len(state.links))
        for link, shard in zip(state.links, assignment):
            link.queue, link.pinned = deque(), deque()
            for index in shard:
                group = groups[index]
                (link.pinned if isinstance(group, _Part)
                 else link.queue).append(group)
        tracer = state.context.tracer
        with tracer.span("shard.dispatch", workers=len(state.links),
                         units=sum(map(len, groups)),
                         scheduler=self.scheduler) as dispatch_span:
            parent_ctx = (dispatch_span.context if tracer.enabled
                          else None)
            threads = [threading.Thread(target=self._drive_worker,
                                        args=(link, state, parent_ctx),
                                        daemon=True)
                       for link in state.links]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if state.error is not None:
            raise state.error
        self._publish_calibration(state, state.context)
        with state.lock:
            return [position for group in groups for position in group
                    if position not in state.done]

    def _drive_worker(self, link: _WorkerLink, state: _DispatchState,
                      parent_ctx: SpanContext | None = None) -> None:
        tracer = state.context.tracer
        # The groups and sources this batch has shipped to the worker.
        # A forked pool worker inherited the batch, so it is sent none.
        installed: set[int] = set()
        sources: set[int] = set()
        try:
            # Driver threads run outside the dispatching thread's span
            # stack; re-attach under shard.dispatch so chunk spans nest.
            with tracer.attach(parent_ctx):
                while True:
                    chunk = self._next_chunk(link, state)
                    if not chunk:
                        return
                    if link.process is None:
                        for group in sorted(
                                {state.shipment.group_of[position]
                                 for position in chunk} - installed):
                            self._install(link, state, group, sources)
                            installed.add(group)
                    with tracer.span("chunk.run", worker=link.name,
                                     units=len(chunk)) as chunk_span:
                        if tracer.enabled:
                            reply = self._injected_request(
                                link, state,
                                ("run", chunk, chunk_span.context))
                        else:
                            reply = self._injected_request(
                                link, state, ("run", chunk))
                        if reply[0] == "raised":
                            # A unit's own error ends the batch (peers
                            # stop at their next chunk); the worker is
                            # fine, and _dispatch re-raises the error.
                            with state.lock:
                                state.error = state.error or reply[1]
                                state.wake.notify_all()
                            return
                        if reply[0] != "results":
                            raise ConnectionError(
                                f"unexpected reply {reply[0]!r} from "
                                f"{link.address}")
                        _, rows, delta, *spans = reply
                        with state.lock:
                            for position, estimate, seconds in rows:
                                state.results[position] = estimate
                                state.done.add(position)
                                unit = state.units[position]
                                predicted = \
                                    self.cost_model.predict_seconds(unit)
                                if predicted is not None and seconds > 0:
                                    state.predicted_error_abs += abs(
                                        predicted - seconds) / seconds
                                    state.compared_units += 1
                                state.observed_seconds += seconds
                                state.observed_units += 1
                                self.cost_model.observe(unit, seconds)
                            state.in_flight.pop(link, None)
                            state.wake.notify_all()
                    if spans:
                        tracer.adopt(spans[0])
                    state.context.stats.merge(delta)
                    state.context.stats.add("remote_units", len(rows))
        except (ConnectionError, OSError, socket.timeout,
                pickle.PickleError, EstimationError):
            self._bury_worker(link, state)
        finally:
            # Only dead links close here — a live one stays warm for
            # the next batch (see _connect).
            if link.dead:
                link.close()

    @staticmethod
    def _install(link: _WorkerLink, state: _DispatchState, group: int,
                 sources: set[int]) -> None:
        """Ship one group's units, after their source if it is new here
        (its frame was encoded once, so it is sent without a copy)."""
        shipment = state.shipment
        source = shipment.source_of[group]
        replies: list[tuple] = [] if source in sources else [
            link.exchange(shipment.sources[source])]
        replies.append(link.request(
            ("install", shipment.groups[group], shipment.store)))
        if any(reply[0] != "installed" for reply in replies):
            raise ConnectionError(
                f"unexpected reply {replies!r} from {link.address}")
        sources.add(source)

    def _injected_request(self, link: _WorkerLink,
                          state: _DispatchState,
                          message: object) -> tuple:
        """One ``run`` round trip, through the remote fault hooks.

        ``remote.send`` may drop (a raised ``ConnectionError`` — the
        normal burial path absorbs it) or delay the request;
        ``remote.recv`` may drop the reply after the worker already
        executed the chunk, which is the nastier case: the parent must
        re-run units whose results it never saw without double-counting
        the ones it did.
        """
        injector = self.injector
        if injector.enabled:
            spec = injector.fire("remote.send")
            if spec is not None:
                state.context.stats.add("faults_injected")
                state.context.tracer.event(
                    "fault.inject", site="remote.send", kind=spec.kind,
                    worker=link.name)
                if spec.kind == "drop":
                    raise ConnectionError(
                        f"injected remote.send drop to {link.address}")
                time.sleep(float(spec.arg))
        reply = link.request(message)
        if injector.enabled:
            spec = injector.fire("remote.recv")
            if spec is not None:
                state.context.stats.add("faults_injected")
                state.context.tracer.event(
                    "fault.inject", site="remote.recv", kind=spec.kind,
                    worker=link.name)
                raise ConnectionError(
                    f"injected remote.recv drop from {link.address}")
        return reply

    def _publish_calibration(self, state: _DispatchState,
                             context: UnitContext) -> None:
        """Expose cost-model calibration as gauges in the tracer's metrics.

        ``cost_model.seconds_per_cost.<algorithm>`` is the EMA rate the
        model converged to; ``cost_model.mean_abs_rel_error`` is the
        mean |predicted - observed| / observed over units that had a
        prediction *before* their observation folded in — the metric
        ``bench_remote_executor`` asserts calibration quality on. They
        are wall-clock figures, so they stay out of the batch stats,
        which print next to the estimates and repeat run to run.
        """
        if not context.tracer.enabled:
            return
        with state.lock:
            observed_units = state.observed_units
            compared = state.compared_units
            error = state.predicted_error_abs
            observed_seconds = state.observed_seconds
        if not observed_units:
            return
        gauge = context.tracer.metrics.gauge
        for name, rate in self.cost_model.snapshot().items():
            gauge(f"cost_model.seconds_per_cost.{name}").set(rate)
        gauge("cost_model.observed_units").set(observed_units)
        gauge("cost_model.observed_seconds").set(observed_seconds)
        if compared:
            gauge("cost_model.mean_abs_rel_error").set(error / compared)
            gauge("cost_model.compared_units").set(compared)

    def _next_chunk(self, link: _WorkerLink,
                    state: _DispatchState) -> list[int]:
        """Pop this worker's next chunk, stealing when its queues dry.

        A chunk holds at most ``chunk_units`` units, pinned work first;
        a group that does not fit leaves its rest pinned, so no group
        spans two live workers. An idle worker does not exit while any
        peer is still busy: a peer may yet die and orphan its groups,
        and a live worker is the cheapest place to retry them. It waits
        on ``state.wake``, which every change it could act on notifies
        (a chunk's results landing, a burial, a unit raising), so the
        last idle driver sees the batch end at once.
        """
        with state.lock:
            while True:
                deadline = state.context.deadline
                if state.error is not None or (
                        deadline is not None and deadline.expired):
                    # Past-budget units stay queued; run() turns every
                    # leftover into a typed deadline failure.
                    return []
                if not link.pinned and not link.queue:
                    self._steal_into(link, state)
                if link.pinned or link.queue:
                    chunk: list[int] = []
                    pieces = []
                    while len(chunk) < self.chunk_units and (
                            link.pinned or link.queue):
                        piece = (link.pinned or link.queue).popleft()
                        room = self.chunk_units - len(chunk)
                        if len(piece) > room:
                            link.pinned.appendleft(piece[room:])
                            piece = piece[:room]
                        pieces.append(piece)
                        chunk.extend(piece)
                    # Record in-flight so a mid-chunk death requeues.
                    state.in_flight[link] = pieces
                    return chunk
                busy = any(
                    other is not link and not other.dead
                    and (other.pinned or other.queue
                         or state.in_flight.get(other))
                    for other in state.links)
                if not busy and not state.orphans:
                    return []
                state.wake.wait(_IDLE_WAIT)

    def _steal_into(self, thief: _WorkerLink,
                    state: _DispatchState) -> None:
        """Move whole unstarted groups into an idle worker's queue.

        Orphans (a dead worker's groups) come first; otherwise the
        thief takes the tail half of the longest live queue. The caller
        holds the dispatch lock.
        """
        if state.orphans:
            taken = [state.orphans.popleft()
                     for _ in range(max(1, len(state.orphans) // 2))]
            thief.queue.extend(taken)
            units = sum(map(len, taken))
            state.context.stats.add("remote_retried_units", units)
            state.context.tracer.event(
                "steal", thief=thief.name, source="orphans", units=units,
                orphans_left=len(state.orphans))
            return
        if not self.steal:
            return
        victim = max((link for link in state.links
                      if link is not thief and not link.dead),
                     key=lambda link: len(link.queue), default=None)
        if victim is None or len(victim.queue) < 2:
            return
        taken = [victim.queue.pop()  # steal the tail
                 for _ in range(len(victim.queue) // 2)]
        thief.queue.extend(taken)
        state.context.stats.add("remote_steals", 1)
        state.context.tracer.event(
            "steal", thief=thief.name, source="victim",
            victim=victim.name, units=sum(map(len, taken)),
            victim_left=sum(map(len, victim.queue)))

    def _bury_worker(self, link: _WorkerLink,
                     state: _DispatchState) -> None:
        """Requeue a dead worker's unfinished groups; mark them degraded."""
        with state.lock:
            link.dead = True
            requeue = (state.in_flight.pop(link, []) + list(link.pinned)
                       + list(link.queue))
            link.pinned.clear()
            link.queue.clear()
            state.orphans.extend(requeue)
            fresh = [position for group in requeue for position in group
                     if position not in state.degraded]
            state.degraded.update(fresh)
            state.wake.notify_all()
        for position in fresh:
            _note_degraded(state.context, state.units[position],
                           "worker_death")
        breaker = self._breakers.get(link.address)
        if breaker is not None:
            breaker.record_failure()
        state.context.stats.add("remote_worker_failures", 1)
        state.context.tracer.event(
            "worker.failed", worker=link.name,
            requeued=sum(map(len, requeue)))

    # -- fallback ------------------------------------------------------
    def _run_fallback(self, units: list[PlanUnit], positions: list[int],
                      results: list, context: UnitContext) -> None:
        """No remote worker is left: run ``positions`` on the local pool."""
        subset = [units[position] for position in positions]
        with context.tracer.span("remote.fallback", units=len(subset)):
            values = ProcessPoolPlanExecutor(
                max_workers=self.max_local_workers).run(subset, context)
        for position, value in zip(positions, values):
            results[position] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RemotePlanExecutor(workers={self.addresses!r}, "
                f"scheduler={self.scheduler!r}, "
                f"chunk_units={self.chunk_units}, steal={self.steal})")


class ProcessPoolPlanExecutor(RemotePlanExecutor):
    """Run units on worker processes forked per batch, in unit order.

    For compress-heavy batches on multi-core machines: the byte-level
    compression loops are pure Python, so only processes parallelize
    them. A configuration of the remote dispatch, not a second
    implementation: ``run`` forks up to ``max_workers`` workers (one per
    group at most; the ``fork`` context), and each serves
    :func:`handle_connection` over a ``socket.socketpair()``. A batch
    owns its workers, so concurrent ``run`` calls proceed in parallel.

    * Workers are forked with the batch already in them, so only
      ``run`` frames cross and units need not pickle. Opaque
      ``Generator`` seeds still run in the parent (a worker's copy of
      the stream would fork it).
    * Units sharing a sample run on one worker against its fresh private
      cache (and the engine's store, if any, as a shared disk tier), so
      estimates *and* a cold batch's reuse counters equal serial's —
      unless a sample outweighs one worker's share of the batch and
      splits by index key (see :func:`placement_groups`).
    * A worker death requeues its unfinished groups on the survivors
      (``remote_worker_failures``, ``degraded`` outcomes); with no worker
      left, the rest runs here in the parent.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise EstimationError(
                f"need a positive worker count, got {max_workers}")
        super().__init__(workers=())
        self.max_workers = max_workers or min(8, (os.cpu_count() or 2))
        self._batch_lock = contextlib.nullcontext()

    def _slots(self) -> int:
        return self.max_workers

    def _ship(self, units: list[PlanUnit], groups: list[list[int]],
              context: UnitContext) -> _Shipment | None:
        """Nothing to pickle: the workers inherit the batch by fork."""
        return _Shipment()

    def _connect(self, context: UnitContext, units: list[PlanUnit],
                 groups: list[list[int]]) -> list[_WorkerLink]:
        """Fork the batch's workers, each holding the batch (``pool.fork``).

        The unit list and the pickled store handle are fork arguments,
        handed over as memory, so no unit or table is pickled. With a
        store, every source's fingerprint is memoized first, so the
        workers inherit it instead of hashing each heap again.
        """
        count = min(self.max_workers, len(groups))
        mp_context = multiprocessing.get_context("fork")
        store: bytes | None = None
        links: list[_WorkerLink] = []
        with context.tracer.span("pool.fork", workers=count):
            if context.store is not None:
                from repro.store.fingerprint import source_fingerprint

                for group in groups:
                    source_fingerprint(units[group[0]])
                store = pickle.dumps(context.store,
                                     protocol=pickle.HIGHEST_PROTOCOL)
            try:
                for _ in range(count):
                    with _FORK_LOCK:
                        ours, theirs = socket.socketpair()
                        _POOL_ENDS.add(ours)
                        link = _WorkerLink(("local", 0), self.timeout, ours)
                        links.append(link)
                        link.process = mp_context.Process(
                            target=_serve_forked,
                            args=(theirs, units, store), daemon=True)
                        try:
                            link.process.start()
                        finally:
                            theirs.close()
                    link.address = ("local", link.process.pid or 0)
            except BaseException:
                self._release(links, context)
                raise
        return links

    def _release(self, links: list[_WorkerLink],
                 context: UnitContext) -> None:
        """Close every link (EOF ends its worker), then reap the workers
        (``pool.reap``)."""
        with context.tracer.span("pool.reap", workers=len(links)):
            for link in links:
                link.close()
            for link in links:
                if link.process is not None and \
                        link.process.pid is not None:
                    link.process.join(timeout=5)
                    if link.process.is_alive():
                        link.process.terminate()
                        link.process.join()

    def _run_fallback(self, units: list[PlanUnit], positions: list[int],
                      results: list, context: UnitContext) -> None:
        """No worker is left: run ``positions`` here in the parent, which
        never checks the ``pool.unit`` crash site."""
        _run_here(units, positions, results, context)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolPlanExecutor(max_workers={self.max_workers})"


def _run_here(units: list[PlanUnit], positions: list[int], results: list,
              context: UnitContext) -> None:
    """Run ``positions`` on the calling thread, honouring the deadline."""
    for position in positions:
        unit = units[position]
        if context.deadline is not None and context.deadline.expired:
            results[position] = deadline_failure(unit, context)
        else:
            results[position] = run_plan_unit(unit, context)


@dataclass
class _DispatchState:
    """Shared bookkeeping for one dispatch round."""

    units: list[PlanUnit]
    results: list
    context: UnitContext
    links: list[_WorkerLink]
    shipment: _Shipment
    #: The first exception a unit raised on a worker; it stops the
    #: batch, and ``_dispatch`` re-raises it.
    error: BaseException | None = None
    # repro-lint: ignore[RPL003] -- parent-side dispatch bookkeeping,
    # shared across dispatcher threads and never pickled or shipped
    # (workers receive unit blobs, not _DispatchState).
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Idle drivers wait on this (over ``lock``) until a chunk's
    #: results land, a worker is buried or a unit raises.
    # repro-lint: ignore[RPL003] -- parent-side dispatch bookkeeping,
    # shared across dispatcher threads and never pickled or shipped
    # (workers receive unit blobs, not _DispatchState).
    wake: threading.Condition = field(init=False)
    done: set[int] = field(default_factory=set)
    orphans: deque[list[int]] = field(default_factory=deque)
    in_flight: dict[_WorkerLink, list[list[int]]] = field(
        default_factory=dict)
    #: Positions already marked degraded by a burial (marked once even
    #: if a retry's worker dies too).
    degraded: set[int] = field(default_factory=set)
    #: Cost-model calibration accumulators (guarded by ``lock``):
    #: summed |predicted - observed| / observed over units that had a
    #: pre-observation prediction, plus raw observed totals.
    predicted_error_abs: float = 0.0
    observed_seconds: float = 0.0
    observed_units: int = 0
    compared_units: int = 0

    def __post_init__(self) -> None:
        self.wake = threading.Condition(self.lock)
