"""Multi-tenant micro-batching: coalesce concurrent clients' requests.

The engine already does the hard part — ``execute()`` dedupes a batch
into a shared-sample plan, and content-keyed seeding makes every
request's result independent of what else rode in the batch. What a
service needs on top is small: hold a round open while other clients'
requests are on their way, run them as *one* engine batch, and hand
each client back exactly its own slice. Cross-client duplicate specs
then collapse inside the engine (one sample materialization, counted
by ``sample_cache_hits`` / ``samples_materialized``), which is the
whole point of fronting one warm engine with many clients.

Protocol (leader/follower):

* the front end counts the requests on their way to
  :meth:`MicroBatcher.submit` with :meth:`MicroBatcher.arrive`. A
  request stops counting when it submits (its count becomes its queue
  entry under the batcher's lock) or when it is known not to
  (:meth:`Arrival.close`);
* a submitter finding no collection round open becomes the **leader**:
  it opens the round and waits until no other request is on its way
  and no connection waits to be accepted
  (:attr:`MicroBatcher.connection_waiting`), or until the window
  expires, whichever comes first. It then atomically drains the queue
  (closing the round under the same lock, so late arrivals open a
  fresh one), executes the coalesced batch, and publishes each
  submission's result slice. ``window`` caps the wait; a window of 0
  never waits;
* every other submitter is a **follower**: it appends to the open
  round's queue and blocks on its own event until the leader (of
  whatever round it landed in) publishes.

A round that closes before its window ran out counts in
``early_closes``. With a tracer on the engine, each submission records
a ``batch.window`` span: from submit to round close for the leader, to
its results for a follower.

Determinism: results are bit-identical to serial one-at-a-time
submission because batch composition never influences a request's
seeds (locked by the engine determinism suite, re-asserted
service-shaped in ``tests/test_service.py``).

Degradation is typed, never a wrong number: a full queue raises
:class:`~repro.service.errors.TooManyRequests` (429) before enqueueing,
and execute slots are bounded by a semaphore — leaders block on it
(their clients are already waiting), while direct/unbatched paths use
:meth:`try_execute_slot` and turn contention into a 503.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.service.errors import ServiceOverloaded, TooManyRequests

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EstimationEngine
    from repro.engine.requests import (EstimationRequest, RequestResult)

#: How often a leader re-checks a connection that waits in the listen
#: backlog: accepting it counts it, which wakes no one.
_BACKLOG_POLL = 0.001


@dataclass
class _Submission:
    """One client's requests plus the rendezvous for its results."""

    requests: "tuple[EstimationRequest, ...]"
    # repro-lint: ignore[RPL003] -- service-side rendezvous state: a
    # submission lives only in the serving process for the span of one
    # collection round, passed between handler threads and the round
    # leader, never pickled or shipped (the engine's executors receive
    # PlanUnit lists, not submissions).
    done: threading.Event = field(default_factory=threading.Event)
    results: "tuple[RequestResult | None, ...] | None" = None
    stats: "dict | None" = None
    coalesced_with: int = 0
    #: The ``engine.execute`` span of the batch it ran in (traced only).
    batch_span: str | None = None
    error: BaseException | None = None


class Arrival:
    """One request counted as on its way to :meth:`MicroBatcher.submit`."""

    __slots__ = ("_batcher", "open")

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self.open = True

    def close(self) -> None:
        """Stop counting: the request will not submit (idempotent)."""
        with self._batcher._lock:
            self._batcher._release(self)


class MicroBatcher:
    """Request coalescing over one shared engine, closed when idle."""

    def __init__(self, engine: "EstimationEngine",
                 window: float = 0.02,
                 max_pending: int = 256,
                 max_concurrent: int = 4) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.engine = engine
        self.window = float(window)
        self.max_pending = int(max_pending)
        #: Whether a connection waits in the listen backlog, not yet
        #: accepted; the HTTP server installs its probe here.
        self.connection_waiting: Callable[[], bool] = lambda: False
        self._lock = threading.Lock()
        # Notified whenever the arrival count drops to zero.
        self._idle = threading.Condition(self._lock)
        self._arriving = 0
        self._queue: list[_Submission] = []
        self._collecting = False
        self._slots = threading.BoundedSemaphore(int(max_concurrent))
        self.counters = {
            "submissions": 0,
            "submitted_requests": 0,
            "rounds": 0,
            "early_closes": 0,
            "coalesced_rounds": 0,
            "coalesced_submissions": 0,
            "largest_round": 0,
            "rejected_queue_full": 0,
            "rejected_no_slot": 0,
        }

    # ------------------------------------------------------------------
    # Execute-slot guardrail (shared with the service's direct paths)
    # ------------------------------------------------------------------
    @contextmanager
    def execute_slot(self) -> Iterator[None]:
        """Blocking slot acquisition (for leaders: clients already wait)."""
        self._slots.acquire()
        try:
            yield
        finally:
            self._slots.release()

    @contextmanager
    def try_execute_slot(self) -> Iterator[None]:
        """Non-blocking slot acquisition for direct (unbatched) runs."""
        if not self._slots.acquire(blocking=False):
            with self._lock:
                self.counters["rejected_no_slot"] += 1
            raise ServiceOverloaded(
                "all execute slots are busy; retry shortly or submit "
                "without a deadline to ride the shared batch")
        try:
            yield
        finally:
            self._slots.release()

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def arrive(self) -> Arrival:
        """Count one request on its way to :meth:`submit`.

        An open round waits for it until it submits or closes, up to
        the window.
        """
        with self._lock:
            self._arriving += 1
        return Arrival(self)

    def _release(self, arrival: Arrival | None) -> None:
        """Uncount ``arrival`` once; the caller holds ``_lock``."""
        if arrival is None or not arrival.open:
            return
        arrival.open = False
        self._arriving -= 1
        if not self._arriving:
            self._idle.notify_all()

    def _collect(self) -> bool:
        """Hold the open round until nobody else is coming (``True``)
        or the window expires (``False``)."""
        if self.window <= 0:
            return False
        deadline = time.monotonic() + self.window
        while True:
            # Probe the backlog before reading the count: a connection
            # is counted from just before it is accepted, so one that
            # is in neither place now arrived after this check.
            waiting = self.connection_waiting()
            with self._lock:
                if not self._arriving and not waiting:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, _BACKLOG_POLL)
                                if waiting else remaining)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, requests: "Sequence[EstimationRequest]",
               arrival: Arrival | None = None) -> _Submission:
        """Run ``requests`` through a coalesced batch; block for results.

        ``arrival``, the caller's count from :meth:`arrive`, turns into
        the queue entry under one lock, so an open round never sees the
        request as neither coming nor queued.

        Returns the completed submission: ``results`` aligned with
        ``requests``, ``stats`` the shared batch's counter snapshot,
        and ``coalesced_with`` the number of *other* submissions that
        shared the engine batch.
        """
        submission = _Submission(requests=tuple(requests))
        with self.engine.tracer.span("batch.window"):
            with self._lock:
                self._release(arrival)
                if len(self._queue) >= self.max_pending:
                    self.counters["rejected_queue_full"] += 1
                    raise TooManyRequests(
                        f"the batching queue is full "
                        f"({self.max_pending} pending submissions); "
                        f"retry with backoff")
                self.counters["submissions"] += 1
                self.counters["submitted_requests"] += \
                    len(submission.requests)
                self._queue.append(submission)
                leader = not self._collecting
                if leader:
                    self._collecting = True
            if leader:
                round_submissions = self._close_round(self._collect())
            else:
                submission.done.wait()
        if leader:
            self._execute(round_submissions)
        if submission.error is not None:
            raise submission.error
        return submission

    def _close_round(self, early: bool) -> list[_Submission]:
        """Drain the open round atomically and count it."""
        with self._lock:
            round_submissions = self._queue
            self._queue = []
            # Closing the round under the same lock as the drain means
            # a submitter can never land in a drained queue: it either
            # made this round or opens the next one as its leader.
            self._collecting = False
            self.counters["rounds"] += 1
            if early:
                self.counters["early_closes"] += 1
            if len(round_submissions) > 1:
                self.counters["coalesced_rounds"] += 1
                self.counters["coalesced_submissions"] += \
                    len(round_submissions)
            self.counters["largest_round"] = max(
                self.counters["largest_round"], len(round_submissions))
        return round_submissions

    def _execute(self, round_submissions: list[_Submission]) -> None:
        """Execute a closed round as one batch; demux and publish."""
        flat: list = []
        for submission in round_submissions:
            flat.extend(submission.requests)
        try:
            with self.execute_slot():
                batch = self.engine.execute(flat)
        except BaseException as exc:
            for submission in round_submissions:
                submission.error = exc
                submission.done.set()
            return
        cursor = 0
        for submission in round_submissions:
            count = len(submission.requests)
            submission.results = tuple(
                batch.results[cursor:cursor + count])
            submission.stats = batch.stats
            submission.coalesced_with = len(round_submissions) - 1
            submission.batch_span = batch.span_id
            cursor += count
            submission.done.set()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            counters = dict(self.counters)
            counters["pending"] = len(self._queue)
            counters["arriving"] = self._arriving
        return counters
