"""Pluggable executors for independent plan units.

The engine reduces a plan to a flat list of
:class:`~repro.engine.units.PlanUnit` work items (one per (node, trial));
an executor runs them all against a
:class:`~repro.engine.units.UnitContext` and returns results *in input
order*. Every unit's randomness was resolved at plan time, so every
executor produces byte-identical estimates — the determinism property
suite locks that in. Three executors exist:

* :class:`SerialExecutor` — one unit after another on the calling
  thread; the default, and the fastest choice on one core;
* :class:`~repro.engine.remote.ProcessPoolPlanExecutor` — workers
  forked per batch, for compress-heavy batches on multi-core machines;
  each inherits the batch's units and tables by fork, so nothing but
  ``run`` frames crosses to it;
* :class:`~repro.engine.remote.RemotePlanExecutor` — long-lived workers
  on other hosts, degrading to the local process pool; they inherit
  nothing, so each is sent the units it runs and their tables, pickled
  once per batch (the ``source``/``install`` frames).

The two parallel executors are one dispatcher (:mod:`repro.engine.remote`)
that places units by sample, schedules sample groups by LPT with work
stealing, and recovers from worker death the same way.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.errors import EstimationError
from repro.engine.remote import ProcessPoolPlanExecutor, RemotePlanExecutor
from repro.engine.units import PlanUnit, UnitContext, deadline_failure


class PlanExecutor(Protocol):
    """Anything that can run a list of units and keep their order."""

    name: str

    def run(self, units: Sequence[PlanUnit],
            context: UnitContext | None = None) -> list:
        """Execute all units; result ``i`` corresponds to unit ``i``."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Run units one after another on the calling thread."""

    name = "serial"

    def run(self, units: Sequence[PlanUnit],
            context: UnitContext | None = None) -> list:
        if context is None or context.deadline is None:
            return [unit(context) for unit in units]
        # Deadline granularity is the unit boundary: a unit that
        # started gets to finish (its result is already paid for);
        # units past the budget become typed failures, never raises.
        return [deadline_failure(unit, context)
                if context.deadline.expired else unit(context)
                for unit in units]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


#: Accepted spellings per executor (CLI flags, batch specs, configs).
_EXECUTOR_ALIASES = {
    "serial": "serial",
    "process": "process",
    "processes": "process",
    "remote": "remote",
}

#: Every name :func:`make_executor` accepts — the CLI derives its
#: ``--executor`` choices from this so the two can never drift.
EXECUTOR_NAMES = tuple(sorted(_EXECUTOR_ALIASES))


def make_executor(name: str, max_workers: int | None = None,
                  workers: str | Sequence | None = None,
                  ) -> PlanExecutor:
    """Executor factory used by the CLI and experiment configs.

    ``workers`` is the remote executor's address list (``"host:port,
    host:port"`` or pairs); when omitted, ``"remote"`` reads the
    ``REPRO_REMOTE_WORKERS`` environment variable — which is what lets
    plain string executor names (batch specs, ``engine_sweep``
    arguments) reach remote workers without new plumbing.
    """
    canonical = _EXECUTOR_ALIASES.get(name)
    if canonical == "serial":
        return SerialExecutor()
    if canonical == "process":
        return ProcessPoolPlanExecutor(max_workers=max_workers)
    if canonical == "remote":
        return RemotePlanExecutor(workers=workers,
                                  max_local_workers=max_workers)
    raise EstimationError(f"unknown executor {name!r}; known: "
                          f"['serial', 'process', 'remote']")
