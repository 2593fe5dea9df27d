"""Planning: canonicalize a request batch into a deduplicated DAG.

``plan_batch`` turns a sequence of :class:`EstimationRequest` objects
into an :class:`EstimationPlan`:

1. **Dedupe** — requests with identical canonical identity collapse
   into one :class:`PlanNode`; every original batch position keeps a
   pointer to its node, so results fan back out in submission order.
2. **Seed resolution** — every (node, trial) gets a concrete seed
   *at plan time*, derived only from content (master seed, source
   shape, sampler, fraction, trial number) — never from submission
   order or object identity. This is what makes execution
   deterministic under any executor and any request order.
3. **Sharing keys** — every (node, trial) gets the cache key of the
   sample it will draw. Nodes that differ only in column set or
   algorithm produce equal keys, which is where one materialized
   sample per (table, fraction, trial) gets shared across all
   candidates (the shared-sample trick of compression-aware physical
   design tools).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import EstimationError
from repro.engine.requests import (EstimationRequest, as_requests,
                                   derive_seed, sampler_key,
                                   source_cache_key)


@dataclass(frozen=True)
class PlanNode:
    """One deduplicated request with fully resolved per-trial seeds."""

    request: EstimationRequest
    #: Positions in the original batch that map to this node.
    positions: tuple[int, ...]
    #: One resolved seed per trial (ints, or a Generator when opaque).
    trial_seeds: tuple
    #: One sample-cache key per trial; ``None`` entries are uncacheable.
    sample_keys: tuple
    #: Whether this node's samples may be cached and shared.
    cacheable: bool

    @property
    def trials(self) -> int:
        return self.request.trials


@dataclass(frozen=True)
class EstimationPlan:
    """A canonicalized, executable batch."""

    nodes: tuple[PlanNode, ...]
    num_requests: int
    master_seed: int

    @property
    def num_unique(self) -> int:
        return len(self.nodes)

    @property
    def num_units(self) -> int:
        """Total (node, trial) execution units."""
        return sum(node.trials for node in self.nodes)

    @property
    def num_distinct_samples(self) -> int:
        """Samples that will be materialized (cache-cold)."""
        keys = set()
        uncacheable = 0
        for node in self.nodes:
            for key in node.sample_keys:
                if key is None:
                    uncacheable += 1
                else:
                    keys.add(key)
        return len(keys) + uncacheable

    @property
    def num_index_layouts(self) -> int:
        """Distinct sample indexes the table-path nodes will build."""
        layouts = set()
        for node in self.nodes:
            request = node.request
            if not request.is_table:
                continue
            for key in node.sample_keys:
                layouts.add((key, request.columns, request.kind.value,
                             request.page_size,
                             float(request.fill_factor)))
        return len(layouts)

    def describe(self) -> str:
        """One-paragraph human summary (CLI/debugging)."""
        return (f"plan: {self.num_requests} requests -> "
                f"{self.num_unique} unique nodes, "
                f"{self.num_units} trial units, "
                f"{self.num_distinct_samples} samples to materialize, "
                f"{self.num_index_layouts} sample indexes to build")


def resolve_trial_seeds(request: EstimationRequest,
                        master_seed: int) -> tuple:
    """Concrete per-trial seeds for one request.

    * opaque Generator seed — passed through (single trial, enforced);
    * explicit int seed — trial 0 uses it verbatim (bit-compatibility
      with single-call SampleCF), later trials derive from it;
    * no seed — all trials derive from the master seed and the
      request's *sample scope* only, so same-scope requests share
      samples trial-by-trial regardless of columns or algorithm.
    """
    if request.seed_is_opaque():
        return (request.seed,)
    if request.seed is not None:
        base = int(request.seed)
        return tuple(
            base if trial == 0
            else derive_seed("explicit-trial", base, trial)
            for trial in range(request.trials))
    scope = request.sample_scope()
    return tuple(derive_seed("engine-trial", master_seed, scope, trial)
                 for trial in range(request.trials))


def trial_request(request: EstimationRequest,
                  seed: int) -> EstimationRequest:
    """One trial of ``request`` as a single-trial request.

    ``seed`` is the trial's resolved seed from
    :func:`resolve_trial_seeds`. :func:`expand_trials` is this over
    every trial; a caller that runs a request's trials in stages
    resolves the seeds once and builds each stage with it.
    """
    return replace(request, trials=1, seed=int(seed))


def expand_trials(request: EstimationRequest,
                  master_seed: int) -> tuple[EstimationRequest, ...]:
    """Split a multi-trial request into per-trial requests, seed-exact.

    Trial ``j`` of the returned tuple is a single-trial request whose
    explicit integer seed is exactly what :func:`resolve_trial_seeds`
    would assign trial ``j`` of the original request under
    ``master_seed``. Because a unit's execution depends only on the
    request content and its resolved seed — and the sample-cache /
    store keys are derived from the same pair — executing any subset
    of the expansion, in any batch composition, on any executor,
    reproduces the corresponding trials of the full request bit for
    bit and still shares samples with same-scope requests.

    This is the engine's incremental-execution primitive: the what-if
    advisor runs trials ``[t, t')`` of a candidate only when its
    confidence interval is still too wide to decide the greedy round,
    without ever re-running trials ``[0, t)``; it builds each stage's
    requests with :func:`trial_request` from seeds it resolved once
    per sample scope.
    """
    if request.seed_is_opaque():
        raise EstimationError(
            "a Generator-seeded request has one unsplittable trial")
    seeds = resolve_trial_seeds(request, master_seed)
    return tuple(trial_request(request, seed) for seed in seeds)


def plan_batch(requests: Sequence[EstimationRequest],
               master_seed: int) -> EstimationPlan:
    """Canonicalize, dedupe, and seed a batch of requests."""
    requests = as_requests(requests)
    order: list[tuple] = []
    positions: dict[tuple, list[int]] = {}
    by_key: dict[tuple, EstimationRequest] = {}
    for position, request in enumerate(requests):
        key = request.node_key()
        if key not in positions:
            order.append(key)
            positions[key] = []
            by_key[key] = request
        positions[key].append(position)
    nodes = []
    for key in order:
        request = by_key[key]
        trial_seeds = resolve_trial_seeds(request, master_seed)
        cacheable = not request.seed_is_opaque()
        if cacheable:
            source = source_cache_key(request)
            skey = sampler_key(request.sampler)
            sample_keys = tuple(
                (source, skey, float(request.fraction), seed)
                for seed in trial_seeds)
        else:
            sample_keys = (None,) * len(trial_seeds)
        nodes.append(PlanNode(request=request,
                              positions=tuple(positions[key]),
                              trial_seeds=trial_seeds,
                              sample_keys=sample_keys,
                              cacheable=cacheable))
    return EstimationPlan(nodes=tuple(nodes), num_requests=len(requests),
                          master_seed=master_seed)
