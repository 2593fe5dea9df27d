"""Compression-aware physical design: the paper's motivating application."""

from repro.advisor.candidates import (CandidateIndex, candidate_request,
                                      enumerate_candidates,
                                      resolve_algorithms,
                                      uncompressed_index_bytes,
                                      workload_key_sets)
from repro.advisor.capacity import (CapacityEntry, CapacityPlan,
                                    plan_capacity)
from repro.advisor.cost import (CostModel, Query, TableStats, WorkloadCost,
                                covers, stats_for_tables, workload_cost)
from repro.advisor.selection import (AdvisorResult, advise_from_data,
                                     candidate_gain, design_summary,
                                     select_indexes)
from repro.advisor.whatif import (CandidateState, PruneEvent,
                                  WhatIfAdvisor, WhatIfReport,
                                  WhatIfResult, prior_cf_interval)

__all__ = [
    "AdvisorResult",
    "CandidateIndex",
    "CandidateState",
    "CapacityEntry",
    "CapacityPlan",
    "CostModel",
    "PruneEvent",
    "Query",
    "TableStats",
    "WhatIfAdvisor",
    "WhatIfReport",
    "WhatIfResult",
    "WorkloadCost",
    "advise_from_data",
    "candidate_gain",
    "candidate_request",
    "covers",
    "design_summary",
    "enumerate_candidates",
    "plan_capacity",
    "prior_cf_interval",
    "resolve_algorithms",
    "select_indexes",
    "stats_for_tables",
    "uncompressed_index_bytes",
    "workload_key_sets",
    "workload_cost",
]
