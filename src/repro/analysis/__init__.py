"""Project-specific invariant linting (``repro lint``).

The reproduction's whole value is a contract the type system cannot
see: estimates are bit-identical across serial/process/remote
executors, plan units and storage pickle cleanly, and store/fingerprint
keys are stable across processes. Three shipped PRs each fixed a latent
violation of that contract found only by luck — a default ``repr``
leaking a memory address into store keys, a ``threading.Lock`` dataclass
field breaking pickling, a frozen estimate mutated in place. These
invariants are mechanical, so this package enforces them continuously
as an AST-based static-analysis pass with project-specific rule codes:

========  ==========================================================
RPL000    malformed / rationale-less / unused lint suppression
RPL001    nondeterministic entropy reachable from the estimate path
RPL002    identity-unstable ``repr`` feeding fingerprints/store keys
RPL003    unpicklable payload state without ``__getstate__`` pairing
RPL004    frozen-dataclass mutation via ``object.__setattr__``
RPL005    shared-state mutation both inside and outside the lock
========  ==========================================================

Violations carrying an intentional exception are suppressed inline with
a mandatory rationale::

    value = np.random.default_rng()  # repro-lint: ignore[RPL001] -- why

Entry points: :func:`~repro.analysis.runner.lint_paths` (lint a file or
tree under a :class:`~repro.analysis.config.LintConfig`),
:func:`~repro.analysis.runner.lint_project` (the shipped configuration
over the installed package), and the ``repro lint`` CLI. The
historical-bug corpus under ``tests/analysis_fixtures/`` reintroduces
each shipped bug as a fixture the linter must keep flagging; see
:mod:`repro.analysis.corpus`.
"""

from repro.analysis.config import LintConfig, project_config
from repro.analysis.findings import Finding, render_findings
from repro.analysis.rules import RULES, rule_codes
from repro.analysis.runner import lint_paths, lint_project

__all__ = [
    "Finding",
    "LintConfig",
    "RULES",
    "lint_paths",
    "lint_project",
    "project_config",
    "render_findings",
    "rule_codes",
]
