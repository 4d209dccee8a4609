"""Repo-specific static analysis and runtime invariant contracts.

Four consecutive PRs shipped hand-written "bit-identical trajectory" locks,
and everything the ROADMAP queues next (sharded execution, a persistent
on-disk EvaluationCache, batched-across-seeds refits) *depends* on those
invariants surviving refactors.  This package makes them cheap to keep:

* :mod:`repro.analysis.rules` + :mod:`repro.analysis.engine` — an AST lint
  engine (stdlib :mod:`ast`, pluggable rule registry mirroring the optimizer
  registry) with rules encoding this repo's determinism, bit-exactness and
  broadcast contracts: no unseeded RNGs, no float ``==``, no allocation in
  hot loops, no Python loop over the corner tensor axis of a topology.
* :mod:`repro.analysis.contracts` — a zero-cost-by-default runtime
  ``@contract`` decorator (enabled via ``REPRO_CONTRACTS=1``) asserting
  shape/dtype agreement at the tensor-engine entry points and freezing
  arrays to catch aliasing mutations at the fault site.
* :mod:`repro.analysis.determinism` — the determinism auditor: run a bench
  suite twice in-process and byte-diff trajectories, metrics and cache
  content, replacing the per-PR hand-written locks with a reusable gate.

CLI: ``python -m repro.analysis lint src`` and
``python -m repro.analysis determinism --suite tiny``.
"""

from repro.analysis.contracts import (
    ArraySpec,
    ContractViolation,
    SeqLen,
    contract,
    contracts,
    contracts_enabled,
    hot_path,
    set_contracts,
)
from repro.analysis.engine import (
    AnalysisConfig,
    Finding,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import LintRule, available_rules, get_rule, register_rule

__all__ = [
    "AnalysisConfig",
    "ArraySpec",
    "ContractViolation",
    "Finding",
    "LintRule",
    "SeqLen",
    "available_rules",
    "contract",
    "contracts",
    "contracts_enabled",
    "get_rule",
    "hot_path",
    "lint_paths",
    "lint_source",
    "register_rule",
    "set_contracts",
]
