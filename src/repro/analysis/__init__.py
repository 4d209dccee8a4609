"""Repo-specific static analysis and runtime invariant contracts.

Every fast path in this repo — the stacked corner engine, batched refits
across seeds, the persistent on-disk EvaluationCache, resume by replay,
seed-block shards — rests on "bit-identical trajectory" invariants
surviving refactors.  This package makes them cheap to keep:

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

The package re-exports the contract names only, which every instrumented
module imports; the lint API lives in :mod:`repro.analysis.engine`
(``Finding``, ``lint_paths``, ``lint_source``) and
:mod:`repro.analysis.rules` (``LintRule``, ``register_rule``, ...), so a
campaign never loads the linter.
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

__all__ = [
    "ArraySpec",
    "ContractViolation",
    "SeqLen",
    "contract",
    "contracts",
    "contracts_enabled",
    "hot_path",
    "set_contracts",
]
