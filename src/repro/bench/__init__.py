"""Benchmark harness: measure search efficiency across the topology zoo.

``python -m repro.bench --suite smoke --seeds 3`` runs the progressive
trust-region search on every registered (topology, spec tier, corner set)
case and writes a ``BENCH_<suite>.json`` artifact with per-problem success
rate, median evaluations-to-feasible, surrogate-refit time, true-evaluator
time and wall time — the numbers every scaling/speed PR is measured
against.  All seeds of a case run as one multi-seed
:class:`~repro.search.campaign.Campaign` (shared vectorized corner passes
and batched surrogate refits).  ``--optimizer`` overrides the
search strategy, and ``--list`` enumerates everything the registry can run.

The package re-exports the registry only; the runner (``run_case``,
``run_suite``, ``format_summary``, ``write_bench_json``, ``SCHEMA``, the
CLI) lives in :mod:`repro.bench.runner`, so building a case's campaign
never loads the CLI stack.
"""

from repro.bench.registry import (
    CORNER_SETS,
    BenchCase,
    available_suites,
    get_suite,
    register_benchmark,
)

__all__ = [
    "BenchCase",
    "CORNER_SETS",
    "available_suites",
    "get_suite",
    "register_benchmark",
]
