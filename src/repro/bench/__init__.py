"""Benchmark harness: measure search efficiency across the topology zoo.

``python -m repro.bench --suite smoke --seeds 3`` runs the progressive
trust-region search on every registered (topology, spec tier, corner set)
case and writes a ``BENCH_<suite>.json`` artifact with per-problem success
rate, median evaluations-to-feasible, surrogate-refit time, true-evaluator
time and wall time — the numbers every scaling/speed PR is measured
against.  All seeds of a case run as one multi-seed
:class:`~repro.search.campaign.Campaign` by default (shared vectorized
corner passes and batched surrogate refits); ``--execution sharded`` spreads
the seeds over worker processes instead.  ``--optimizer`` overrides the
search strategy, and ``--list`` enumerates everything the registry can run.
"""

from repro.bench.registry import (
    CORNER_SETS,
    BenchCase,
    available_suites,
    get_suite,
    register_benchmark,
)
from repro.bench.runner import (
    EXECUTIONS,
    SCHEMA,
    format_listing,
    format_summary,
    run_case,
    run_suite,
    write_bench_json,
)

__all__ = [
    "BenchCase",
    "CORNER_SETS",
    "EXECUTIONS",
    "SCHEMA",
    "available_suites",
    "format_listing",
    "format_summary",
    "get_suite",
    "register_benchmark",
    "run_case",
    "run_suite",
    "write_bench_json",
]
