"""Benchmark runner: execute suites, aggregate, and emit BENCH JSON.

Every case runs the same progressive search users get from
:func:`repro.search.sizing.size_problem`, across seeds, and records the
numbers the ROADMAP tracks per PR:

* **success rate** — fraction of seeds whose winner passes every spec at
  every corner of the case's corner set;
* **median evaluations-to-feasible** — median (over successful seeds) of
  true-evaluator calls consumed, the paper's efficiency metric;
* **refit/eval/wall seconds** — surrogate-refit, true-evaluator and
  end-to-end wall time, totalled across the case's seeds.

Execution is the multi-seed vectorized
:class:`~repro.search.campaign.Campaign` by default: all seeds of a case
run in lockstep rounds sharing single stacked ``evaluate_corners`` passes
(far fewer, larger evaluator calls) and batched surrogate refits,
bit-exact per seed versus a single-seed
:func:`~repro.search.sizing.size_problem` run.  ``--execution sharded``
runs each (case, seed) shard in a spawned worker process instead.

The JSON artifact schema is ``repro.bench/v10`` (see README "Benchmarking").
Relative to v9 it drops the fields that recorded the retired oracle
knobs (training backend, corner engine and refit mode), top-level, per
case and inside the ``refit`` block.  v9 added per case the seed count
``n_seeds`` and ``success_ci95``, the 95% Wilson interval of ``success_rate``
(:func:`wilson_interval`), and per seed the number of trust-region stall
``restarts``.  v8 added ``--execution sharded`` — multi-process execution
via :class:`repro.shard.ShardedExecutor`, bit-identical per seed to the
in-process oracle :func:`repro.shard.run_sequential` — and with it a
per-case ``shard`` block (``null`` for in-process executions): the worker
count, the seed-to-worker shard map recording where each shard ran, and
per-worker wall/eval seconds.  Every artifact also carries a top-level
``host`` block (:func:`host_block`: CPU count, BLAS vendor and effective
thread count, ``*_NUM_THREADS`` variables).  v7 added the surrogate-refit
accounting: a per-case ``refit`` block (total ``refit_seconds``, the
number of lockstep rounds that actually refit and how many stacked
multi-seed kernel dispatches ran).  v6 added the per-case ``resilience``
block — the round the campaign resumed from (``--resume``, ``null`` for
uninterrupted runs) and the persistent evaluation-cache accounting
(``--cache-dir``: store path, pairs preloaded from disk, warm/cold hit
split, bytes trimmed repairing a torn tail; ``null`` without a store).
The artifact itself is written atomically (temp file + fsync + rename), so
a crashed run never leaves a half-written BENCH JSON:

.. code-block:: json

    {
      "schema": "repro.bench/v10",
      "suite": "smoke",
      "seeds": [0, 1, 2],
      "optimizer": "mixed",
      "execution": "campaign",
      "host": {"cpu_count": 2, "blas": "scipy-openblas 0.3.31.188.0",
               "blas_threads": 1,
               "thread_variables": {"OPENBLAS_NUM_THREADS": "1"}},
      "cases": [
        {
          "name": "two_stage_opamp/nominal/nine",
          "topology": "two_stage_opamp", "tier": "nominal",
          "corner_set": "nine", "design_dims": 8,
          "optimizer": "trust_region", "execution": "campaign",
          "n_seeds": 3, "success_rate": 1.0, "success_ci95": [0.4385, 1.0],
          "median_evaluations_to_feasible": 113,
          "refit_seconds": 0.12, "eval_seconds": 0.01, "wall_seconds": 0.2,
          "eval": {"engine_calls": 31, "rounds": 29,
                   "cache_hits": 27, "cache_misses": 9486},
          "refit": {"refit_seconds": 0.12, "refit_rounds": 26,
                    "batched_kernel_calls": 24},
          "resilience": {"resumed_from_round": null,
                         "cache": {"path": "cache/two_stage.evc",
                                   "preloaded_pairs": 9486,
                                   "warm_hits": 9486, "cold_hits": 27,
                                   "repaired_bytes": 0}},
          "shard": {"workers": 4,
                    "shard_map": {"0": 0, "1": 1, "2": 2},
                    "per_worker": [{"worker": 0, "shards": 1,
                                    "wall_seconds": 0.21,
                                    "eval_seconds": 0.004}]},
          "telemetry": {"spans": {"trust_region.refit":
                                  {"count": 54, "seconds": 0.12}},
                        "events": {"campaign.solved": 3}},
          "per_seed": [{"seed": 0, "solved": true, "evaluations": 169,
                        "phases": 2, "restarts": 0, "refit_seconds": 0.05,
                        "eval_seconds": 0.004, "cache_hits": 9,
                        "cache_misses": 3162, "engine_calls": 11,
                        "failing_corners": [],
                        "best_sizing": {"w1": 4.6e-05}}]
        }
      ],
      "totals": {"cases": 5, "solved_fraction": 1.0, "wall_seconds": 0.9}
    }
"""

from __future__ import annotations

import logging
import math
import os
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.registry import (
    CORNER_SETS,
    BenchCase,
    available_suites,
    get_suite,
)
from repro.blas import blas_threads
from repro.circuits.topologies import available_topologies, get_topology
from repro.circuits.topologies.base import SPEC_TIERS
from repro.obs import diff_snapshots, get_tracer, profiled, tracing, tracing_enabled
from repro.obs.logs import add_logging_flags, configure_cli_logging
from repro.resilience import atomic_write_json
from repro.search.optimizer import available_optimizers
from repro.search.progressive import ProgressiveResult

SCHEMA = "repro.bench/v10"

module_logger = logging.getLogger(__name__)

#: How a case's seeds execute: ``campaign`` batches all seeds through
#: shared vectorized corner passes, ``sharded`` partitions the seeds across
#: spawned worker processes (bit-identical per seed; see :mod:`repro.shard`).
EXECUTIONS = ("campaign", "sharded")

def host_block() -> Dict[str, Any]:
    """The measuring host, recorded in every artifact beside its timings.

    Core count and BLAS threading decide whether two artifacts' wall times
    compare at all (and whether a sharded speedup is physically possible).
    ``blas_threads`` is the loaded OpenBLAS's effective pool size
    (``None`` when unreadable); ``thread_variables`` holds every
    ``*_NUM_THREADS`` variable as this process sees it.
    """
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict-mode config
        vendor = None
    return {
        "cpu_count": os.cpu_count(),
        "blas": vendor,
        "blas_threads": blas_threads(),
        "thread_variables": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.endswith("_NUM_THREADS")
        },
    }


def wilson_interval(successes: int, trials: int) -> Optional[Tuple[float, float]]:
    """95% Wilson score interval for a success proportion.

    Unlike the normal approximation it stays inside [0, 1] and does not
    collapse to a point at 0/n or n/n, which is exactly where a
    small-seed success rate needs an error bar.  ``None`` for no trials.
    """
    if trials == 0:
        return None
    z = 1.96
    p = successes / trials
    shrink = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / shrink
    half = z / shrink * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _per_seed_record(seed: int, result: ProgressiveResult) -> Dict[str, Any]:
    record: Dict[str, Any] = {"seed": int(seed)}
    record.update(result.to_dict())
    record["refit_seconds"] = round(record["refit_seconds"], 6)
    record["eval_seconds"] = round(record["eval_seconds"], 6)
    return record


def _case_telemetry(
    before: Optional[Dict[str, Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Per-case span/event rollups from the tracer's metrics registry.

    Built as a snapshot *diff* (what this case added on top of ``before``)
    rather than from the trace ring, so the rollup stays exact even when a
    long suite wraps the ring.  ``None`` when the run is not tracing.
    """
    if before is None:
        return None
    delta = diff_snapshots(before, get_tracer().metrics.snapshot())
    spans = {
        name[len("span.") :]: {
            "count": record["count"],
            "seconds": round(record["total"], 6),
        }
        for name, record in delta.items()
        if name.startswith("span.") and record["kind"] == "histogram"
    }
    events = {
        name[len("event.") :]: record["value"]
        for name, record in delta.items()
        if name.startswith("event.") and record["kind"] == "counter"
    }
    return {"spans": spans, "events": events}


def run_case(
    case: BenchCase,
    seeds: Sequence[int],
    optimizer: Optional[str] = None,
    execution: str = "campaign",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    worker_trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one benchmark case across seeds and aggregate the statistics.

    ``optimizer`` overrides the case's search strategy when given (``None``
    defers to the case, which defers to the library default).
    ``execution`` selects the multi-seed vectorized campaign (default) or
    sharded multi-process execution (``workers`` processes via
    :class:`repro.shard.ShardedExecutor`); both are bit-exact per seed and
    differ only in evaluator batching and process placement.

    ``checkpoint_dir`` snapshots under ``<dir>/<case-slug>/`` after every
    round (sharded: one subdirectory per shard); ``resume=True`` restores
    from those snapshots first (a resumed run is bit-identical to an
    uninterrupted one); ``cache_dir`` persists the evaluation cache at
    ``<dir>/<case-slug>.evc`` for cross-process warm starts (sharded:
    workers warm-load the master read-only and the parent merges their
    private shard stores back after the run).  ``worker_trace_dir``
    (sharded only) gives each worker a ``worker-K.jsonl`` trace sink under
    ``<dir>/<case-slug>/``.
    """
    if execution not in EXECUTIONS:
        raise ValueError(
            f"unknown execution {execution!r}; available: {', '.join(EXECUTIONS)}"
        )
    if execution != "sharded" and (workers is not None or worker_trace_dir):
        raise ValueError("workers/worker_trace_dir need the sharded execution")
    if resume and not checkpoint_dir:
        raise ValueError("resume=True needs checkpoint_dir")
    problem_cls = get_topology(case.topology)
    design_dims = len(problem_cls.VARIABLE_NAMES)
    seeds = [int(seed) for seed in seeds]
    effective_optimizer = optimizer if optimizer is not None else case.optimizer

    module_logger.info(
        "case %s: %d seed(s), %s execution", case.name, len(seeds), execution
    )
    metrics_before = get_tracer().metrics.snapshot() if tracing_enabled() else None
    with profiled(
        "bench.run_case", case=case.name, topology=case.topology, tier=case.tier
    ) as wall_timer:
        cache_path = os.path.join(cache_dir, f"{case.slug}.evc") if cache_dir else None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        if execution == "campaign":
            case_checkpoint = (
                os.path.join(checkpoint_dir, case.slug) if checkpoint_dir else None
            )
            campaign = case.build_campaign(
                seeds, optimizer=effective_optimizer, cache_path=cache_path
            )
            try:
                outcome = campaign.run(
                    checkpoint_dir=case_checkpoint,
                    resume_from=case_checkpoint if resume else None,
                )
                cache = campaign.cache
                resilience: Dict[str, Any] = {
                    "resumed_from_round": outcome.resumed_from_round,
                    "cache": (
                        {
                            "path": cache_path,
                            "preloaded_pairs": cache.preloaded_pairs,
                            "warm_hits": cache.warm_hits,
                            "cold_hits": cache.cold_hits,
                            "repaired_bytes": cache.repaired_bytes,
                        }
                        if cache_path
                        else None
                    ),
                }
            finally:
                campaign.close()
            results = outcome.results
            eval_block: Dict[str, Any] = {
                "engine_calls": outcome.engine_calls,
                "rounds": outcome.rounds,
                "cache_hits": outcome.cache_hits,
                "cache_misses": outcome.cache_misses,
            }
            eval_seconds = outcome.eval_seconds
            refit_counts: Dict[str, Any] = {
                "refit_rounds": outcome.refit_rounds,
                "batched_kernel_calls": outcome.batched_kernel_calls,
            }
            shard_block: Optional[Dict[str, Any]] = None
        else:
            # Imported lazily: the bench registry must stay importable
            # without pulling the executor (and its topology imports) in.
            from repro.shard import ShardedExecutor

            specs = case.shard_specs(seeds, optimizer=effective_optimizer)
            executor = ShardedExecutor(
                specs,
                workers=workers,
                cache_path=cache_path,
                checkpoint_dir=(
                    os.path.join(checkpoint_dir, case.slug) if checkpoint_dir else None
                ),
                resume=resume,
                trace_dir=(
                    os.path.join(worker_trace_dir, case.slug)
                    if worker_trace_dir
                    else None
                ),
            )
            outcome = executor.run()
            results = outcome.results
            eval_block = {
                "engine_calls": outcome.engine_calls,
                "rounds": outcome.rounds,
                "cache_hits": outcome.cache_hits,
                "cache_misses": outcome.cache_misses,
            }
            eval_seconds = outcome.eval_seconds
            refit_counts = {
                "refit_rounds": outcome.refit_rounds,
                "batched_kernel_calls": outcome.batched_kernel_calls,
            }
            resilience = {
                # Per-shard resume rounds live in the shard block's domain;
                # the campaign-level field stays None unless every shard
                # resumed (then the earliest round is the honest summary).
                "resumed_from_round": (
                    min(shard.resumed_from_round for shard in outcome.shards)
                    if all(
                        shard.resumed_from_round is not None
                        for shard in outcome.shards
                    )
                    else None
                ),
                "cache": (
                    {
                        "path": cache_path,
                        "preloaded_pairs": sum(
                            shard.cache_counters["preloaded_pairs"]
                            for shard in outcome.shards
                        ),
                        "warm_hits": sum(
                            shard.cache_counters["warm_hits"]
                            for shard in outcome.shards
                        ),
                        "cold_hits": sum(
                            shard.cache_counters["cold_hits"]
                            for shard in outcome.shards
                        ),
                        "repaired_bytes": sum(
                            shard.cache_counters["repaired_bytes"]
                            for shard in outcome.shards
                        ),
                    }
                    if cache_path
                    else None
                ),
            }
            shard_block = {
                "workers": outcome.workers,
                "shard_map": {
                    str(specs[index].seed): worker
                    for index, worker in outcome.shard_map.items()
                },
                "per_worker": [
                    {
                        "worker": record["worker"],
                        "shards": record["shards"],
                        "wall_seconds": round(record["wall_seconds"], 6),
                        "eval_seconds": round(record["eval_seconds"], 6),
                    }
                    for record in outcome.per_worker
                ],
            }
    wall = wall_timer.seconds

    per_seed = [_per_seed_record(seed, result) for seed, result in zip(seeds, results)]
    solved = [record for record in per_seed if record["solved"]]
    interval = wilson_interval(len(solved), len(per_seed))
    return {
        "name": case.name,
        "topology": case.topology,
        "tier": case.tier,
        "corner_set": case.corner_set,
        "technology": case.technology,
        "design_dims": design_dims,
        "optimizer": effective_optimizer,
        "execution": execution,
        "n_seeds": len(per_seed),
        "success_rate": len(solved) / len(per_seed) if per_seed else 0.0,
        "success_ci95": (
            [round(bound, 4) for bound in interval] if interval is not None else None
        ),
        "median_evaluations_to_feasible": (
            int(median(record["evaluations"] for record in solved)) if solved else None
        ),
        "refit_seconds": round(sum(r["refit_seconds"] for r in per_seed), 6),
        "eval_seconds": round(eval_seconds, 6),
        "wall_seconds": round(wall, 6),
        "eval": eval_block,
        "refit": {
            "refit_seconds": round(sum(r["refit_seconds"] for r in per_seed), 6),
            "refit_rounds": refit_counts["refit_rounds"],
            "batched_kernel_calls": refit_counts["batched_kernel_calls"],
        },
        "resilience": resilience,
        "shard": shard_block,
        "telemetry": _case_telemetry(metrics_before),
        "per_seed": per_seed,
    }


def _uniform(values: Sequence[str]) -> str:
    unique = set(values)
    return next(iter(unique)) if len(unique) == 1 else "mixed"


def run_suite(
    suite: str = "smoke",
    seeds: Sequence[int] = (0, 1, 2),
    optimizer: Optional[str] = None,
    execution: str = "campaign",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    worker_trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run every case of a suite; returns the ``repro.bench/v10`` payload."""
    cases = get_suite(suite)
    module_logger.info("suite %r: %d case(s)", suite, len(cases))
    with profiled("bench.run_suite", suite=suite, cases=len(cases)) as wall_timer:
        case_results = [
            run_case(
                case,
                seeds,
                optimizer=optimizer,
                execution=execution,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                cache_dir=cache_dir,
                workers=workers,
                worker_trace_dir=worker_trace_dir,
            )
            for case in cases
        ]
    wall = wall_timer.seconds
    runs = [record for result in case_results for record in result["per_seed"]]
    return {
        "schema": SCHEMA,
        "suite": suite,
        "seeds": [int(seed) for seed in seeds],
        "optimizer": _uniform([result["optimizer"] for result in case_results]),
        "execution": execution,
        "host": host_block(),
        "cases": case_results,
        "totals": {
            "cases": len(case_results),
            "solved_fraction": (
                sum(record["solved"] for record in runs) / len(runs) if runs else 0.0
            ),
            "wall_seconds": round(wall, 6),
        },
    }


def write_bench_json(payload: Dict[str, Any], path: str) -> None:
    """Write the payload as a stable, diff-friendly JSON artifact.

    Atomic (temp file + fsync + rename): readers — and the next run's
    baseline diff — only ever see a complete artifact, even if the writer
    dies mid-dump.
    """
    atomic_write_json(path, payload)


#: Schema of the ``--shard-scaling`` artifact (``BENCH_shard.json``).
SHARD_CHECK_SCHEMA = "repro.bench.shard/v1"

#: Per-seed fields the shard-scaling parity gate byte-compares across
#: worker counts: the full search outcome minus wall-clock timing.
_SHARD_PARITY_KEYS = (
    "seed",
    "solved",
    "evaluations",
    "phases",
    "engine_calls",
    "cache_hits",
    "cache_misses",
    "failing_corners",
    "best_sizing",
)


def shard_scaling(
    suite: str = "smoke",
    seeds: int = 16,
    workers_list: Sequence[int] = (1, 2, 4, 8),
    output: Optional[str] = None,
) -> int:
    """Sharded scaling curve + parity gate; returns a process exit code.

    Runs the whole ``suite`` once per worker count in ``workers_list``
    (``--execution sharded``) and checks the tentpole guarantee: every
    (case, seed) outcome must be **bit-identical across worker counts** —
    same winning sizings, evaluation counts, cache accounting and solved
    verdicts (the ``workers=1`` run is itself locked to the in-process
    oracle by the determinism auditor's sharded mode).  The wall-time
    curve and per-count speedups over ``workers=1`` are reported alongside
    (and written to ``output``, default ``BENCH_shard.json``); the speedup
    is informational, not gating — it tracks the host's core count
    (recorded in the artifact as ``host.cpu_count``), and wall-clock
    ratios flake on shared runners while bits don't.
    """
    seed_range = range(seeds)
    runs: List[Dict[str, Any]] = []
    for workers in workers_list:
        payload = run_suite(
            suite, seeds=seed_range, execution="sharded", workers=workers
        )
        runs.append(payload)
        module_logger.info(
            "shard-scaling %r workers=%d: %.3fs wall",
            suite,
            workers,
            payload["totals"]["wall_seconds"],
        )
    mismatches: List[str] = []
    baseline = runs[0]
    for payload, workers in zip(runs[1:], list(workers_list)[1:]):
        for base_case, case in zip(baseline["cases"], payload["cases"]):
            for base_seed, seed_record in zip(
                base_case["per_seed"], case["per_seed"]
            ):
                if any(
                    base_seed[key] != seed_record[key] for key in _SHARD_PARITY_KEYS
                ):
                    mismatches.append(
                        f"{case['name']} seed {seed_record['seed']} "
                        f"(workers {workers_list[0]} vs {workers})"
                    )
    parity = not mismatches
    for mismatch in mismatches:
        module_logger.error("shard-scaling diverged: %s", mismatch)
    base_wall = baseline["totals"]["wall_seconds"]
    curve = [
        {
            "workers": workers,
            "wall_seconds": payload["totals"]["wall_seconds"],
            "speedup": (
                round(base_wall / payload["totals"]["wall_seconds"], 3)
                if payload["totals"]["wall_seconds"]
                else None
            ),
            "cases": [
                {
                    "name": case["name"],
                    "wall_seconds": case["wall_seconds"],
                    "success_rate": case["success_rate"],
                    "shard": case["shard"],
                }
                for case in payload["cases"]
            ],
        }
        for workers, payload in zip(workers_list, runs)
    ]
    artifact_path = output or "BENCH_shard.json"
    write_bench_json(
        {
            "schema": SHARD_CHECK_SCHEMA,
            "suite": suite,
            "seeds": list(seed_range),
            "workers": list(workers_list),
            "parity": parity,
            # Speedup is bounded by the physical cores the run actually
            # had; recorded so scaling curves from different hosts compare
            # honestly.
            "host": host_block(),
            "scaling": curve,
        },
        artifact_path,
    )
    module_logger.info("wrote %s", artifact_path)
    # The verdict is the machine-readable output; it stays on stdout.
    summary = ", ".join(
        f"w={entry['workers']}: {entry['wall_seconds']:.2f}s"
        + (f" ({entry['speedup']:.2f}x)" if entry["speedup"] else "")
        for entry in curve
    )
    print(
        f"shard-scaling {'PASS' if parity else 'FAIL'} "
        f"({seeds} seeds, {summary})"
    )
    return 0 if parity else 1


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-line-per-case table for CLI output."""
    lines = [
        f"suite {payload['suite']!r} | seeds {payload['seeds']} "
        f"| optimizer {payload['optimizer']} "
        f"| {payload['execution']} execution "
        f"| {payload['totals']['wall_seconds']:.1f} s total",
        f"{'case':48s} {'dims':>4s} {'succ':>6s} {'95% CI':>13s} {'evals':>6s} "
        f"{'refit_s':>8s} {'eval_s':>8s} {'calls':>6s} {'wall_s':>7s}",
    ]
    for case in payload["cases"]:
        evals = case["median_evaluations_to_feasible"]
        interval = case["success_ci95"]
        interval_text = (
            f"[{interval[0]:.2f}, {interval[1]:.2f}]" if interval is not None else "-"
        )
        lines.append(
            f"{case['name']:48s} {case['design_dims']:>4d} "
            f"{case['success_rate']:>6.2f} {interval_text:>13s} "
            f"{(str(evals) if evals is not None else '-'):>6s} "
            f"{case['refit_seconds']:>8.3f} "
            f"{case['eval_seconds']:>8.3f} "
            f"{case['eval']['engine_calls']:>6d} {case['wall_seconds']:>7.2f}"
        )
    totals = payload["totals"]
    lines.append(
        f"overall: {totals['solved_fraction'] * 100.0:.0f}% of runs solved "
        f"across {totals['cases']} cases"
    )
    return "\n".join(lines)


def format_listing() -> str:
    """Everything the registry knows: suites, topologies, tiers, optimizers.

    The ``--list`` output (also shown when ``--suite`` names an unknown
    suite), so discovering what the harness can run never requires reading
    source.
    """
    lines = ["suites:"]
    for suite in available_suites():
        lines.append(f"  {suite}:")
        for case in get_suite(suite):
            lines.append(f"    {case.name}")
    lines.append(f"topologies: {', '.join(available_topologies())}")
    lines.append(f"spec tiers: {', '.join(SPEC_TIERS)}")
    lines.append(f"corner sets: {', '.join(sorted(CORNER_SETS))}")
    lines.append(f"optimizers: {', '.join(available_optimizers())}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench --suite smoke --seeds 3``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a sizing benchmark suite and write a BENCH JSON artifact.",
    )
    parser.add_argument(
        "--suite",
        default="smoke",
        help="benchmark suite to run (default: smoke; see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered suites, topologies, spec tiers, corner sets "
        "and optimizers, then exit",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="number of seeds (0..N-1) per case (default: 3)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="JSON artifact path (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--fail-under",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="exit nonzero when the solved fraction falls below this "
        "threshold (default: 0.0, i.e. never fail; CI gates pass 1.0)",
    )
    parser.add_argument(
        "--optimizer",
        default=None,
        choices=available_optimizers(),
        help="search-strategy override for every case (default: each "
        "case's registered optimizer, usually trust_region)",
    )
    parser.add_argument(
        "--execution",
        default="campaign",
        choices=EXECUTIONS,
        help="how a case's seeds run: 'campaign' (default) batches all "
        "seeds through shared vectorized corner passes and batched "
        "surrogate refits, 'sharded' partitions seeds across spawned "
        "worker processes (bit-identical per seed; see --workers)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker process count for --execution sharded (default: the "
        "host CPU count; 1 runs every shard in-process, bit-for-bit equal "
        "to spawned execution)",
    )
    parser.add_argument(
        "--shard-scaling",
        action="store_true",
        help="instead of running the suite once, run it at every "
        "--workers-list count under --execution sharded and verify "
        "per-seed bit-parity across worker counts; --seeds sets the fleet "
        "size (default 16), --output writes the scaling artifact "
        "(default BENCH_shard.json)",
    )
    parser.add_argument(
        "--workers-list",
        default="1,2,4,8",
        metavar="N,N,...",
        help="comma-separated worker counts for --shard-scaling "
        "(default: 1,2,4,8)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a repro.obs JSONL trace of the whole run to PATH "
        "(render with 'python -m repro.obs report PATH'); also populates "
        "the per-case telemetry block in the artifact",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot each case's campaign under DIR/<case>/ after every "
        "round (sharded: one subdirectory per shard); a killed run resumes from there "
        "with --resume, bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore each case from its --checkpoint-dir snapshot before "
        "running (cases whose directory has no snapshot yet start cold)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist each case's evaluation cache at DIR/<case>.evc; "
        "reruns over the same workload warm-start from disk (the per-case "
        "resilience block reports the warm/cold hit split)",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_cli_logging(quiet=args.quiet, verbose=args.verbose)

    if args.list:
        print(format_listing())
        return 0
    if args.suite not in available_suites():
        print(f"unknown bench suite {args.suite!r}\n")
        print(format_listing())
        return 2

    if args.shard_scaling:
        # Fixed protocol: the suite at every worker count, sharded
        # execution, library defaults; reject flags it would ignore.
        dropped = [
            flag
            for flag, value in (
                ("--optimizer", args.optimizer),
                ("--trace", args.trace),
                ("--checkpoint-dir", args.checkpoint_dir),
                ("--cache-dir", args.cache_dir),
                ("--workers", args.workers),
            )
            if value is not None
        ]
        if args.fail_under:
            dropped.append("--fail-under")
        if args.resume:
            dropped.append("--resume")
        if args.execution != "campaign":
            dropped.append("--execution")
        if dropped:
            parser.error(f"--shard-scaling does not accept {', '.join(dropped)}")
        try:
            workers_list = [int(item) for item in args.workers_list.split(",")]
        except ValueError:
            parser.error("--workers-list must be comma-separated integers")
        if not workers_list or any(workers < 1 for workers in workers_list):
            parser.error("--workers-list counts must be at least 1")
        seeds = 16 if args.seeds is None else args.seeds
        if seeds < 1:
            parser.error("--seeds must be at least 1")
        return shard_scaling(
            args.suite, seeds=seeds, workers_list=workers_list, output=args.output
        )

    seeds = 3 if args.seeds is None else args.seeds
    if seeds < 1:
        parser.error("--seeds must be at least 1")
    if not 0.0 <= args.fail_under <= 1.0:
        parser.error("--fail-under must be within [0, 1]")
    if args.workers is not None and args.execution != "sharded":
        parser.error("--workers needs --execution sharded")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume needs --checkpoint-dir")
    # A sharded traced run gives every worker its own sink next to the
    # parent's; 'python -m repro.obs report <PATH>.workers' merges them.
    worker_trace_dir = (
        f"{args.trace}.workers"
        if args.trace and args.execution == "sharded"
        else None
    )

    def _run() -> Dict[str, Any]:
        return run_suite(
            args.suite,
            seeds=range(seeds),
            optimizer=args.optimizer,
            execution=args.execution,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            cache_dir=args.cache_dir,
            workers=args.workers,
            worker_trace_dir=worker_trace_dir,
        )

    if args.trace:
        # Tracing is trajectory-neutral (locked by tests), so the traced
        # run produces the same artifact plus the telemetry block.
        with tracing(sink=args.trace):
            payload = _run()
        module_logger.info("wrote trace %s", args.trace)
    else:
        payload = _run()
    output = args.output or f"BENCH_{args.suite}.json"
    write_bench_json(payload, output)
    print(format_summary(payload))
    print(f"wrote {output}")
    solved_fraction = payload["totals"]["solved_fraction"]
    if solved_fraction < args.fail_under:
        print(
            f"FAIL: solved fraction {solved_fraction:.2f} "
            f"below --fail-under {args.fail_under:.2f}"
        )
        return 1
    return 0
