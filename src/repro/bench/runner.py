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

A case's seeds run as one multi-seed vectorized
:class:`~repro.search.campaign.Campaign`: all seeds run in lockstep rounds
sharing single stacked ``evaluate_corners`` passes (far fewer, larger
evaluator calls) and batched surrogate refits, bit-exact per seed versus a
single-seed :func:`~repro.search.sizing.size_problem` run.

The JSON artifact schema is ``repro.bench/v11`` (see README "Benchmarking").
Relative to v10 it drops the fields that recorded the sharded execution:
the top-level and per-case ``execution`` fields and the per-case
``shard`` block.  v10
dropped the fields that recorded the retired oracle knobs (training
backend, corner engine and refit mode), top-level, per case and inside
the ``refit`` block.  v9 added per case the seed count
``n_seeds`` and ``success_ci95``, the 95% Wilson interval of ``success_rate``
(:func:`wilson_interval`), and per seed the number of trust-region stall
``restarts``.  v8 added ``--execution sharded`` and its per-case
``shard`` block, both gone again in v11.  Every artifact also carries a
top-level ``host`` block (:func:`host_block`: CPU count, BLAS vendor and
effective thread count, ``*_NUM_THREADS`` variables).  v7 added the surrogate-refit
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
      "schema": "repro.bench/v11",
      "suite": "smoke",
      "seeds": [0, 1, 2],
      "optimizer": "mixed",
      "host": {"cpu_count": 2, "blas": "scipy-openblas 0.3.31.188.0",
               "blas_threads": 1,
               "thread_variables": {"OPENBLAS_NUM_THREADS": "1"}},
      "cases": [
        {
          "name": "two_stage_opamp/nominal/nine",
          "topology": "two_stage_opamp", "tier": "nominal",
          "corner_set": "nine", "design_dims": 8,
          "optimizer": "trust_region",
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
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.bench.registry import (
    CORNER_SETS,
    BenchCase,
    available_suites,
    get_suite,
)
from repro.blas import blas_threads
from repro.circuits.topologies import available_topologies, get_topology
from repro.circuits.topologies.base import SPEC_TIERS
from repro.cli_types import non_negative_int, positive_int
from repro.obs import diff_snapshots, get_tracer, profiled, tracing, tracing_enabled
from repro.obs.logs import add_logging_flags, configure_cli_logging
from repro.resilience import atomic_write_json
from repro.search.optimizer import available_optimizers
from repro.search.progressive import ProgressiveResult

SCHEMA = "repro.bench/v11"

module_logger = logging.getLogger(__name__)

def host_block() -> Dict[str, Any]:
    """The measuring host, recorded in every artifact beside its timings.

    Core count and BLAS threading decide whether two artifacts' wall times
    compare at all.
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
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one benchmark case across seeds and aggregate the statistics.

    All seeds run as one multi-seed campaign.  ``optimizer`` overrides the
    case's search strategy when given (``None`` defers to the case, which
    defers to the library default).

    ``checkpoint_dir`` snapshots under ``<dir>/<case-slug>/`` after every
    round; ``resume=True`` restores from those snapshots first (a resumed
    run is bit-identical to an uninterrupted one); ``cache_dir`` persists
    the evaluation cache at ``<dir>/<case-slug>.evc`` for cross-process
    warm starts.
    """
    if resume and not checkpoint_dir:
        raise ValueError("resume=True needs checkpoint_dir")
    problem_cls = get_topology(case.topology)
    design_dims = len(problem_cls.VARIABLE_NAMES)
    seeds = [int(seed) for seed in seeds]
    effective_optimizer = optimizer if optimizer is not None else case.optimizer

    module_logger.info("case %s: %d seed(s)", case.name, len(seeds))
    metrics_before = get_tracer().metrics.snapshot() if tracing_enabled() else None
    with profiled(
        "bench.run_case", case=case.name, topology=case.topology, tier=case.tier
    ) as wall_timer:
        cache_path = os.path.join(cache_dir, f"{case.slug}.evc") if cache_dir else None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
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
    wall = wall_timer.seconds

    per_seed = [
        _per_seed_record(seed, result) for seed, result in zip(seeds, outcome.results)
    ]
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
        "n_seeds": len(per_seed),
        "success_rate": len(solved) / len(per_seed) if per_seed else 0.0,
        "success_ci95": (
            [round(bound, 4) for bound in interval] if interval is not None else None
        ),
        "median_evaluations_to_feasible": (
            int(median(record["evaluations"] for record in solved)) if solved else None
        ),
        "refit_seconds": round(sum(r["refit_seconds"] for r in per_seed), 6),
        "eval_seconds": round(outcome.eval_seconds, 6),
        "wall_seconds": round(wall, 6),
        "eval": {
            "engine_calls": outcome.engine_calls,
            "rounds": outcome.rounds,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
        },
        "refit": {
            "refit_seconds": round(sum(r["refit_seconds"] for r in per_seed), 6),
            "refit_rounds": outcome.refit_rounds,
            "batched_kernel_calls": outcome.batched_kernel_calls,
        },
        "resilience": resilience,
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
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run every case of a suite; returns the ``repro.bench/v11`` payload."""
    cases = get_suite(suite)
    module_logger.info("suite %r: %d case(s)", suite, len(cases))
    with profiled("bench.run_suite", suite=suite, cases=len(cases)) as wall_timer:
        case_results = [
            run_case(
                case,
                seeds,
                optimizer=optimizer,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                cache_dir=cache_dir,
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


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-line-per-case table for CLI output."""
    lines = [
        f"suite {payload['suite']!r} | seeds {payload['seeds']} "
        f"| optimizer {payload['optimizer']} "
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
        type=positive_int,
        default=3,
        metavar="N",
        help="number of seeds (K..K+N-1, K = --first-seed) per case (default: 3)",
    )
    parser.add_argument(
        "--first-seed",
        type=non_negative_int,
        default=0,
        metavar="K",
        help="first search seed (default: 0); a K past the seeds a change "
        "was tuned on runs held-out seeds through the registered suites",
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
        "round; a killed run resumes from there with --resume, "
        "bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume each case from its --checkpoint-dir snapshot, replaying "
        "its rounds from the journaled cache (cases whose directory has no "
        "snapshot yet start cold)",
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

    if not 0.0 <= args.fail_under <= 1.0:
        parser.error("--fail-under must be within [0, 1]")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume needs --checkpoint-dir")

    def _run() -> Dict[str, Any]:
        return run_suite(
            args.suite,
            seeds=range(args.first_seed, args.first_seed + args.seeds),
            optimizer=args.optimizer,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            cache_dir=args.cache_dir,
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
