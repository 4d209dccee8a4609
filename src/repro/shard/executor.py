"""The spawn pool behind the ``sharded16`` benchmark workload.

The bench, the determinism auditor and the resilience drill all run a
case's seeds as one multi-seed :class:`~repro.search.campaign.Campaign`,
which batches surrogate training across seeds; a one-seed shard cannot, so
spreading seeds over processes bought no wall time.  What is left here is
the pool the repository benchmark's ``sharded16`` workload still drives,
and it goes with that workload.  The :class:`ShardedExecutor` runs
single-seed **shards** (one :class:`ShardSpec` each), every shard its own
single-seed campaign inside a spawned worker process.

Design decisions, and why:

* **Spawn, not fork.**  Workers come from an explicit
  ``multiprocessing.get_context("spawn")``: the engine process holds NumPy
  thread pools and a module-level tracer — state ``fork`` would duplicate
  into undefined territory.  Spawned workers rebuild their campaign from
  the declarative, picklable :class:`ShardSpec` (registry names + resolved
  config), never by pickling live campaign objects.  The ``spawn-unsafe``
  lint rule enforces this repo-wide.
* **Pull dispatch, not a static map.**  Each of the W workers claims the
  next unclaimed shard index from a parent-owned shared counter as soon
  as it finishes one, so a long shard (a trapped seed burning its whole
  budget) holds up one worker while the others drain the rest.  Placement
  is therefore a run-time outcome: :attr:`ShardRunOutcome.shard_map`
  records where each shard actually ran, read back from its result file.
  Per-shard results are bit-exact whatever the placement.  Every
  :meth:`ShardedExecutor.run` starts and joins its own workers and none
  outlives it, which also keeps their CPU time and peak memory visible to
  ``RUSAGE_CHILDREN``.
* **Results travel as atomic snapshot files, not queues.**  A worker
  writes one CRC-enveloped snapshot per finished shard into a scratch
  directory; the parent reads them back after ``join``.  A missing-or-
  complete file cannot corrupt or deadlock the way a pipe can when a
  worker dies mid-write.  A worker that exits nonzero (or dies on a
  signal) surfaces as :class:`ShardWorkerError` naming it and every shard
  left without a result file.
* **Workers never trace.**  Spawned children would inherit
  ``REPRO_TRACE`` and clobber the parent's ``.partial`` sink, so the
  parent strips that variable around ``Process.start()``.

Counter attribution: **per-seed counters are exact** — each shard is its
own single-seed campaign, so its trajectory, cache accounting and
best-vector bytes equal those of the in-process oracle
(:func:`repro.shard.parity.run_sequential`) bit for bit, at any worker
count.  **Campaign-wide counters are sums over shards**, which matches
that oracle exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.blas import blas_threads
from repro.circuits.pvt import PVTCondition
from repro.obs import event, profiled
from repro.resilience.snapshot import load_snapshot, save_snapshot
from repro.search.progressive import ProgressiveConfig, ProgressiveResult
from repro.search.spec import Spec


class ShardWorkerError(RuntimeError):
    """A worker process died or failed before finishing its shards.

    Attributes
    ----------
    worker:
        Index of the failed worker (the first one, if several failed).
    exitcode:
        The process exit code (negative: killed by that signal number;
        ``None``: the worker exited zero but left results missing).
    shards:
        ``(shard_index, label, seed)`` identities of every shard left
        without a result file.
    """

    def __init__(
        self,
        worker: int,
        exitcode: Optional[int],
        shards: Sequence[Tuple[int, str, int]],
        detail: Optional[str] = None,
    ) -> None:
        self.worker = worker
        self.exitcode = exitcode
        self.shards = list(shards)
        self.detail = detail
        if exitcode is not None and exitcode < 0:
            died = f"died on signal {-exitcode}"
        elif exitcode:
            died = f"exited with code {exitcode}"
        else:
            died = "exited without writing all shard results"
        unfinished = ", ".join(
            f"shard {index} ({label}, seed {seed})" for index, label, seed in shards
        )
        message = f"worker {worker} {died}; unfinished: {unfinished or 'none'}"
        if detail:
            message += f"\n{detail}"
        super().__init__(message)


@dataclass(frozen=True)
class ShardSpec:
    """One (workload, seed) shard, declaratively — picklable across spawn.

    Carries registry names and a **fully resolved**
    :class:`~repro.search.progressive.ProgressiveConfig` (seed, optimizer
    and phase budget all baked in), so a spawned
    worker rebuilds exactly the campaign the parent described without
    pickling any live evaluator state.  Built from a bench case with
    :meth:`repro.bench.registry.BenchCase.shard_specs`.
    """

    topology: str
    seed: int
    config: ProgressiveConfig
    tier: str = "nominal"
    technology: str = "bsim45"
    load_cap: float = 2e-12
    corners: Tuple[PVTCondition, ...] = ()
    specs: Optional[Tuple[Spec, ...]] = None
    #: Display/grouping label (the bench case name, usually).
    label: str = ""

    def build(self):
        """The shard's single-seed Campaign (see ``sizing.build_campaign``)."""
        from repro.search.sizing import build_campaign

        return build_campaign(
            self.topology,
            technology=self.technology,
            load_cap=self.load_cap,
            specs=list(self.specs) if self.specs is not None else None,
            tier=self.tier,
            corners=list(self.corners) if self.corners else None,
            config=self.config,
            seeds=[self.seed],
        )


@dataclass(frozen=True)
class ShardResult:
    """One finished shard, as merged back into the parent."""

    index: int
    seed: int
    label: str
    worker: int
    result: ProgressiveResult
    rounds: int
    engine_calls: int
    eval_seconds: float
    cache_hits: int
    cache_misses: int
    refit_rounds: int
    batched_kernel_calls: int
    cache_digest: str
    #: Shard wall time inside the worker (build + run).
    wall_seconds: float
    #: Full cache content (``EvaluationCache.content()``)
    #: when the executor collects it for union-digest parity checks.
    cache_content: Optional[List[Any]] = None
    #: BLAS threads the worker ran with (``None`` when unreadable; see
    #: :mod:`repro.blas`).
    blas_threads: Optional[int] = None


@dataclass
class ShardRunOutcome:
    """A sharded run, merged: per-shard results plus summed accounting.

    Field names deliberately mirror
    :class:`~repro.search.campaign.CampaignResult` so
    :func:`repro.analysis.determinism.fingerprint_outcome` applies to both
    — the campaign-wide counters here are **sums over shards** (the
    in-process oracle's attribution rule; see the module docstring).
    """

    results: List[ProgressiveResult]
    seeds: List[int]
    shards: List[ShardResult]
    workers: int
    #: Where each shard actually ran, ``{shard index: worker}``.
    shard_map: Dict[int, int]
    #: ``{"worker", "shards", "wall_seconds", "eval_seconds"}`` for every
    #: worker started, including one that ran no shard.
    per_worker: List[Dict[str, Any]]
    rounds: int
    engine_calls: int
    eval_seconds: float
    cache_hits: int
    cache_misses: int
    refit_rounds: int
    batched_kernel_calls: int
    #: Union digest over all shards' cache content (bit-equal to the
    #: in-process oracle's ``EvaluationCache.state_digest()``); ``None``
    #: unless the executor collected cache content.
    cache_digest: Optional[str] = None


def _result_path(scratch: str, index: int) -> str:
    return os.path.join(scratch, f"result-{index:05d}.snapshot")


def _error_path(scratch: str, worker_index: int) -> str:
    return os.path.join(scratch, f"error-worker-{worker_index}.snapshot")


def _run_shard(index: int, spec: ShardSpec, collect_cache_content: bool) -> Dict[str, Any]:
    """Run one shard's single-seed campaign; returns its result payload."""
    campaign = spec.build()
    try:
        outcome = campaign.run()
        cache = campaign.cache
        return {
            "index": index,
            "seed": spec.seed,
            "label": spec.label,
            "result": outcome.results[0],
            "rounds": outcome.rounds,
            "engine_calls": outcome.engine_calls,
            "eval_seconds": outcome.eval_seconds,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "refit_rounds": outcome.refit_rounds,
            "batched_kernel_calls": outcome.batched_kernel_calls,
            "cache_digest": cache.state_digest(),
            "cache_content": cache.content() if collect_cache_content else None,
        }
    finally:
        campaign.close()


def _pull(next_shard: Any, total: int) -> Iterator[int]:
    """Shard indices claimed one at a time from the parent-owned counter.

    All workers share ``next_shard``, so shards go out in index order, each
    to whichever worker asks first; a worker asks only after finishing its
    previous shard.
    """
    while True:
        with next_shard.get_lock():
            index = next_shard.value
            if index >= total:
                return
            next_shard.value = index + 1
        yield index


def _worker_main(
    worker_index: int,
    shard_indices: Iterable[int],
    specs: Sequence[ShardSpec],
    scratch: str,
    collect_cache_content: bool,
) -> int:
    """Worker body: run each shard ``shard_indices`` yields, one result file each.

    Used both as the spawned process target (via :func:`_worker_entry`,
    pulling from the shared counter) and directly by the parent for the
    ``workers == 1`` in-process fast path (every shard in index order) —
    the same code path is what makes the fast path bit-for-bit equal to
    spawned execution.
    """
    threads = blas_threads()
    for index in shard_indices:
        spec = specs[index]
        try:
            with profiled(
                "shard.run", shard=index, seed=spec.seed, worker=worker_index
            ) as timer:
                payload = _run_shard(index, spec, collect_cache_content)
            payload["wall_seconds"] = timer.seconds
            payload["worker"] = worker_index
            payload["blas_threads"] = threads
            save_snapshot(_result_path(scratch, index), payload)
        except Exception as error:
            import traceback

            save_snapshot(
                _error_path(scratch, worker_index),
                {
                    "index": index,
                    "seed": spec.seed,
                    "error": repr(error),
                    "traceback": traceback.format_exc(),
                },
            )
            return 1
    return 0


def _worker_entry(
    worker_index: int,
    next_shard: Any,
    specs: Sequence[ShardSpec],
    scratch: str,
    collect_cache_content: bool,
) -> None:
    """Spawned-process entry point: pull shards until none are left.

    The exit code is :func:`_worker_main`'s status.
    """
    shard_indices = _pull(next_shard, len(specs))
    sys.exit(
        _worker_main(worker_index, shard_indices, specs, scratch, collect_cache_content)
    )


class ShardedExecutor:
    """Run (workload, seed) shards across spawned worker processes.

    Parameters
    ----------
    specs:
        The shards, one :class:`ShardSpec` each; results come back in this
        order.
    workers:
        Worker process count (default: ``os.cpu_count()``).  Each worker
        takes the next unclaimed shard as soon as it finishes one.  More
        workers than shards spawn nothing extra; ``workers=1`` runs every
        shard in-process (no spawn), bit-for-bit equal to spawned execution.
    collect_cache_content:
        Ship every shard's full cache content back to the parent and
        compute the union :attr:`ShardRunOutcome.cache_digest` — the
        cross-process analogue of ``EvaluationCache.state_digest()``,
        used by the spawned-vs-sequential parity tests.
    scratch_dir:
        Result-file staging directory (default: a private temp directory,
        removed afterwards).
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        workers: Optional[int] = None,
        collect_cache_content: bool = False,
        scratch_dir: Optional[str] = None,
    ) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("a sharded run needs at least one shard spec")
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.collect_cache_content = collect_cache_content
        self.scratch_dir = scratch_dir

    @property
    def effective_workers(self) -> int:
        """Workers that actually get shards (never more than shards)."""
        return min(self.workers, len(self.specs))

    def _raise_worker_failure(
        self, scratch: str, worker_index: int, exitcode: Optional[int]
    ) -> None:
        unfinished = [
            (index, spec.label, spec.seed)
            for index, spec in enumerate(self.specs)
            if not os.path.exists(_result_path(scratch, index))
        ]
        detail = None
        error_file = _error_path(scratch, worker_index)
        if os.path.exists(error_file):
            error = load_snapshot(error_file)
            detail = (
                f"shard {error['index']} (seed {error['seed']}) raised "
                f"{error['error']}\n{error['traceback']}"
            )
        raise ShardWorkerError(worker_index, exitcode, unfinished, detail)

    def _spawn(self, scratch: str) -> None:
        """Start the pulling workers, join them all, and check the run."""
        context = multiprocessing.get_context("spawn")
        # Parent-owned: the lowest shard index no worker has claimed yet.
        next_shard = context.Value("i", 0)
        processes = []
        try:
            # Spawned children import repro afresh; REPRO_TRACE would point
            # their module-level tracer at the parent's sink and clobber its
            # .partial sidecar, so the variable is stripped around start().
            saved_trace = os.environ.pop("REPRO_TRACE", None)
            try:
                for worker_index in range(self.effective_workers):
                    process = context.Process(
                        target=_worker_entry,
                        args=(
                            worker_index,
                            next_shard,
                            self.specs,
                            scratch,
                            self.collect_cache_content,
                        ),
                        name=f"repro-shard-worker-{worker_index}",
                    )
                    process.start()
                    processes.append(process)
            finally:
                if saved_trace is not None:
                    os.environ["REPRO_TRACE"] = saved_trace
            for process in processes:
                process.join()
        finally:
            # No worker outlives run(), even when the parent is interrupted.
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join()
        # A worker exits zero only once the counter is exhausted and every
        # shard it claimed has its result file, so exit codes tell it all.
        failed = [
            worker_index
            for worker_index, process in enumerate(processes)
            if process.exitcode != 0
        ]
        if failed:
            self._raise_worker_failure(
                scratch, failed[0], processes[failed[0]].exitcode
            )

    def run(self) -> ShardRunOutcome:
        """Run all shards to completion and merge; see the module docstring.

        Raises :class:`ShardWorkerError` when a worker dies or a shard
        raises.
        """
        scratch = self.scratch_dir or tempfile.mkdtemp(prefix="repro-shard-")
        created_scratch = self.scratch_dir is None
        if self.scratch_dir:
            os.makedirs(scratch, exist_ok=True)
        event(
            "shard.start",
            shards=len(self.specs),
            workers=self.effective_workers,
            requested_workers=self.workers,
        )
        try:
            if self.effective_workers == 1:
                # In-process fast path: same worker body, no spawn.
                status = _worker_main(
                    0,
                    range(len(self.specs)),
                    self.specs,
                    scratch,
                    self.collect_cache_content,
                )
                if status != 0:
                    self._raise_worker_failure(scratch, 0, None)
            else:
                self._spawn(scratch)
            payloads = [
                load_snapshot(_result_path(scratch, index))
                for index in range(len(self.specs))
            ]
        finally:
            if created_scratch:
                shutil.rmtree(scratch, ignore_errors=True)
        return self._build_outcome(payloads)

    def _build_outcome(self, payloads: Sequence[Dict[str, Any]]) -> ShardRunOutcome:
        shards = [ShardResult(**payload) for payload in payloads]
        per_worker = []
        for worker_index in range(self.effective_workers):
            owned = [shard for shard in shards if shard.worker == worker_index]
            per_worker.append(
                {
                    "worker": worker_index,
                    "shards": len(owned),
                    "wall_seconds": sum(shard.wall_seconds for shard in owned),
                    "eval_seconds": sum(shard.eval_seconds for shard in owned),
                }
            )
        digest = None
        if self.collect_cache_content:
            from repro.shard.parity import union_state_digest

            digest = union_state_digest(
                shard.cache_content for shard in shards if shard.cache_content
            )
        return ShardRunOutcome(
            results=[shard.result for shard in shards],
            seeds=[shard.seed for shard in shards],
            shards=shards,
            workers=self.effective_workers,
            shard_map={shard.index: shard.worker for shard in shards},
            per_worker=per_worker,
            rounds=sum(shard.rounds for shard in shards),
            engine_calls=sum(shard.engine_calls for shard in shards),
            eval_seconds=sum(shard.eval_seconds for shard in shards),
            cache_hits=sum(shard.cache_hits for shard in shards),
            cache_misses=sum(shard.cache_misses for shard in shards),
            refit_rounds=sum(shard.refit_rounds for shard in shards),
            batched_kernel_calls=sum(shard.batched_kernel_calls for shard in shards),
            cache_digest=digest,
        )
