"""The spawn pool behind the ``sharded16`` benchmark workload.

The bench, the determinism auditor and the resilience drill all run a
case's seeds as one multi-seed :class:`~repro.search.campaign.Campaign`,
which batches surrogate training across seeds.  The pool here keeps that
batching: the :class:`ShardedExecutor` takes per-seed :class:`ShardSpec`
entries, groups those that differ only in their seed, and splits each
group into contiguous **seed blocks** — one shard each, run as one
multi-seed campaign, so a block's refits stack across its seeds exactly as
an in-process campaign's do.  The pool goes with that workload.

Design decisions, and why:

* **The parent is worker 0.**  It pulls blocks like every spawned worker,
  so a run spawns only ``W - 1`` fresh interpreters and nobody idles while
  they import ``repro``.  ``workers=1`` spawns nothing: the parent runs
  every block through the same worker body.
* **Spawn, not fork.**  Workers come from an explicit
  ``multiprocessing.get_context("spawn")``: the engine process holds NumPy
  thread pools and a module-level tracer — state ``fork`` would duplicate
  into undefined territory.  Spawned workers rebuild their campaign from
  the declarative, picklable :class:`ShardSpec` (registry names + resolved
  config), never by pickling live campaign objects.  The ``spawn-unsafe``
  lint rule enforces this repo-wide.
* **Pull dispatch, not a static map.**  Each worker claims the next
  unclaimed block index from a parent-owned shared counter as soon as it
  finishes one, so a long block (a trapped seed burning its whole budget)
  holds up one worker while the others drain the rest.  A spawned worker
  that starts after every block is claimed exits at once, and one still
  importing ``repro`` when the parent finds every block finished is
  stopped rather than awaited: a block is often shorter than that import,
  so the parent may run them all.  Placement is
  therefore a run-time outcome: :attr:`ShardRunOutcome.shard_map` records
  where each block actually ran, read back from its result file.  The
  block split itself depends only on the specs and the worker count, and
  per-block results are bit-exact whatever the placement.  Every
  :meth:`ShardedExecutor.run` starts and joins its own workers and none
  outlives it — also when the parent's own block raises — which keeps
  their CPU time and peak memory visible to ``RUSAGE_CHILDREN``.
* **Results travel as atomic snapshot files, not queues.**  A worker
  writes one CRC-enveloped snapshot per finished block into a staging
  directory private to the run; the parent reads them back after
  ``join``.  A missing-or-
  complete file cannot corrupt or deadlock the way a pipe can when a
  worker dies mid-write.  A worker that raises, exits nonzero or dies on
  a signal surfaces as :class:`ShardWorkerError` naming it and every seed
  left without a result file.
* **Workers never trace.**  Spawned children would inherit
  ``REPRO_TRACE`` and clobber the parent's ``.partial`` sink, so the
  parent strips that variable around ``Process.start()``.

Counter attribution: **per-seed trajectories and best vectors are exact**
— a seed's search does not depend on which seeds share its campaign, so
each equals the in-process multi-seed campaign's bit for bit, and the
union of the blocks' caches holds the same pairs as that campaign's one
cache.  **Campaign-wide counters are sums over blocks**; cache hits and
engine calls depend on which seeds share a cache, so they are fixed by
the block split, not by placement.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.pvt import PVTCondition
from repro.obs import event, profiled
from repro.resilience.snapshot import load_snapshot, save_snapshot
from repro.search.progressive import ProgressiveConfig, ProgressiveResult
from repro.search.spec import Spec


class ShardWorkerError(RuntimeError):
    """A worker failed before finishing its blocks.

    Attributes
    ----------
    worker:
        Index of the failed worker (the first one, if several failed);
        worker 0 is the parent process.
    exitcode:
        The spawned process's exit code (negative: killed by that signal
        number); ``None`` when the parent's own block raised.
    shards:
        ``(spec_index, label, seed)`` identities of every seed left
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
        if exitcode is None:
            died = "(the parent process) raised"
        elif exitcode < 0:
            died = f"died on signal {-exitcode}"
        else:
            died = f"exited with code {exitcode}"
        unfinished = ", ".join(
            f"shard {index} ({label}, seed {seed})" for index, label, seed in shards
        )
        message = f"worker {worker} {died}; unfinished: {unfinished or 'none'}"
        if detail:
            message += f"\n{detail}"
        super().__init__(message)


@dataclass(frozen=True)
class ShardSpec:
    """One (workload, seed) pair, declaratively — picklable across spawn.

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

    def build(self, seeds: Sequence[int]):
        """This spec's Campaign over ``seeds`` (see ``sizing.build_campaign``)."""
        from repro.search.sizing import build_campaign

        return build_campaign(
            self.topology,
            technology=self.technology,
            load_cap=self.load_cap,
            specs=list(self.specs) if self.specs is not None else None,
            tier=self.tier,
            corners=list(self.corners) if self.corners else None,
            config=self.config,
            seeds=list(seeds),
        )


def _seedless(spec: ShardSpec) -> ShardSpec:
    """``spec`` with its seed zeroed: equal for specs one block may hold."""
    trust = replace(spec.config.trust_region, seed=0)
    return replace(spec, seed=0, config=replace(spec.config, trust_region=trust))


def seed_blocks(specs: Sequence[ShardSpec], workers: int) -> List[Tuple[int, ...]]:
    """Spec indices of each block, in claim order.

    Specs that differ only in their seed form a group, in first-appearance
    order; each group splits into ``min(workers, len(group))`` contiguous
    blocks, the first ones one seed longer when the sizes do not divide.
    """
    groups: List[Tuple[ShardSpec, List[int]]] = []
    for index, spec in enumerate(specs):
        key = _seedless(spec)
        for other, members in groups:
            if other == key:
                members.append(index)
                break
        else:
            groups.append((key, [index]))
    blocks: List[Tuple[int, ...]] = []
    for _, members in groups:
        parts = min(workers, len(members))
        size, extra = divmod(len(members), parts)
        start = 0
        for part in range(parts):
            stop = start + size + (part < extra)
            blocks.append(tuple(members[start:stop]))
            start = stop
    return blocks


@dataclass(frozen=True)
class ShardResult:
    """One finished block, as merged back into the parent."""

    index: int
    #: Indices into the executor's specs, in block order.
    spec_indices: Tuple[int, ...]
    seeds: List[int]
    label: str
    worker: int
    #: One :class:`ProgressiveResult` per seed, in ``seeds`` order.
    results: List[ProgressiveResult]
    rounds: int
    engine_calls: int
    eval_seconds: float
    cache_hits: int
    cache_misses: int
    refit_rounds: int
    batched_kernel_calls: int
    cache_digest: str
    #: Block wall time inside the worker (build + run).
    wall_seconds: float
    #: Full cache content (``EvaluationCache.content()``)
    #: when the executor collects it for union-digest parity checks.
    cache_content: Optional[List[Any]] = None


@dataclass
class ShardRunOutcome:
    """A sharded run, merged: per-block results plus summed accounting.

    Field names deliberately mirror
    :class:`~repro.search.campaign.CampaignResult` so
    :func:`repro.analysis.determinism.fingerprint_outcome` applies to both
    — the campaign-wide counters here are **sums over blocks** (see the
    module docstring).
    """

    #: One :class:`ProgressiveResult` per spec, in spec order.
    results: List[ProgressiveResult]
    seeds: List[int]
    #: The blocks, in claim order.
    shards: List[ShardResult]
    workers: int
    #: Where each block actually ran, ``{block index: worker}``.
    shard_map: Dict[int, int]
    #: ``{"worker", "shards", "wall_seconds", "eval_seconds"}`` for every
    #: worker, including one that ran no block.
    per_worker: List[Dict[str, Any]]
    rounds: int
    engine_calls: int
    eval_seconds: float
    cache_hits: int
    cache_misses: int
    refit_rounds: int
    batched_kernel_calls: int
    #: Union digest over all blocks' cache content (bit-equal to the
    #: in-process campaign's ``EvaluationCache.state_digest()``); ``None``
    #: unless the executor collected cache content.
    cache_digest: Optional[str] = None


def _result_path(scratch: str, index: int) -> str:
    return os.path.join(scratch, f"result-{index:05d}.snapshot")


def _error_path(scratch: str, worker_index: int) -> str:
    return os.path.join(scratch, f"error-worker-{worker_index}.snapshot")


def _run_block(
    index: int,
    block: Tuple[int, ...],
    specs: Sequence[ShardSpec],
    collect_cache_content: bool,
) -> Dict[str, Any]:
    """Run one block's multi-seed campaign; returns its result payload."""
    first = specs[block[0]]
    seeds = [specs[position].seed for position in block]
    campaign = first.build(seeds)
    try:
        outcome = campaign.run()
        cache = campaign.cache
        return {
            "index": index,
            "spec_indices": block,
            "seeds": seeds,
            "label": first.label,
            "results": outcome.results,
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


def _pull(next_block: Any, total: int) -> Iterator[int]:
    """Block indices claimed one at a time from the parent-owned counter.

    All workers share ``next_block``, so blocks go out in index order, each
    to whichever worker asks first; a worker asks only after finishing its
    previous block.
    """
    while True:
        with next_block.get_lock():
            index = next_block.value
            if index >= total:
                return
            next_block.value = index + 1
        yield index


def _worker_main(
    worker_index: int,
    block_indices: Iterable[int],
    blocks: Sequence[Tuple[int, ...]],
    specs: Sequence[ShardSpec],
    scratch: str,
    collect_cache_content: bool,
) -> int:
    """Worker body: run each block ``block_indices`` yields, one result file each.

    The parent runs it directly as worker 0 and every spawned worker runs
    it through :func:`_worker_entry`.  Returns 1 after writing an error
    file for the first block that raises, else 0.
    """
    for index in block_indices:
        block = blocks[index]
        seeds = [specs[position].seed for position in block]
        try:
            with profiled(
                "shard.run", shard=index, seeds=seeds, worker=worker_index
            ) as timer:
                payload = _run_block(index, block, specs, collect_cache_content)
            payload["wall_seconds"] = timer.seconds
            payload["worker"] = worker_index
            save_snapshot(_result_path(scratch, index), payload)
        except Exception as error:
            import traceback

            save_snapshot(
                _error_path(scratch, worker_index),
                {
                    "index": index,
                    "seeds": seeds,
                    "error": repr(error),
                    "traceback": traceback.format_exc(),
                },
            )
            return 1
    return 0


def _worker_entry(
    worker_index: int,
    next_block: Any,
    blocks: Sequence[Tuple[int, ...]],
    specs: Sequence[ShardSpec],
    scratch: str,
    collect_cache_content: bool,
) -> None:
    """Spawned-process entry point: pull blocks until none are left.

    The exit code is :func:`_worker_main`'s status.
    """
    block_indices = _pull(next_block, len(blocks))
    sys.exit(
        _worker_main(
            worker_index, block_indices, blocks, specs, scratch, collect_cache_content
        )
    )


class ShardedExecutor:
    """Run (workload, seed) specs as seed blocks across worker processes.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per seed; results come back in this order.
    workers:
        Worker count, the parent included (default: ``os.cpu_count()``).
        Each group of specs that differ only in seed splits into up to
        this many seed blocks, and each worker takes the next unclaimed
        block as soon as it finishes one.  More workers than specs spawn
        nothing extra; ``workers=1`` spawns nothing at all.
    collect_cache_content:
        Ship every block's full cache content back to the parent and
        compute the union :attr:`ShardRunOutcome.cache_digest` — the
        cross-process analogue of ``EvaluationCache.state_digest()``,
        used by the sharded-vs-in-process parity tests.
    scratch_dir:
        Where each run makes its private result-file staging directory,
        removed afterwards (default: the system temp directory).
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
        self.blocks = seed_blocks(self.specs, self.effective_workers)

    @property
    def effective_workers(self) -> int:
        """Workers that can get a block (never more than specs)."""
        return min(self.workers, len(self.specs))

    def _unfinished(self, scratch: str) -> List[int]:
        """Blocks without a result file in this run's staging directory."""
        return [
            index
            for index in range(len(self.blocks))
            if not os.path.exists(_result_path(scratch, index))
        ]

    def _raise_worker_failure(
        self, scratch: str, worker_index: int, exitcode: Optional[int]
    ) -> None:
        unfinished = [
            (position, self.specs[position].label, self.specs[position].seed)
            for index in self._unfinished(scratch)
            for position in self.blocks[index]
        ]
        detail = None
        error_file = _error_path(scratch, worker_index)
        if os.path.exists(error_file):
            error = load_snapshot(error_file)
            detail = (
                f"shard {error['index']} (seeds {error['seeds']}) raised "
                f"{error['error']}\n{error['traceback']}"
            )
        raise ShardWorkerError(worker_index, exitcode, unfinished, detail)

    def _run_workers(self, scratch: str) -> None:
        """Start workers 1..W-1, run worker 0 here, join all, check the run."""
        context = multiprocessing.get_context("spawn")
        # Parent-owned: the lowest block index no worker has claimed yet.
        next_block = context.Value("i", 0)
        total = len(self.blocks)
        args = (self.blocks, self.specs, scratch, self.collect_cache_content)
        processes = []
        try:
            # Spawned children import repro afresh; REPRO_TRACE would point
            # their module-level tracer at the parent's sink and clobber its
            # .partial sidecar, so the variable is stripped around start().
            saved_trace = os.environ.pop("REPRO_TRACE", None)
            try:
                for worker_index in range(1, self.effective_workers):
                    process = context.Process(
                        target=_worker_entry,
                        args=(worker_index, next_block) + args,
                        name=f"repro-shard-worker-{worker_index}",
                    )
                    process.start()
                    processes.append(process)
            finally:
                if saved_trace is not None:
                    os.environ["REPRO_TRACE"] = saved_trace
            status = _worker_main(0, _pull(next_block, total), *args)
            if status != 0:
                # Hand out no further blocks; workers finish their current one.
                with next_block.get_lock():
                    next_block.value = total
            elif not self._unfinished(scratch):
                # Every block has its result, so no worker has work left;
                # one may still be importing repro: stop it, do not wait.
                for process in processes:
                    process.terminate()
            for process in processes:
                process.join()
        finally:
            # No worker outlives run(), even when the parent is interrupted.
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join()
        if status != 0:
            self._raise_worker_failure(scratch, 0, None)
        if not self._unfinished(scratch):
            return
        # A block without a result was claimed by a worker that raised or
        # died, and only such a worker exits nonzero.
        for worker_index, process in enumerate(processes, start=1):
            if process.exitcode != 0:
                self._raise_worker_failure(scratch, worker_index, process.exitcode)

    def run(self) -> ShardRunOutcome:
        """Run all blocks to completion and merge; see the module docstring.

        Raises :class:`ShardWorkerError` when a worker dies or a block
        raises.
        """
        if self.scratch_dir:
            os.makedirs(self.scratch_dir, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="repro-shard-", dir=self.scratch_dir)
        event(
            "shard.start",
            shards=len(self.blocks),
            workers=self.effective_workers,
            requested_workers=self.workers,
        )
        try:
            self._run_workers(scratch)
            payloads = [
                load_snapshot(_result_path(scratch, index))
                for index in range(len(self.blocks))
            ]
        finally:
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
        results: List[Any] = [None] * len(self.specs)
        for shard in shards:
            for position, result in zip(shard.spec_indices, shard.results):
                results[position] = result
        digest = None
        if self.collect_cache_content:
            from repro.shard.parity import union_state_digest

            digest = union_state_digest(
                shard.cache_content for shard in shards if shard.cache_content
            )
        return ShardRunOutcome(
            results=results,
            seeds=[spec.seed for spec in self.specs],
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
