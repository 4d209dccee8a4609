"""Sharded execution: pull dispatch, spawn parity, store merge, worker failure."""

import dataclasses
import glob
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis.determinism import fingerprint_outcome
from repro.bench.registry import BenchCase, get_suite
from repro.bench.runner import run_suite
from repro.obs import load_traces
from repro.obs.__main__ import main as obs_main
from repro.search import Spec
from repro.shard import (
    ShardedExecutor,
    ShardSpec,
    ShardWorkerError,
    run_sequential,
    union_state_digest,
)

SEEDS = [0, 1]


@pytest.fixture(scope="module")
def tiny_specs():
    return get_suite("tiny")[0].shard_specs(SEEDS)


@pytest.fixture(scope="module")
def oracle(tiny_specs):
    """The in-process sequential oracle every parity test diffs against."""
    outcome = run_sequential(tiny_specs)
    return outcome, _fingerprint(outcome)


def _fingerprint(outcome):
    return json.dumps(
        fingerprint_outcome(outcome, outcome.cache_digest, SEEDS), sort_keys=True
    )


class TestShardMap:
    def test_pull_dispatch_runs_every_shard_once(self, tmp_path, monkeypatch, capsys):
        specs = get_suite("tiny")[0].shard_specs([0, 1, 2, 3])
        parent_sink = str(tmp_path / "parent.jsonl")
        monkeypatch.setenv("REPRO_TRACE", parent_sink)
        trace_dir = str(tmp_path / "workers")
        outcome = ShardedExecutor(specs, workers=2, trace_dir=trace_dir).run()
        # No worker outlives run().
        assert multiprocessing.active_children() == []
        # REPRO_TRACE is restored in the parent and never reached a worker.
        assert os.environ["REPRO_TRACE"] == parent_sink
        assert glob.glob(parent_sink + "*") == []
        # One shard.run span per shard across the worker traces, each on
        # the worker the outcome's map and shard records name.
        runs = [
            record
            for record in load_traces([trace_dir])
            if record["type"] == "span" and record["name"] == "shard.run"
        ]
        assert sorted(record["tags"]["shard"] for record in runs) == [0, 1, 2, 3]
        placed = {record["tags"]["shard"]: record["tags"]["worker"] for record in runs}
        assert outcome.shard_map == placed
        assert outcome.shard_map == {shard.index: shard.worker for shard in outcome.shards}
        assert [shard.index for shard in outcome.shards] == [0, 1, 2, 3]
        assert [entry["worker"] for entry in outcome.per_worker] == [0, 1]
        assert [entry["shards"] for entry in outcome.per_worker] == [
            list(placed.values()).count(worker) for worker in (0, 1)
        ]
        # The merged per-worker traces still render.
        assert obs_main(["report", trace_dir]) == 0
        assert "per-worker self-time:" in capsys.readouterr().out

    def test_long_shard_does_not_hold_up_the_rest(self):
        # An unsatisfiable folded-cascode shard burns its full budget over
        # four phases (seconds); each tiny shard solves in initial sampling.
        (long,) = BenchCase("folded_cascode", "nominal", "nine").shard_specs([3])
        long = dataclasses.replace(long, specs=(Spec("dc_gain_db", ">=", 500.0),))
        short = get_suite("tiny")[0].shard_specs(range(5))
        outcome = ShardedExecutor([long] + short, workers=2).run()
        stuck = outcome.shard_map[0]
        others = [worker for worker in outcome.shard_map.values() if worker != stuck]
        # A static round-robin map would give the other worker exactly 3.
        assert len(others) > len(outcome.shards) // 2

    def test_effective_workers_never_exceed_shards(self, tiny_specs):
        executor = ShardedExecutor(tiny_specs, workers=8)
        assert executor.effective_workers == len(tiny_specs)

    def test_validation(self, tiny_specs):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedExecutor([])
        with pytest.raises(ValueError, match="at least 1"):
            ShardedExecutor(tiny_specs, workers=0)
        with pytest.raises(ValueError, match="needs checkpoint_dir"):
            ShardedExecutor(tiny_specs, workers=1, resume=True)
        # Kill plans SIGKILL the worker process; the in-process fast path
        # must refuse them instead of killing the parent.
        with pytest.raises(ValueError, match="spawned execution"):
            ShardedExecutor(tiny_specs, workers=1, kill_plans={0: 1})


class TestParity:
    def test_inline_fast_path_matches_oracle(self, tiny_specs, oracle):
        _, oracle_fp = oracle
        outcome = ShardedExecutor(
            tiny_specs, workers=1, collect_cache_content=True
        ).run()
        assert _fingerprint(outcome) == oracle_fp
        assert [shard.worker for shard in outcome.shards] == [0, 0]

    def test_spawned_workers_match_oracle(self, tiny_specs, oracle):
        oracle_outcome, oracle_fp = oracle
        outcome = ShardedExecutor(
            tiny_specs, workers=2, collect_cache_content=True
        ).run()
        assert _fingerprint(outcome) == oracle_fp
        assert outcome.cache_digest == oracle_outcome.cache_digest
        # Placement bookkeeping: the map, the shard records and the
        # per-worker rollup all tell the same story.
        assert outcome.shard_map == {
            shard.index: shard.worker for shard in outcome.shards
        }
        assert sum(entry["shards"] for entry in outcome.per_worker) == len(tiny_specs)
        # Per-seed counters are exact (each shard is its own single-seed
        # campaign), so campaign-wide sums match the oracle's too.
        assert outcome.engine_calls == oracle_outcome.engine_calls
        assert outcome.cache_hits == oracle_outcome.cache_hits

    def test_bench_runner_sharded_block(self):
        payload = run_suite("tiny", seeds=SEEDS, execution="sharded", workers=1)
        assert payload["execution"] == "sharded"
        (case,) = payload["cases"]
        shard = case["shard"]
        assert shard["workers"] == 1
        assert sorted(shard["shard_map"]) == [str(seed) for seed in SEEDS]
        assert [entry["worker"] for entry in shard["per_worker"]] == [0]


class TestCacheMerge:
    def test_merge_on_close_equivalence(self, tiny_specs, oracle, tmp_path):
        from repro.search.eval_cache import EvaluationCache

        oracle_outcome, _ = oracle
        master = str(tmp_path / "cache.evc")
        cold = ShardedExecutor(
            tiny_specs, workers=2, cache_path=master, collect_cache_content=True
        ).run()
        # Per-shard files are folded into the master and removed.
        assert glob.glob(master + ".shard-*") == []
        assert os.path.exists(master)
        # The merged master's digest equals both the union digest and the
        # sequential oracle's in-process cache digest.
        def _no_engine(rows, corners):
            raise AssertionError("read-back must not evaluate")

        campaign = tiny_specs[0].build()
        dimension = campaign.handle.design_space.dimension
        n_metrics = len(campaign.handle.metric_names)
        campaign.close()
        store = EvaluationCache(
            _no_engine, dimension, n_metrics, persist_path=master
        )
        try:
            assert store.state_digest() == cold.cache_digest
        finally:
            store.close()
        assert cold.cache_digest == oracle_outcome.cache_digest

        # Warm rerun: every shard preloads the merged master and recomputes
        # nothing, yet lands on the identical digest.
        warm = ShardedExecutor(
            tiny_specs, workers=2, cache_path=master, collect_cache_content=True
        ).run()
        assert warm.cache_digest == cold.cache_digest
        assert all(
            shard.cache_counters["preloaded_pairs"] > 0 for shard in warm.shards
        )
        assert [shard.engine_calls for shard in warm.shards] == [0, 0]

    def test_union_digest_rejects_conflicting_rows(self):
        corner = ("typical", 1.0, 27.0)
        left = [(corner, [b"key"], np.ones((1, 2)))]
        right = [(corner, [b"key"], np.zeros((1, 2)))]
        with pytest.raises(ValueError, match="two different metric rows"):
            union_state_digest([left, right])


class TestWorkerFailure:
    def test_spawned_crash_names_the_shard(self, tiny_specs, tmp_path):
        bad = [
            dataclasses.replace(spec, topology="no_such_topology")
            for spec in tiny_specs
        ]
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(bad, workers=2).run()
        error = excinfo.value
        assert error.exitcode == 1
        assert (0, bad[0].label, 0) in error.shards
        assert "no_such_topology" in str(error)

    def test_inline_crash_names_the_shard(self, tiny_specs):
        bad = [dataclasses.replace(tiny_specs[0], topology="no_such_topology")]
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(bad, workers=1).run()
        error = excinfo.value
        assert error.worker == 0
        assert error.exitcode is None
        assert (0, bad[0].label, 0) in error.shards

    def test_sigkilled_worker_resumes_bit_identical(
        self, tiny_specs, oracle, tmp_path
    ):
        _, oracle_fp = oracle
        checkpoint_dir = str(tmp_path / "checkpoints")
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(
                tiny_specs,
                workers=2,
                checkpoint_dir=checkpoint_dir,
                collect_cache_content=True,
                kill_plans={0: 2},
            ).run()
        error = excinfo.value
        # A real SIGKILL, surfaced with the dead worker and the one shard
        # it held; the surviving worker pulled and finished the other.
        assert error.worker in (0, 1)
        assert error.exitcode == -9
        assert error.shards == [(0, tiny_specs[0].label, 0)]
        resumed = ShardedExecutor(
            tiny_specs,
            workers=2,
            checkpoint_dir=checkpoint_dir,
            resume=True,
            collect_cache_content=True,
        ).run()
        assert _fingerprint(resumed) == oracle_fp
        # The killed shard restored its round-1 snapshot; the survivor's
        # finished-state snapshot replays as a no-op.
        assert resumed.shards[0].resumed_from_round == 1
