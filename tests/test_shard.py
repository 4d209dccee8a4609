"""The spawn pool behind sharded16: pull dispatch, spawn parity, worker failure."""

import dataclasses
import glob
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis.determinism import fingerprint_outcome
from repro.bench.registry import BenchCase, get_suite
from repro.search import Spec
from repro.shard import (
    ShardedExecutor,
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
    def test_pull_dispatch_runs_every_shard_once(self, tmp_path, monkeypatch):
        specs = get_suite("tiny")[0].shard_specs([0, 1, 2, 3])
        parent_sink = str(tmp_path / "parent.jsonl")
        monkeypatch.setenv("REPRO_TRACE", parent_sink)
        outcome = ShardedExecutor(specs, workers=2).run()
        # No worker outlives run().
        assert multiprocessing.active_children() == []
        # REPRO_TRACE is restored in the parent and never reached a worker:
        # a worker that inherited it would have opened the parent's sink.
        assert os.environ["REPRO_TRACE"] == parent_sink
        assert glob.glob(parent_sink + "*") == []
        # Every shard ran exactly once, in spec order, on a started worker,
        # and the map, the shard records and the per-worker rollup agree.
        assert [shard.index for shard in outcome.shards] == [0, 1, 2, 3]
        assert [shard.seed for shard in outcome.shards] == [0, 1, 2, 3]
        assert outcome.shard_map == {shard.index: shard.worker for shard in outcome.shards}
        assert set(outcome.shard_map.values()) <= {0, 1}
        assert [entry["worker"] for entry in outcome.per_worker] == [0, 1]
        assert [entry["shards"] for entry in outcome.per_worker] == [
            list(outcome.shard_map.values()).count(worker) for worker in (0, 1)
        ]

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


class TestParity:
    def test_inline_fast_path_matches_oracle(self, tiny_specs, oracle):
        oracle_outcome, oracle_fp = oracle
        outcome = ShardedExecutor(
            tiny_specs, workers=1, collect_cache_content=True
        ).run()
        assert _fingerprint(outcome) == oracle_fp
        assert outcome.cache_digest == oracle_outcome.cache_digest
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


class TestCacheMerge:
    """The union digest over per-shard cache contents."""

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
