"""The spawn pool behind sharded16: seed blocks, pull dispatch with the
parent as worker 0, parity with the in-process campaign, worker failure."""

import dataclasses
import glob
import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from conftest import trajectory
from repro.analysis.determinism import fingerprint_outcome
from repro.bench.registry import BenchCase, get_suite
from repro.search import Spec
from repro.shard import ShardedExecutor, ShardWorkerError, union_state_digest
from repro.shard.executor import ShardSpec, seed_blocks

#: Two blocks of two seeds each at ``workers=2``.
SEEDS = [0, 1, 2, 3]


@pytest.fixture(scope="module")
def tiny_case():
    return get_suite("tiny")[0]


@pytest.fixture(scope="module")
def tiny_specs(tiny_case):
    return tiny_case.shard_specs(SEEDS)


@pytest.fixture(scope="module")
def oracle(tiny_case):
    """One in-process multi-seed campaign over SEEDS, and its cache digest."""
    campaign = tiny_case.build_campaign(SEEDS)
    try:
        return campaign.run(), campaign.cache.state_digest()
    finally:
        campaign.close()


def _unsatisfiable(max_evaluations):
    """A folded-cascode seed that burns its whole budget in each of four
    phases (about a second at 400 rows a phase)."""
    (spec,) = BenchCase(
        "folded_cascode", "nominal", "nine", max_evaluations=max_evaluations
    ).shard_specs([3])
    return dataclasses.replace(spec, specs=(Spec("dc_gain_db", ">=", 500.0),))


@pytest.fixture(scope="module")
def long_spec():
    """Long enough that the parent, which claims the first block, is still
    busy with it after a spawned worker has imported ``repro`` and drained
    every other block."""
    return _unsatisfiable(800)


@pytest.fixture
def parent_builds(monkeypatch):
    """Seeds of every block campaign built in this process, in build order.

    Spawned workers import the unpatched module, so this sees only the
    blocks the parent ran as worker 0.
    """
    built = []
    build = ShardSpec.build

    def recording(spec, seeds):
        built.append(list(seeds))
        return build(spec, seeds)

    monkeypatch.setattr(ShardSpec, "build", recording)
    return built


def _fingerprint(outcome, digest):
    return json.dumps(fingerprint_outcome(outcome, digest, SEEDS), sort_keys=True)


def _per_seed(results):
    """Each seed's trajectory, accounting left out, and its best-vector bytes."""
    return [
        (trajectory(result.to_dict()), hashlib.sha256(result.best_vector.tobytes()).hexdigest())
        for result in results
    ]


class TestSeedBlocks:
    def test_groups_split_into_contiguous_blocks(self, tiny_specs, long_spec):
        specs = tiny_specs[:3] + [long_spec] + tiny_specs[3:]
        # The tiny group (positions 0, 1, 2, 4) splits in two, longer first;
        # the lone long spec is its own block.
        assert seed_blocks(specs, 2) == [(0, 1), (2, 4), (3,)]
        assert seed_blocks(specs, 1) == [(0, 1, 2, 4), (3,)]
        assert seed_blocks(specs, 8) == [(0,), (1,), (2,), (4,), (3,)]


class TestShardMap:
    def test_pull_dispatch_runs_every_shard_once(self, tiny_specs, tmp_path, monkeypatch):
        parent_sink = str(tmp_path / "parent.jsonl")
        monkeypatch.setenv("REPRO_TRACE", parent_sink)
        outcome = ShardedExecutor(tiny_specs, workers=2).run()
        # No worker outlives run().
        assert multiprocessing.active_children() == []
        # REPRO_TRACE is restored in the parent and never reached a worker:
        # a worker that inherited it would have opened the parent's sink.
        assert os.environ["REPRO_TRACE"] == parent_sink
        assert glob.glob(parent_sink + "*") == []
        # Every block ran exactly once, in claim order, on one of the two
        # workers, and the map, the block records and the per-worker
        # rollup agree; results come back one per spec, in spec order.
        assert [shard.index for shard in outcome.shards] == [0, 1]
        assert [shard.seeds for shard in outcome.shards] == [[0, 1], [2, 3]]
        assert outcome.seeds == SEEDS
        assert len(outcome.results) == len(SEEDS)
        assert outcome.shard_map == {shard.index: shard.worker for shard in outcome.shards}
        assert set(outcome.shard_map.values()) <= {0, 1}
        assert [entry["worker"] for entry in outcome.per_worker] == [0, 1]
        assert [entry["shards"] for entry in outcome.per_worker] == [
            list(outcome.shard_map.values()).count(worker) for worker in (0, 1)
        ]

    def test_long_shard_does_not_hold_up_the_rest(
        self, tiny_specs, long_spec, oracle, parent_builds
    ):
        # The parent claims the long block first; the spawned worker takes
        # both tiny blocks while the parent is still busy with it.  A static
        # round-robin map would give the parent a tiny block too.
        outcome = ShardedExecutor([long_spec] + tiny_specs, workers=2).run()
        assert parent_builds == [[3]]
        assert outcome.shard_map == {0: 0, 1: 1, 2: 1}
        assert [entry["shards"] for entry in outcome.per_worker] == [1, 2]
        assert outcome.seeds == [3] + SEEDS
        assert multiprocessing.active_children() == []
        # The seeds that ran in the spawned worker match the in-process run.
        assert _per_seed(outcome.results[1:]) == _per_seed(oracle[0].results)

    def test_parent_waits_for_a_worker_mid_block(self, long_spec):
        # The parent's block ends first; the spawned worker's longer one is
        # still running then and must be awaited, not stopped.
        outcome = ShardedExecutor([_unsatisfiable(400), long_spec], workers=2).run()
        assert outcome.shard_map == {0: 0, 1: 1}
        assert [result.evaluations for result in outcome.results] == [4 * 400, 4 * 800]
        assert multiprocessing.active_children() == []

    def test_effective_workers_never_exceed_shards(self, tiny_specs):
        executor = ShardedExecutor(tiny_specs, workers=8)
        assert executor.effective_workers == len(tiny_specs)

    def test_validation(self, tiny_specs):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedExecutor([])
        with pytest.raises(ValueError, match="at least 1"):
            ShardedExecutor(tiny_specs, workers=0)


class TestParity:
    def test_parent_alone_matches_oracle(self, tiny_specs, oracle, parent_builds):
        """``workers=1``: one block, the oracle's own campaign, run in the
        parent — every counter matches too, and nothing is spawned."""
        oracle_outcome, oracle_digest = oracle
        outcome = ShardedExecutor(
            tiny_specs, workers=1, collect_cache_content=True
        ).run()
        assert parent_builds == [SEEDS]
        assert outcome.cache_digest == oracle_digest
        assert _fingerprint(outcome, outcome.cache_digest) == _fingerprint(
            oracle_outcome, oracle_digest
        )
        assert [shard.worker for shard in outcome.shards] == [0]

    def test_spawned_workers_match_oracle(self, tiny_specs, oracle):
        oracle_outcome, oracle_digest = oracle
        outcome = ShardedExecutor(
            tiny_specs, workers=2, collect_cache_content=True
        ).run()
        # Per seed, the search does not depend on which seeds share its
        # campaign; cache accounting does, so it is left out.
        assert _per_seed(outcome.results) == _per_seed(oracle_outcome.results)
        assert outcome.cache_digest == oracle_digest
        # Placement bookkeeping: the map, the block records and the
        # per-worker rollup all tell the same story.
        assert outcome.shard_map == {
            shard.index: shard.worker for shard in outcome.shards
        }
        assert sum(entry["shards"] for entry in outcome.per_worker) == 2

    def test_same_block_split_is_byte_identical(self, tiny_specs):
        """Counters depend on the block split, never on placement."""
        runs = [
            ShardedExecutor(tiny_specs, workers=2, collect_cache_content=True).run()
            for _ in range(2)
        ]
        first, second = (_fingerprint(run, run.cache_digest) for run in runs)
        assert first == second


class TestCacheMerge:
    """The union digest over per-block cache contents."""

    def test_union_digest_rejects_conflicting_rows(self):
        corner = ("typical", 1.0, 27.0)
        left = [(corner, [b"key"], np.ones((1, 2)))]
        right = [(corner, [b"key"], np.zeros((1, 2)))]
        with pytest.raises(ValueError, match="two different metric rows"):
            union_state_digest([left, right])


class TestWorkerFailure:
    def test_spawned_crash_names_the_shard(self, tiny_specs, long_spec, tmp_path):
        # The parent is busy with the long block, so the bad one fails in
        # the spawned worker.  A result file a run did not write (here, one
        # left in the scratch directory) never stands in for that block.
        bad = dataclasses.replace(tiny_specs[0], topology="no_such_topology")
        stale = tmp_path / "result-00001.snapshot"
        stale.write_bytes(b"left over")
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor([long_spec, bad], workers=2, scratch_dir=str(tmp_path)).run()
        # The run's private staging directory is gone.
        assert os.listdir(tmp_path) == [stale.name]
        error = excinfo.value
        assert error.worker == 1
        assert error.exitcode == 1
        assert error.shards == [(1, bad.label, 0)]
        assert "no_such_topology" in str(error)
        assert multiprocessing.active_children() == []

    def test_parent_block_failure_leaves_no_worker(self, tiny_specs):
        bad = [
            dataclasses.replace(spec, topology="no_such_topology")
            for spec in tiny_specs
        ]
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(bad, workers=2).run()
        error = excinfo.value
        assert error.worker == 0
        assert error.exitcode is None
        assert (0, bad[0].label, 0) in error.shards
        assert "parent process" in str(error)
        assert "no_such_topology" in str(error)
        assert multiprocessing.active_children() == []

    def test_inline_crash_names_the_shard(self, tiny_specs):
        bad = [dataclasses.replace(tiny_specs[0], topology="no_such_topology")]
        with pytest.raises(ShardWorkerError) as excinfo:
            ShardedExecutor(bad, workers=1).run()
        error = excinfo.value
        assert error.worker == 0
        assert error.exitcode is None
        assert error.shards == [(0, bad[0].label, 0)]
