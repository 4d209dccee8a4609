"""Row novelty is decided once: dedup, miss-count and serialization locks.

The optimizers keep every evaluated row's byte key in a ``set`` and select
candidates in one pass; a stacked pass books the misses the cache's
``fresh_row_count`` peek predicts; the cache resolves corner lookups once
per call or tag; a snapshot holds only what a replay cannot recompute, and
a resume rebuilds the members' corner reports by replay.  Each is locked
here against a reference held in this file: the ``np.unique`` +
``np.isin`` void-view selection, the ``fresh_row_count`` peek,
the per-(row, corner) warm lookup, the per-record store ingest and a
plainly written campaign serializer.  The cache's per-corner blocks are
also held to a bound on the bytes each cached pair retains.
"""

import gc
import importlib
import os
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import FOLDING, one_corner_campaign
from repro.circuits.pvt import nine_corner_grid
from repro.core.design_space import DesignSpace, Parameter, row_keys
from repro.resilience import load_snapshot
from repro.search import (
    Campaign,
    DatasetOptimizer,
    EvaluationCache,
    EvaluationHandle,
    Spec,
    Specification,
    TrustRegionConfig,
    get_optimizer,
)
from repro.resilience.store import read_journal
from repro.search.campaign import CACHE_JOURNAL, _Request
from repro.search.progressive import ProgressiveConfig
from repro.search.eval_cache import _corner_from_tag, _corner_tag

OPTIMIZERS = ["random", "cross_entropy", "trust_region"]


def toy_space():
    """80 grid points: small enough that blocks collide and budgets exhaust."""
    return DesignSpace([
        Parameter("x", 0.0, 1.0, grid_points=4),
        Parameter("y", 0.0, 1.0, grid_points=4),
        Parameter("z", 1e-3, 1.0, grid_points=5, log_scale=True),
    ])


def toy_evaluator(samples):
    samples = np.atleast_2d(samples)
    return np.stack([samples.sum(axis=1), samples.prod(axis=1)], axis=1)


#: ``a >= 10`` is unreachable, so a run spends its whole budget.
UNREACHABLE = Specification([Spec("a", ">=", 10.0)], ["a", "b"])


def build_optimizer(name, **config):
    return get_optimizer(name)(toy_space(), UNREACHABLE, TrustRegionConfig(**config))


def oracle_select(optimizer, candidates, limit=None):
    """The void-view selection the hash-set pass replaced.

    First occurrences in candidate order (``np.unique`` + index sort), one
    ``np.isin`` against every evaluated row, then the ``limit`` clamp.
    """
    space = optimizer.design_space
    key_dtype = np.dtype((np.void, space.dimension * np.dtype(np.float64).itemsize))
    snapped = space.snap(np.atleast_2d(candidates))
    keys = np.ascontiguousarray(snapped).view(key_dtype).ravel()
    _, first = np.unique(keys, return_index=True)
    first.sort()
    count = optimizer.evaluations
    if count:
        told = np.ascontiguousarray(optimizer._X[:count]).view(key_dtype).ravel()
        first = first[~np.isin(keys[first], told)]
    if limit is not None:
        first = first[:limit]
    return snapped[first], [key.tobytes() for key in keys[first]]


def assert_same_selection(selected, expected):
    rows, keys = selected
    expected_rows, expected_keys = expected
    assert rows.shape == expected_rows.shape
    assert rows.tobytes() == expected_rows.tobytes()
    assert keys == expected_keys


def colliding_block(optimizer, rng):
    """Fresh draws, rows told earlier and in-block repeats, shuffled."""
    space = optimizer.design_space
    block = space.from_unit(rng.random((int(rng.integers(1, 24)), space.dimension)))
    if optimizer.evaluations:
        told = optimizer._X[rng.integers(0, optimizer.evaluations, size=3)]
        block = np.vstack([block, told])
    block = np.vstack([block, block[rng.integers(0, block.shape[0], size=4)]])
    return block[rng.permutation(block.shape[0])]


def replayed(name, blocks):
    """A fresh optimizer told ``blocks`` of ``(rows, metrics)`` in order:
    what a campaign's resume rebuilds by replay."""
    optimizer = build_optimizer(name, seed=0, max_evaluations=80)
    for rows, metrics in blocks:
        optimizer.tell(rows, metrics)
    return optimizer


class TestDedupParity:
    """``_select_new`` picks the oracle's rows and keys, in its order."""

    LIMITS = [None, 0, 1, 3, 50]

    @pytest.mark.parametrize("name", OPTIMIZERS)
    def test_random_blocks_and_state_round_trip(self, name):
        optimizer = build_optimizer(name, seed=0, max_evaluations=80)
        rng = np.random.default_rng(1)
        told = []
        for step in range(12):
            if step == 6:
                midway = list(told)
            block = colliding_block(optimizer, rng)
            limit = self.LIMITS[step % len(self.LIMITS)]
            selected = optimizer._select_new(block, limit)
            assert_same_selection(selected, oracle_select(optimizer, block, limit))
            rows = selected[0]
            if rows.shape[0]:
                told.append((rows, toy_evaluator(rows)))
                optimizer.tell(*told[-1])
        midway_rows = np.vstack([rows for rows, _ in midway])
        assert midway_rows.shape[0] < optimizer.evaluations < 80
        # A resume re-tells the rows; the key set is rebuilt from them.
        restored = replayed(name, told)
        assert restored._seen == optimizer._seen
        assert len(restored._seen) == restored.evaluations
        for step in range(6):
            block = colliding_block(restored, rng)
            limit = self.LIMITS[step % len(self.LIMITS)]
            expected = oracle_select(restored, block, limit)
            assert_same_selection(restored._select_new(block, limit), expected)
            assert_same_selection(optimizer._select_new(block, limit), expected)
        # Replaying an earlier round leaves out the keys told after it.
        rewound = replayed(name, midway)
        assert rewound._seen == set(row_keys(midway_rows))
        block = np.vstack([optimizer._X[: optimizer.evaluations], colliding_block(rewound, rng)])
        assert_same_selection(rewound._select_new(block), oracle_select(rewound, block))

    @pytest.mark.parametrize("name", OPTIMIZERS)
    def test_every_ask_of_a_run_selects_the_oracle_rows(self, name, monkeypatch):
        """Every selection of a three-seed run, whether it comes from a
        member's slice of a stacked ask or from a lone redraw, picks the
        oracle rows of the block it was given, and the keys handed in with
        a block are its rows' own."""
        selected_rows = {}
        original = DatasetOptimizer._pick_new

        def checked(optimizer, snapped, keys, limit):
            assert keys == row_keys(snapped)
            expected = oracle_select(optimizer, snapped, limit)
            selected = original(optimizer, snapped, keys, limit)
            assert_same_selection(selected, expected)
            selected_rows.setdefault(id(optimizer), []).append(selected[0].shape[0])
            return selected

        monkeypatch.setattr(DatasetOptimizer, "_pick_new", checked)
        config = TrustRegionConfig(
            seed=3, batch_size=4, candidate_pool=64,
            max_evaluations=70, initial_epochs=4, refit_epochs=2,
        )
        campaign = one_corner_campaign(
            toy_evaluator, toy_space(), UNREACHABLE, config, optimizer=name, seeds=[3, 4, 5]
        )
        campaign.run()
        for member in campaign._members:
            optimizer = member.optimizer
            selections = selected_rows[id(optimizer)]
            assert len(selections) > 5
            assert optimizer.evaluations == sum(selections)
            assert len(optimizer._seen) == optimizer.evaluations


class StubOptimizer:
    """Records the rows and metrics a stacked tell hands it."""

    def __init__(self):
        self.told = []

    @classmethod
    def tell_stack(cls, optimizers, samples, metrics, counts, keys):
        assert all(type(optimizer) is cls for optimizer in optimizers)
        assert keys == row_keys(samples)
        start = 0
        for optimizer, count in zip(optimizers, counts):
            optimizer.told.append((samples[start:start + count], metrics[start:start + count]))
            start += count


class OtherStubOptimizer(StubOptimizer):
    """A second optimizer class, told in a stack of its own."""


class StubMember:
    """Records what ``Campaign._run_group`` hands back: a verifying
    member's received block, a searching member's told rows."""

    def __init__(self, seed, verifying=False, optimizer=StubOptimizer):
        self.seed = seed
        self.phase = 0
        self.verifying = verifying
        self.optimizer = optimizer()
        self.blocks = []

    def receive(self, block):
        assert self.verifying
        self.blocks.append(block)


def distinct_evaluator(samples, corners):
    """A metric per (row, corner) that differs across rows and corners."""
    samples = np.atleast_2d(samples)
    base = samples @ np.array([1.0, 10.0, 100.0])
    return np.stack(
        [base[:, np.newaxis] + 1000.0 * corner.temperature_c for corner in corners]
    )


def toy_campaign():
    handle = EvaluationHandle(
        design_space=DesignSpace([Parameter(name, 0.0, 9.0, grid_points=10) for name in "xyz"]),
        metric_names=("m",),
        corner_evaluator=distinct_evaluator,
    )
    return Campaign(handle, [Spec("m", ">=", 0.0)], seeds=[0])


def run_group_against_peek(campaign, grouped):
    """Run one stacked pass of ``(member, rows, corners)`` requests; check
    its misses against the peek taken before it, and check each member's
    share against the evaluator: a verifying member's received block, a
    searching member's told rows and their corner-major metrics."""
    cache = campaign.cache
    corners = grouped[0][2]
    stacked = np.vstack([rows for _, rows, _ in grouped])
    peek = cache.fresh_row_count(stacked, corners)
    hits0, misses0 = cache.hits, cache.misses
    campaign._run_group(
        [_Request(member, rows, row_keys(rows), corners) for member, rows, _ in grouped]
    )
    assert cache.misses - misses0 == peek * len(corners)
    assert cache.hits - hits0 == (stacked.shape[0] - peek) * len(corners)
    for member, rows, _ in grouped:
        expected = distinct_evaluator(rows, corners)
        if member.verifying:
            np.testing.assert_array_equal(member.blocks[-1], expected)
            continue
        samples, metrics = member.optimizer.told[-1]
        np.testing.assert_array_equal(samples, rows)
        np.testing.assert_array_equal(metrics, expected.transpose(1, 0, 2).reshape(len(rows), -1))
    return peek


class TestPassAttribution:
    """A pass books exactly the pairs :meth:`EvaluationCache.fresh_row_count`
    peeked: ``peek * len(corners)`` misses, the rest hits."""

    def test_shared_and_partially_cached_rows(self):
        campaign = toy_campaign()
        corners = nine_corner_grid()[:2]
        a, b, c, e = (np.full((1, 3), value) for value in (1.0, 2.0, 3.0, 5.0))
        campaign.cache.evaluate(a, corners[:1])  # cached at one corner only
        campaign.cache.evaluate(e, corners)  # cached at both
        members = [
            StubMember(0),
            StubMember(1, verifying=True),
            StubMember(2, optimizer=OtherStubOptimizer),
        ]
        grouped = [
            (members[0], np.vstack([a, b, e]), corners),
            (members[1], np.vstack([b, c]), corners),  # b is shared
            (members[2], e.copy(), corners),
        ]
        # a (one corner only), both b's and c are fresh; both e's are hits.
        assert run_group_against_peek(campaign, grouped) == 4

    def test_random_groups_match_the_peek(self):
        campaign = toy_campaign()
        grid = nine_corner_grid()
        rng = np.random.default_rng(7)
        pool = rng.integers(0, 10, size=(12, 3)).astype(np.float64)
        members = [
            StubMember(0),
            StubMember(1, verifying=True),
            StubMember(2, optimizer=OtherStubOptimizer),
            StubMember(3),
        ]
        for _ in range(25):
            # Warm some (row, corner) pairs piecemeal, then run a pass.
            campaign.cache.evaluate(
                pool[rng.integers(0, len(pool), size=2)],
                [grid[index] for index in rng.choice(4, size=2, replace=False)],
            )
            corners = [grid[index] for index in sorted(rng.choice(4, size=3, replace=False))]
            grouped = [
                (member, pool[rng.integers(0, len(pool), size=int(rng.integers(1, 5)))], corners)
                for member in members[: int(rng.integers(1, 5))]
            ]
            run_group_against_peek(campaign, grouped)

    def test_peek_rejects_an_empty_corner_list_like_the_pass(self):
        cache = toy_campaign().cache
        with pytest.raises(ValueError, match="at least one PVT corner"):
            cache.evaluate(np.zeros((1, 3)), [])
        with pytest.raises(ValueError, match="at least one PVT corner"):
            cache.fresh_row_count(np.zeros((1, 3)), [])


def stored_pairs(cache):
    """The cache's pairs as plain per-corner dicts, in insertion order:
    ``({corner: {key: row}}, {corner: warm key set})``."""
    store, warm_keys = {}, {}
    for corner, keys, rows, warm in cache.corner_pairs():
        store[corner] = dict(zip(keys, np.array(rows)))
        warm_keys[corner] = {key for key, flag in zip(keys, warm) if flag}
    return store, warm_keys


def reference_ingest(cache, records, warm=True):
    """The per-pair store ingest the per-tag, per-block one replaced, on
    plain dicts that start from ``cache``'s pairs."""
    store, warm_keys = stored_pairs(cache)
    for tag, key, row in records:
        corner = _corner_from_tag(tag)
        store.setdefault(corner, {})[key] = row
        warm_keys.setdefault(corner, set())
        if warm:
            warm_keys[corner].add(key)
    return store, warm_keys


class TestCornerLookups:
    def test_warm_cold_split_matches_the_pair_oracle(self, tmp_path):
        grid = nine_corner_grid()[:4]
        path = str(tmp_path / "store.evc")
        rng = np.random.default_rng(3)
        pool = rng.integers(0, 10, size=(10, 3)).astype(np.float64)
        first = EvaluationCache(distinct_evaluator, 3, 1, persist_path=path)
        first.evaluate(pool[:4], grid[:2])
        first.evaluate(pool[3:6], grid[1:3])
        first.close()
        cache = EvaluationCache(distinct_evaluator, 3, 1, persist_path=path)
        try:
            for _ in range(30):
                rows = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 6)))]
                corners = [grid[index] for index in rng.choice(4, size=int(rng.integers(1, 5)), replace=False)]
                store, warm_keys = stored_pairs(cache)
                served = [
                    key
                    for key in row_keys(rows)
                    if all(key in store.get(corner, {}) for corner in corners)
                ]
                warm = sum(
                    key in warm_keys.get(corner, ()) for key in served for corner in corners
                )
                before = cache.hits, cache.warm_hits, cache.cold_hits
                cache.evaluate(rows, corners)
                hits = cache.hits - before[0]
                assert hits == len(served) * len(corners)
                assert cache.warm_hits - before[1] == warm
                assert cache.cold_hits - before[2] == hits - warm
            assert cache.warm_hits > 0 and cache.cold_hits > 0
        finally:
            cache.close()

    @pytest.mark.parametrize("warm", [True, False])
    def test_ingest_matches_the_per_record_reference(self, warm):
        grid = nine_corner_grid()
        rng = np.random.default_rng(5)
        # Interleaved tags, repeated keys (within and across blocks), and
        # one corner already stored.
        records = []
        for _ in range(20):
            count = int(rng.integers(1, 5))
            keys = row_keys(rng.integers(0, 6, size=(count, 3)).astype(np.float64))
            records.append(
                (_corner_tag(grid[int(rng.integers(0, 4))]), keys, rng.standard_normal((count, 1)))
            )
        pairs = [(tag, key, row) for tag, keys, rows in records for key, row in zip(keys, rows)]
        cache = EvaluationCache(distinct_evaluator, 3, 1)
        cache.evaluate(np.zeros((1, 3)), [grid[2]])
        expected, expected_warm = reference_ingest(cache, pairs, warm=warm)
        cache._ingest(records, warm=warm)
        ingested, ingested_warm = stored_pairs(cache)
        assert list(ingested) == list(expected)
        for corner, store in expected.items():
            assert list(ingested[corner]) == list(store)
            for key, row in store.items():
                assert ingested[corner][key].tobytes() == row.tobytes()
        assert list(ingested_warm) == list(expected_warm)
        assert ingested_warm == expected_warm
        assert any(expected_warm.values()) == warm


class TestPairMemory:
    #: Retained bytes per cached pair.  Each pair's own view and the engine
    #: blocks the views kept alive cost ~200 B in this test; a pair in a
    #: corner block costs its 40 B of metrics, slack included, plus a dict
    #: slot and its share of the row keys and position ints (~110 B).
    BOUND = 140

    def test_retained_bytes_per_pair(self):
        corners = nine_corner_grid()[:5]
        rows = np.random.default_rng(0).random((4000, 3))

        def engine(samples, corners):
            return np.ones((len(corners), len(samples), 5))

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cache = EvaluationCache(engine, 3, 5)
            for start in range(0, len(rows), 100):
                cache.evaluate(rows[start : start + 100], corners)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(cache) == 20000
        assert retained / len(cache) < self.BOUND


def reference_state_dict(self):
    """The campaign serializer written out plainly: identity, round count
    and the cache's checkpoint block, and nothing a replay recomputes."""
    return {
        "identity": self._identity(),
        "rounds": self.rounds,
        "cache": self.cache.checkpoint_state(),
    }


def frozen_clock(monkeypatch):
    """Every timing field reads zero, so two runs write comparable bytes."""
    tracer = importlib.import_module("repro.obs.tracer")
    monkeypatch.setattr(tracer, "time", SimpleNamespace(perf_counter=lambda: 0.0))


def checkpoint_files(campaign, directory):
    campaign.run(checkpoint_dir=str(directory), keep_history=True)
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


class TestCheckpointBytes:
    @pytest.mark.parametrize("optimizer", ["cross_entropy", "trust_region"])
    def test_checkpoints_match_the_reference_serializer(
        self, tmp_path, monkeypatch, optimizer
    ):
        frozen_clock(monkeypatch)
        case, seeds = FOLDING[optimizer]
        assert len(case.corners()) == 9
        campaign = case.build_campaign(seeds)
        written = checkpoint_files(campaign, tmp_path / "member")
        monkeypatch.setattr(Campaign, "state_dict", reference_state_dict)
        expected = checkpoint_files(case.build_campaign(seeds), tmp_path / "reference")
        assert CACHE_JOURNAL in written and len(written) > 3
        assert written == expected
        # The lock covers members past a verification, not just phase 0,
        # and a journal of cache pairs alone: every frame decodes to a
        # corner.
        assert any(member.phase > 0 for member in campaign._members)
        final = load_snapshot(str(tmp_path / "member" / "latest.snapshot"))
        records = read_journal(
            str(tmp_path / "member" / CACHE_JOURNAL),
            campaign.cache._dimension,
            campaign.cache.n_metrics,
            tuple(final["cache"]["journal"]),
        )
        assert {_corner_from_tag(tag) for tag, _, _ in records} <= set(case.corners())
        assert sum(len(keys) for _, keys, _ in records) == len(campaign.cache)

    def test_a_repeated_corner_serializes_like_the_reference(self, tmp_path, monkeypatch):
        frozen_clock(monkeypatch)
        grid = nine_corner_grid()[:3]

        def corner_evaluator(samples, corners):
            # ``a >= 10`` holds at the hot corners only.
            return np.stack(
                [toy_evaluator(samples) + corner.temperature_c / 10 for corner in corners]
            )

        def build():
            return Campaign(
                EvaluationHandle(toy_space(), ("a", "b"), corner_evaluator),
                [Spec("a", ">=", 10.0)],
                corners=[grid[0], grid[1], grid[0], grid[2]],
                config=ProgressiveConfig(
                    optimizer="random",
                    trust_region=TrustRegionConfig(
                        batch_size=4, max_evaluations=24
                    ),
                ),
                seeds=[4],
            )

        recorded = []
        serializer = Campaign.state_dict

        def recording(campaign):
            recorded.append(pickle.dumps(campaign._members[0].corner_reports))
            return serializer(campaign)

        oracle = build()
        with monkeypatch.context() as patch:
            patch.setattr(Campaign, "state_dict", recording)
            written = checkpoint_files(oracle, tmp_path / "member")
        (member,) = oracle._members
        assert len(member.ranked) == 4 and len(member.phase_results) > 1
        with monkeypatch.context() as patch:
            patch.setattr(Campaign, "state_dict", reference_state_dict)
            assert checkpoint_files(build(), tmp_path / "reference") == written
        # Every round's corner reports come back by replay bit for bit.
        rounds = [name for name in written if name.startswith("round-")]
        assert len(rounds) == len(recorded)
        for name, reports in zip(rounds, recorded):
            resumed = build()
            resumed.load_state_dict(
                load_snapshot(str(tmp_path / "member" / name)),
                str(tmp_path / "member" / CACHE_JOURNAL),
            )
            assert pickle.dumps(resumed._members[0].corner_reports) == reports
