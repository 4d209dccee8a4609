"""``close()`` ends a cache's and a campaign's memory, not only their files.

A closed :class:`EvaluationCache` keeps its counters and shape and drops
every cached pair; a closed :class:`Campaign` also drops its seeds.  Every
content reader then raises instead of answering from an empty cache, and a
second ``close`` does nothing.  The tracemalloc lock holds a closed
multi-seed campaign that is still referenced to a sliver of what it held
at the end of its run.
"""

import gc
import os
import tracemalloc

import numpy as np
import pytest

from repro.bench.registry import BenchCase
from repro.circuits.pvt import nine_corner_grid
from repro.search import EvaluationCache

DIM, METRICS = 3, 2
GRID = nine_corner_grid()[:3]
COUNTERS = (
    "hits",
    "misses",
    "warm_hits",
    "cold_hits",
    "engine_calls",
    "eval_seconds",
    "preloaded_pairs",
    "repaired_bytes",
    "n_metrics",
    "_dimension",
)


def corner_evaluator(samples, corners):
    """Two metrics per (row, corner), distinct across rows and corners."""
    base = samples @ np.array([1.0, 10.0, 100.0])
    return np.stack(
        [np.stack([base + corner.temperature_c, -base], axis=1) for corner in corners]
    )


def counters(cache):
    return {name: getattr(cache, name) for name in COUNTERS}


def used_cache(directory, persist):
    """A cache that has served cold hits; a persisted one has also served
    warm hits and journaled its content."""
    path = os.path.join(directory, "store.evc") if persist else None
    samples = np.arange(12, dtype=np.float64).reshape(4, DIM)
    if persist:
        first = EvaluationCache(corner_evaluator, DIM, METRICS, persist_path=path)
        first.evaluate(samples[:2], GRID)
        first.close()
    cache = EvaluationCache(corner_evaluator, DIM, METRICS, persist_path=path)
    if persist:
        cache.open_journal(os.path.join(directory, "cache.journal"))
    cache.evaluate(samples, GRID)
    cache.evaluate(samples[1:3], GRID[:2])
    if persist:
        cache.sync_journal()
    return cache, samples


#: Every method that reads or writes a cache's content, as
#: ``(cache, samples, scratch directory) -> ...``.
READERS = {
    "evaluate": lambda cache, samples, _: cache.evaluate(samples, GRID),
    "fresh_row_count": lambda cache, samples, _: cache.fresh_row_count(samples, GRID),
    "content": lambda cache, *_: cache.content(),
    "corner_pairs": lambda cache, *_: cache.corner_pairs(),
    "state_digest": lambda cache, *_: cache.state_digest(),
    "sync_journal": lambda cache, *_: cache.sync_journal(),
    "checkpoint_state": lambda cache, *_: cache.checkpoint_state(),
    "open_journal": lambda cache, _, directory: cache.open_journal(
        os.path.join(directory, "other.journal")
    ),
    "restore_checkpoint": lambda cache, _, directory: cache.restore_checkpoint(
        {"journal": (0, 0, 0)}, os.path.join(directory, "cache.journal")
    ),
    "len": lambda cache, *_: len(cache),
}


@pytest.fixture(params=["store", "memory"])
def closed(request, tmp_path):
    """``(cache, counters before close, pairs before close, samples)``."""
    cache, samples = used_cache(str(tmp_path), request.param == "store")
    before, pairs = counters(cache), len(cache)
    cache.close()
    return cache, before, pairs, samples


class TestClosedCache:
    def test_counters_and_shape_stay_readable(self, closed):
        cache, before, _, _ = closed
        assert counters(cache) == before
        assert before["hits"] > 0 and before["misses"] > 0 and before["engine_calls"] > 0
        if before["preloaded_pairs"]:
            assert before["warm_hits"] > 0 and before["cold_hits"] > 0

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_every_content_reader_raises(self, closed, reader, tmp_path):
        cache, before, _, samples = closed
        with pytest.raises(RuntimeError, match="closed"):
            READERS[reader](cache, samples, str(tmp_path))
        assert counters(cache) == before
        assert "other.journal" not in os.listdir(tmp_path)

    def test_a_second_close_is_a_no_op(self, closed, tmp_path):
        cache, before, pairs, _ = closed
        files = {name: os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)}
        cache.close()
        assert counters(cache) == before
        assert {name: os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)} == files
        if before["preloaded_pairs"]:
            # The first close flushed every pair to the store.
            reopened = EvaluationCache(
                corner_evaluator, DIM, METRICS, persist_path=str(tmp_path / "store.evc")
            )
            assert reopened.preloaded_pairs == pairs
            reopened.close()


#: A full45 baseline case: no surrogate, so the cache and the datasets are
#: all a campaign holds.
CASE = BenchCase("two_stage_opamp", "nominal", "full45", optimizer="cross_entropy")
SEEDS = [0, 1, 2, 3, 4, 5]


class TestClosedCampaign:
    def test_run_raises_and_the_outcome_stays(self):
        campaign = CASE.build_campaign(SEEDS[:2])
        outcome = campaign.run()
        misses, rounds = campaign.cache.misses, campaign.rounds
        campaign.close()
        campaign.close()
        with pytest.raises(RuntimeError, match="closed"):
            campaign.run()
        assert (campaign.cache.misses, campaign.rounds) == (misses, rounds)
        assert outcome.cache_misses == misses
        assert all(result.best_vector is not None for result in outcome.results)

    def test_a_closed_campaign_lets_go_of_its_memory(self):
        """Under 5% of the traced memory a multi-seed campaign held at the
        end of ``run()`` survives its ``close()`` while the campaign is
        still referenced; the run's outcome is the caller's and is dropped."""
        warmup = CASE.build_campaign(SEEDS[:1])  # first-use imports and caches
        warmup.run()
        warmup.close()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            campaign = CASE.build_campaign(SEEDS)
            outcome = campaign.run()
            del outcome
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
            campaign.close()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert campaign.cache.misses > 0
        assert kept < 0.05 * held, (kept, held)
