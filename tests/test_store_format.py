"""Store format v2 (one CRC frame per corner block) locked against v1.

The per-pair v1 format it replaced is held in this file as the oracle: its
writer and reader (one CRC frame per ``(corner tag, row key, metric row)``
pair) and the per-pair ``EvaluationCache._persist`` and ``sync_journal``
loops that fed them.  For the same sequence of ``_persist`` and
``sync_journal`` calls, the flattened v2 ``(tag, key, row)`` sequence of
every store and journal must equal the oracle's, bit for bit and in order.
"""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.bench.registry import get_suite
from repro.circuits.pvt import nine_corner_grid
from repro.core.design_space import row_keys
from repro.resilience import FaultPlan, InjectedFault, StoreError, inject, load_snapshot
from repro.resilience.store import (
    HEADER_SIZE,
    MAGIC,
    CacheJournal,
    CacheStore,
    read_journal,
    read_records,
)
from repro.search import EvaluationCache
from repro.search import eval_cache as eval_cache_module
from repro.search.campaign import CACHE_JOURNAL, LATEST_SNAPSHOT
from repro.search.eval_cache import _corner_tag

DIM, METRICS = 3, 2


# -- the v1 oracle ---------------------------------------------------------
def v1_header(dimension, n_metrics):
    body = struct.pack("<HII", 1, dimension, n_metrics)
    return MAGIC + body + struct.pack("<I", zlib.crc32(body))


def v1_frame(tag, key, row):
    payload = struct.pack("<H", len(tag)) + tag + key + row.tobytes()
    return struct.pack("<I", len(payload)) + payload + struct.pack("<I", zlib.crc32(payload))


def read_v1(path, dimension, n_metrics):
    """Every ``(tag, key, row bytes)`` pair of a v1 file, up to damage."""
    with open(path, "rb") as handle:
        data = handle.read()
    key_width, row_width = dimension * 8, n_metrics * 8
    pairs, offset = [], HEADER_SIZE
    while offset + 4 <= len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        payload = data[offset + 4 : offset + 4 + length]
        crc = data[offset + 4 + length : offset + 8 + length]
        if len(payload) < length or len(crc) < 4 or zlib.crc32(payload) != struct.unpack("<I", crc)[0]:
            break
        (tag_length,) = struct.unpack_from("<H", payload)
        key_start = 2 + tag_length
        if len(payload) != key_start + key_width + row_width:
            break
        pairs.append(
            (payload[2:key_start], payload[key_start : key_start + key_width], payload[key_start + key_width :])
        )
        offset += 8 + length
    return pairs


class PairStore:
    """The v1 store writer (fresh files only): one frame per pair."""

    def __init__(self, path, dimension, n_metrics):
        self.repaired_bytes = 0
        self._file = open(path, "wb")
        self._file.write(v1_header(dimension, n_metrics))

    def take_records(self):
        return []

    def append(self, tag, key, row):
        self._file.write(v1_frame(tag, key, row))

    def flush(self):
        self._file.flush()

    def close(self):
        self._file.close()


class PairJournal:
    """The v1 journal writer (fresh files only): one frame per pair."""

    def __init__(self, path, dimension, n_metrics, watermark=None):
        assert watermark is None, "the oracle journal is never continued"
        self.path = path
        header = v1_header(dimension, n_metrics)
        self._file = open(path, "wb")
        self._file.write(header)
        self.watermark = (0, len(header), zlib.crc32(header))
        self._pending = []

    def append(self, tag, pairs):
        self._pending.extend(v1_frame(tag, key, row) for key, row in pairs)

    def sync(self):
        pairs, offset, running = self.watermark
        for frame in self._pending:
            running = zlib.crc32(frame[:-4], running)
        blob = b"".join(self._pending)
        self._file.write(blob)
        self._file.flush()
        self.watermark = (pairs + len(self._pending), offset + len(blob), running)
        self._pending = []
        return self.watermark

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        self._file.close()


def pair_persist(self, fresh_keys, corners, block):
    """The v1 ``EvaluationCache._persist``: one store append per pair."""
    backend = self._backend
    for corner_index, corner in enumerate(corners):
        tag = _corner_tag(corner)
        for key, row in zip(fresh_keys, block[corner_index]):
            backend.append(tag, key, row)
    backend.flush()


def pair_sync_journal(self):
    """The v1 ``EvaluationCache.sync_journal``: one journal frame per pair."""
    journal = self._journal
    for corner, keys, rows, _ in self.corner_pairs():
        done = self._journaled.get(corner, 0)
        if len(keys) > done:
            journal.append(_corner_tag(corner), zip(keys[done:], rows[done:]))
            self._journaled[corner] = len(keys)
    watermark = journal.sync()
    self._lineage = (journal.path, watermark)
    return watermark


@pytest.fixture
def per_pair_format(monkeypatch):
    """Calling it switches the cache's store and journal onto the v1 oracle."""

    def install():
        monkeypatch.setattr(eval_cache_module, "CacheStore", PairStore)
        monkeypatch.setattr(eval_cache_module, "CacheJournal", PairJournal)
        monkeypatch.setattr(EvaluationCache, "_persist", pair_persist)
        monkeypatch.setattr(EvaluationCache, "sync_journal", pair_sync_journal)

    return install


def flatten(records):
    return [(tag, key, row.tobytes()) for tag, keys, rows in records for key, row in zip(keys, rows)]


def corner_evaluator(samples, corners):
    """Two metrics per (row, corner), distinct across rows and corners."""
    base = samples @ np.array([1.0, 10.0, 100.0])
    return np.stack(
        [np.stack([base + corner.temperature_c, -base * corner.voltage_factor], axis=1) for corner in corners]
    )


# -- the locks ---------------------------------------------------------------
class TestSameSequenceAsThePerPairFormat:
    def _drive(self, directory):
        """Multi-row, multi-corner evaluations with repeats, journaled twice."""
        grid = nine_corner_grid()[:4]
        rng = np.random.default_rng(7)
        pool = rng.integers(0, 8, size=(12, DIM)).astype(np.float64)
        cache = EvaluationCache(
            corner_evaluator, DIM, METRICS, persist_path=os.path.join(directory, "store.evc")
        )
        cache.open_journal(os.path.join(directory, "cache.journal"))
        marks = []
        for step in range(24):
            # Repeated rows inside one call are recomputed together.
            rows = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 6)))]
            picked = rng.choice(len(grid), size=int(rng.integers(1, 5)), replace=False)
            cache.evaluate(rows, [grid[index] for index in picked])
            if step % 8 == 7:
                marks.append(cache.sync_journal())
        digest = cache.state_digest()
        cache.close()
        return digest, marks

    def test_store_and_journal_round_trip(self, tmp_path, per_pair_format):
        block_dir, pair_dir = tmp_path / "v2", tmp_path / "v1"
        block_dir.mkdir()
        pair_dir.mkdir()
        digest, marks = self._drive(str(block_dir))
        per_pair_format()
        pair_digest, pair_marks = self._drive(str(pair_dir))
        assert digest == pair_digest
        store, _ = read_records(str(block_dir / "store.evc"), DIM, METRICS)
        oracle_store = read_v1(str(pair_dir / "store.evc"), DIM, METRICS)
        assert flatten(store) == oracle_store
        # Several rows and several corners per call, so frames are blocks.
        assert len(store) < len(oracle_store)
        # The watermark counts pairs, like the v1 frame count did.
        assert [mark[0] for mark in marks] == [mark[0] for mark in pair_marks]
        journal = read_journal(str(block_dir / "cache.journal"), DIM, METRICS, marks[-1])
        assert flatten(journal) == read_v1(str(pair_dir / "cache.journal"), DIM, METRICS)

    def test_campaign_store_and_journal(self, tmp_path, per_pair_format):
        case = get_suite("drill")[0]

        def run(directory):
            directory.mkdir()
            campaign = case.build_campaign([0, 1], cache_path=str(directory / "store.evc"))
            campaign.run(checkpoint_dir=str(directory / "ckpt"))
            digest, pairs = campaign.cache.state_digest(), len(campaign.cache)
            shape = campaign.cache._dimension, campaign.cache.n_metrics
            campaign.close()
            mark = tuple(load_snapshot(str(directory / "ckpt" / LATEST_SNAPSHOT))["cache"]["journal"])
            return digest, pairs, shape, mark

        digest, pairs, shape, mark = run(tmp_path / "v2")
        per_pair_format()
        pair_digest, pair_pairs, _, pair_mark = run(tmp_path / "v1")
        assert (digest, pairs) == (pair_digest, pair_pairs)
        assert mark[0] == pair_mark[0] == pairs
        store, _ = read_records(str(tmp_path / "v2" / "store.evc"), *shape)
        oracle_store = read_v1(str(tmp_path / "v1" / "store.evc"), *shape)
        assert flatten(store) == oracle_store
        assert len(store) < len(oracle_store)
        journal = read_journal(str(tmp_path / "v2" / "ckpt" / CACHE_JOURNAL), *shape, mark)
        assert flatten(journal) == read_v1(str(tmp_path / "v1" / "ckpt" / CACHE_JOURNAL), *shape)


def _block(*values):
    keys = [np.full(DIM, value, dtype=np.float64).tobytes() for value in values]
    rows = np.array([[value, -value] for value in values], dtype=np.float64)
    return keys, rows


def _write_blocks(path, blocks):
    """A v2 store of ``blocks`` and the v1 oracle's pairs for them."""
    store = CacheStore(path, DIM, METRICS)
    pairs = []
    for tag, values in blocks:
        keys, rows = _block(*values)
        store.append(tag, keys, rows)
        pairs.extend((tag, key, row.tobytes()) for key, row in zip(keys, rows))
    store.close()
    return pairs


def _frame(payload):
    return struct.pack("<I", len(payload)) + payload + struct.pack("<I", zlib.crc32(payload))


class TestDamage:
    def test_torn_tail_inside_a_block_drops_that_block(self, tmp_path):
        path = str(tmp_path / "store.evc")
        survivors = _write_blocks(path, [(b"tt", (1.0, 2.0)), (b"ff", (3.0,))])
        intact = os.path.getsize(path)
        store = CacheStore(path, DIM, METRICS)
        with pytest.raises(InjectedFault):
            with inject(FaultPlan("cache.append", occurrence=1)):
                store.append(b"tt", *_block(4.0, 5.0, 6.0))
        store.close()
        torn = os.path.getsize(path) - intact
        assert torn > 0
        reopened = CacheStore(path, DIM, METRICS)
        assert reopened.repaired_bytes == torn
        assert os.path.getsize(path) == intact
        assert flatten(reopened.records) == survivors
        reopened.close()

    def test_crc_flip_inside_a_blocks_keys(self, tmp_path):
        path = str(tmp_path / "store.evc")
        survivors = _write_blocks(path, [(b"tt", (1.0, 2.0))])
        second_frame = os.path.getsize(path)
        _write_blocks(path, [(b"ff", (3.0, 4.0)), (b"tt", (5.0,))])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            # length, tag length, tag "ff", row count: then the first key.
            handle.seek(second_frame + 4 + 2 + 2 + 4 + 3)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x10]))
        records, trailing = read_records(path, DIM, METRICS)
        assert flatten(records) == survivors
        assert trailing == size - second_frame
        reopened = CacheStore(path, DIM, METRICS)
        assert reopened.repaired_bytes == size - second_frame
        assert flatten(reopened.records) == survivors
        reopened.close()

    @pytest.mark.parametrize("count", [0, 3], ids=["zero-count", "count-disagrees"])
    def test_frame_disagreeing_with_its_count_is_damage(self, tmp_path, count):
        path = str(tmp_path / "store.evc")
        survivors = _write_blocks(path, [(b"tt", (1.0, 2.0))])
        keys, rows = _block(7.0, 8.0)
        body = b"".join(keys) + rows.tobytes() if count else b""
        # A well-sealed frame whose count does not describe its payload.
        bad = _frame(struct.pack("<H", 2) + b"tt" + struct.pack("<I", count) + body)
        with open(path, "ab") as handle:
            handle.write(bad)
        reopened = CacheStore(path, DIM, METRICS)
        assert reopened.repaired_bytes == len(bad)
        assert flatten(reopened.records) == survivors
        reopened.close()

    def test_v1_header_refused_naming_both_versions(self, tmp_path):
        path = str(tmp_path / "store.evc")
        with open(path, "wb") as handle:
            handle.write(v1_header(DIM, METRICS))
            handle.write(v1_frame(b"tt", *_block(1.0)[0], _block(1.0)[1][0]))
        size = os.path.getsize(path)
        pattern = r"store format v1, expected v2: delete it and rerun cold"
        with pytest.raises(StoreError, match=pattern):
            CacheStore(path, DIM, METRICS)
        with pytest.raises(StoreError, match=pattern):
            read_records(path, DIM, METRICS)
        with pytest.raises(StoreError, match=pattern):
            read_journal(path, DIM, METRICS, (1, size, 0))
        # Refusal never repairs: the old file is left as it was.
        assert os.path.getsize(path) == size


def test_journal_blocks_hold_each_corners_tail(tmp_path):
    grid = nine_corner_grid()[:3]
    cache = EvaluationCache(corner_evaluator, DIM, METRICS)
    cache.open_journal(str(tmp_path / "cache.journal"))
    samples = np.arange(12, dtype=np.float64).reshape(4, DIM)
    cache.evaluate(samples[:3], grid)
    first = cache.sync_journal()
    cache.evaluate(samples[2:], grid[1:])
    second = cache.sync_journal()
    pairs = len(cache)
    cache.close()
    records = read_journal(str(tmp_path / "cache.journal"), DIM, METRICS, second)
    assert [(tag, len(keys)) for tag, keys, _ in records] == [
        (_corner_tag(grid[0]), 3),
        (_corner_tag(grid[1]), 3),
        (_corner_tag(grid[2]), 3),
        (_corner_tag(grid[1]), 1),
        (_corner_tag(grid[2]), 1),
    ]
    assert (first[0], second[0]) == (9, 11) and second[0] == pairs
    assert flatten(records)[-1][1] == row_keys(samples)[3]
