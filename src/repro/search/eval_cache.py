"""Cross-phase memoisation of true-evaluator results.

The progressive PVT loop re-touches the same sizings repeatedly: each phase
warm-starts from the previous phase's winner, every phase verifies its winner
over the full sign-off grid, and later phases re-verify sizings whose active
corners were already evaluated earlier.  :class:`EvaluationCache` sits between
the search stack and the corner evaluator and memoises every ``(sizing row,
corner)`` pair, so none of those repeats ever reaches the (comparatively
expensive) closed-form evaluator again.

Rows are keyed by their fixed-width float64 byte patterns, one ``tobytes``
per block sliced per row (:func:`~repro.core.design_space.row_keys`): exact,
cheap to build, and the same row identity the optimizers' dedup set holds.

The cache is engine-agnostic: it wraps *any* corner evaluator with the
``(samples, corners) -> (n_corners, count, n_metrics)`` contract (the stacked
:meth:`~repro.circuits.topologies.base.SizingProblem.evaluate_corners` in
production, a per-corner loop in the parity tests), and since it returns
exactly the floats the evaluator produced it never changes a search
trajectory — it only removes repeat work.  It also keeps the benchmark accounting: ``eval_seconds`` is the
wall time actually spent inside the wrapped evaluator.

With ``persist_path`` the cache additionally mirrors every computed pair
into an append-only on-disk store (:class:`repro.resilience.store.CacheStore`)
and warm-starts from it on construction, so a later *process* — a resumed
campaign, a bench rerun, a future shard — serves the same pairs without
touching the engine.  Persisted values are the exact float64 buffers the
engine produced, so warm hits are bit-identical to recomputation and
trajectories stay unchanged; only the hit/miss accounting moves, which the
``warm_hits``/``cold_hits`` split makes visible.

Campaign checkpoints journal the cache instead of copying it: between
snapshots the cache is insert-only, so each :meth:`EvaluationCache.sync_journal`
appends just the pairs past every corner's watermark to a
:class:`~repro.resilience.store.CacheJournal`, and the snapshot carries
only counters, corner order and the journal watermark
(:meth:`EvaluationCache.checkpoint_state`).  Reading the journal prefix
back restores each corner's insertion order exactly
(:meth:`EvaluationCache.restore_checkpoint`); the resumed campaign then
replays its rounds against those pairs, all hits, and sets the counters
the replay moved back to the snapshot's
(:meth:`EvaluationCache.restore_counters`).
"""

from __future__ import annotations

import hashlib
import os
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.contracts import ArraySpec, SeqLen, contract
from repro.circuits.pvt import PVTCondition
from repro.core.design_space import row_keys
from repro.obs import event, profiled
from repro.resilience.faults import fault_point, register_fault_site
from repro.resilience.store import (
    CacheJournal,
    CacheStore,
    Record,
    Watermark,
    read_journal,
    read_records,  # unused here; perfbench/ledger.py wraps it under this module
)

#: A corner evaluator maps ``(count, dim)`` sizings and a corner list to a
#: ``(n_corners, count, n_metrics)`` metric block.
CornerEvaluator = Callable[[np.ndarray, Sequence[PVTCondition]], np.ndarray]

#: Kill-and-resume drill site: a crash inside the true evaluator loses the
#: whole in-flight block (nothing was cached or persisted yet).
SITE_ENGINE_CALL = register_fault_site("engine.call")

_EMPTY_KEYS: "frozenset[bytes]" = frozenset()

#: A corner's exact identity as plain builtins, for snapshots and content.
CornerFields = Tuple[str, float, float]


def _corner_fields(corner: PVTCondition) -> CornerFields:
    return (corner.process, corner.voltage_factor, corner.temperature_c)


def _corner_tag(corner: PVTCondition) -> bytes:
    """Exact, parseable corner identity for the on-disk store.

    ``float.hex`` round-trips bit-for-bit, matching the canonical corner
    encoding :meth:`EvaluationCache.state_digest` hashes.
    """
    return (
        f"{corner.process}|{corner.voltage_factor.hex()}"
        f"|{corner.temperature_c.hex()}".encode("ascii")
    )


def _corner_from_tag(tag: bytes) -> PVTCondition:
    process, voltage, temperature = tag.decode("ascii").split("|")
    return PVTCondition(
        process=process,
        voltage_factor=float.fromhex(voltage),
        temperature_c=float.fromhex(temperature),
    )


class EvaluationCache:
    """Memoise ``(sizing row, corner)`` -> metric row across search phases.

    Parameters
    ----------
    corner_evaluator:
        The true corner evaluator to wrap.
    dimension:
        Sizing-vector length, fixing the store and journal record widths.
    n_metrics:
        Metric columns per corner (the evaluator's last axis).
    persist_path:
        Optional on-disk store file.  When given, the cache preloads every
        record the store holds (repairing a torn tail from a crashed
        writer, see :class:`~repro.resilience.store.CacheStore`) and
        appends every newly computed pair, so hits survive the process.

    Attributes
    ----------
    corner_evaluator:
        The wrapped evaluator, called for every fresh row.
    hits, misses:
        Per ``(row, corner)`` pair counters: ``hits`` were served from the
        cache, ``misses`` went to the true evaluator.
    warm_hits, cold_hits:
        Split of ``hits``: warm hits were served from pairs preloaded off
        the persistent store (another process computed them), cold hits
        from pairs this cache computed itself.  Without ``persist_path``
        every hit is cold.
    engine_calls:
        Invocations of the wrapped evaluator — the multi-seed Campaign
        batches many seeds' requests into fewer, larger calls, and this is
        the counter that shows it.
    last_fresh:
        Ascending indices of the rows the latest :meth:`evaluate` sent to
        the engine (decided before it inserted anything), so a caller that
        stacked several requests can attribute the misses per slice.
    eval_seconds:
        Cumulative wall time inside the wrapped evaluator.
    preloaded_pairs, repaired_bytes:
        Persistence diagnostics: pairs warm-loaded at construction, and
        bytes a torn-tail repair truncated off the store on open.
    """

    def __init__(
        self,
        corner_evaluator: CornerEvaluator,
        dimension: int,
        n_metrics: int,
        persist_path: Optional[str] = None,
    ) -> None:
        self.corner_evaluator = corner_evaluator
        self._dimension = int(dimension)
        self.n_metrics = int(n_metrics)
        # One row-key -> metric-row dict per corner.  Keyed by the (frozen,
        # hashable) PVTCondition itself, not its display name — the name
        # rounds voltage/temperature for printing, so two distinct corners
        # can share it.
        self._store: Dict[PVTCondition, Dict[bytes, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
        self.cold_hits = 0
        self.engine_calls = 0
        self.eval_seconds = 0.0
        self.last_fresh: List[int] = []
        self.preloaded_pairs = 0
        self.repaired_bytes = 0
        # Pairs that came off the persistent store rather than this
        # process's own engine calls, for the warm/cold hit split.
        self._warm: Dict[PVTCondition, Set[bytes]] = {}
        self._backend: Optional[CacheStore] = None
        # Checkpoint journal, the pairs per corner it already holds, and the
        # (journal path, watermark) holding exactly those — set by a restore
        # and by every sync, so a later open_journal on that path continues
        # it instead of starting over.
        self._journal: Optional[CacheJournal] = None
        self._journaled: Dict[PVTCondition, int] = {}
        self._lineage: Optional[Tuple[str, Watermark]] = None
        if persist_path is not None:
            self._backend = CacheStore(persist_path, int(dimension), self.n_metrics)
            self.repaired_bytes = self._backend.repaired_bytes
            self._ingest(self._backend.records)
            self.preloaded_pairs = len(self)
            event(
                "eval_cache.warm_load",
                path=persist_path,
                pairs=self.preloaded_pairs,
                repaired_bytes=self.repaired_bytes,
            )

    def _ingest(self, records: Sequence[Record], warm: bool = True) -> None:
        """Load ``(tag, keys, rows)`` store records, in record order.

        ``warm`` marks the pairs as preloaded for the warm/cold hit split.
        Each tag's store dict (and warm set) is resolved once, at its first
        record, so corners enter the store in first-record order.
        """
        targets: Dict[bytes, Tuple[Dict[bytes, np.ndarray], Optional[Set[bytes]]]] = {}
        for tag, keys, rows in records:
            target = targets.get(tag)
            if target is None:
                corner = _corner_from_tag(tag)
                target = targets[tag] = (
                    self._store.setdefault(corner, {}),
                    self._warm.setdefault(corner, set()) if warm else None,
                )
            store, warm_keys = target
            store.update(zip(keys, rows))
            if warm_keys is not None:
                warm_keys.update(keys)

    def __len__(self) -> int:
        """Total number of cached ``(row, corner)`` pairs."""
        return sum(len(store) for store in self._store.values())

    def fresh_row_count(self, samples: np.ndarray, corners: Sequence[PVTCondition]) -> int:
        """How many rows :meth:`evaluate` would send to the engine right now.

        A pure peek — no store is created or mutated, no counter moves —
        and the reference for the per-member attribution the multi-seed
        Campaign derives from :attr:`last_fresh`.  Rejects an empty corner
        list exactly like :meth:`evaluate`.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate needs at least one PVT corner")
        keys = row_keys(samples)
        stores = [self._store.get(corner) for corner in corners]
        if any(store is None for store in stores):
            return samples.shape[0]
        return sum(1 for key in keys if any(key not in store for store in stores))

    @contract(
        args={"corners": SeqLen("c")},
        returns=ArraySpec("c", None, None),
    )
    def evaluate(
        self, samples: np.ndarray, corners: Sequence[PVTCondition]
    ) -> np.ndarray:
        """Metrics block ``(n_corners, count, n_metrics)``, memoised.

        A row already cached at *every* requested corner is served entirely
        from memory; all other rows go to the wrapped evaluator in a single
        stacked call covering all requested corners at once (recomputing a
        corner that was cached for such a row costs nothing extra in the
        broadcast and returns bit-identical values).

        The returned block — and every metric row retained in the cache —
        is **read-only** (``writeable=False``): a caller mutating a result
        in place would otherwise silently corrupt the shared cache (results
        alias cached rows), so the mutation faults at its own line instead.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate needs at least one PVT corner")
        count = samples.shape[0]
        keys = row_keys(samples)
        stores = [self._store.setdefault(corner, {}) for corner in corners]

        # A row counts as fresh unless *every* requested corner has it; fresh
        # rows are (re)computed at all corners, so each of their pairs is a
        # miss, and each pair of a fully-cached row is a hit.  Most fresh
        # rows already miss the first corner, which settles them without a
        # scan of the others.
        first, others = stores[0], stores[1:]
        fresh = [
            i
            for i, key in enumerate(keys)
            if key not in first or any(key not in store for store in others)
        ]
        self.last_fresh = fresh
        fresh_set = set(fresh)
        hits = (count - len(fresh)) * len(corners)
        misses = len(fresh) * len(corners)
        self.hits += hits
        self.misses += misses
        if hits:
            self._split_hits(keys, corners, fresh_set, hits)
        event(
            "eval_cache.evaluate",
            rows=count,
            corners=len(corners),
            hits=hits,
            misses=misses,
        )

        out = np.empty((len(corners), count, self.n_metrics), dtype=np.float64)
        if fresh:
            self.engine_calls += 1
            fault_point(SITE_ENGINE_CALL)
            with profiled(
                "eval_cache.engine", rows=len(fresh), corners=len(corners)
            ) as timer:
                block = np.asarray(
                    self.corner_evaluator(samples[fresh], corners), dtype=np.float64
                )
            self.eval_seconds += timer.seconds
            out[:, fresh, :] = block
            # The stored metric rows are views into this block; freezing it
            # makes every cached row immutable for the cache's lifetime.
            block.flags.writeable = False
            fresh_keys = [keys[row_index] for row_index in fresh]
            for corner_index, store in enumerate(stores):
                store.update(zip(fresh_keys, block[corner_index]))
            if self._backend is not None:
                self._persist(fresh_keys, corners, block)
        served = [row_index for row_index in range(count) if row_index not in fresh_set]
        if served:
            served_keys = [keys[row_index] for row_index in served]
            for corner_index, store in enumerate(stores):
                out[corner_index, served] = [store[key] for key in served_keys]
        out.flags.writeable = False
        return out

    def _split_hits(
        self,
        keys: List[bytes],
        corners: Sequence[PVTCondition],
        fresh_set: Set[int],
        hits: int,
    ) -> None:
        """Attribute served hits to the warm (preloaded) or cold pool."""
        if not self._warm:
            self.cold_hits += hits
            return
        warm_sets = [self._warm.get(corner, _EMPTY_KEYS) for corner in corners]
        served = [key for row_index, key in enumerate(keys) if row_index not in fresh_set]
        warm = sum(key in warm_keys for warm_keys in warm_sets for key in served)
        self.warm_hits += warm
        self.cold_hits += hits - warm

    def _persist(
        self,
        fresh_keys: List[bytes],
        corners: Sequence[PVTCondition],
        block: np.ndarray,
    ) -> None:
        """Append this engine call's pairs to the on-disk store.

        Each corner's block of fresh rows is one store frame, so a crash
        inside an append loses that block only.  A fresh row is recomputed
        at *all* requested corners, so a pair already on disk (cached at one
        corner, missing at another) can be re-appended; the loader replays
        records in order, so the duplicate is harmless — same key,
        bit-identical value.
        """
        backend = self._backend
        for corner_index, corner in enumerate(corners):
            backend.append(_corner_tag(corner), fresh_keys, block[corner_index])
        backend.flush()

    def close(self) -> None:
        """Flush and close the persistent store and the checkpoint journal."""
        if self._backend is not None:
            self._backend.close()
        self._close_journal()

    def content(self) -> List[Tuple[CornerFields, List[bytes], np.ndarray]]:
        """Every cached pair: ``(corner fields, row keys, metric matrix)``.

        One triple per corner, keys in insertion order next to their
        stacked metric rows — what a shard worker ships back to its parent
        and what the shard parity check's ``union_state_digest`` hashes.
        """
        content = []
        for corner, store in self._store.items():
            corner_keys = list(store)
            # analysis: allow(hot-loop-alloc) shard content export is cold
            matrix = np.stack([store[key] for key in corner_keys]) if corner_keys else np.empty((0, self.n_metrics))
            content.append((_corner_fields(corner), corner_keys, matrix))
        return content

    # -- checkpoint journal ---------------------------------------------
    def open_journal(self, path: str) -> CacheJournal:
        """Journal the cache to ``path`` at every :meth:`sync_journal`.

        When ``path`` is the journal this cache was restored from (or last
        synced to), it is continued: truncated to that watermark (frames
        past it were never referenced by a snapshot) and appended from
        there.  Any other path gets a new journal, so its first sync writes
        the full content.  Returns the journal, a context manager that
        closes its file.
        """
        self._close_journal()
        lineage = self._lineage
        if (
            lineage is not None
            and os.path.exists(path)
            and os.path.samefile(path, lineage[0])
        ):
            self._journal = CacheJournal(path, self._dimension, self.n_metrics, lineage[1])
        else:
            self._journal = CacheJournal(path, self._dimension, self.n_metrics)
            self._journaled = {}
        return self._journal

    def sync_journal(self) -> Watermark:
        """Append every pair inserted since the last sync, then fsync once.

        Between syncs the cache only grows — a recomputed pair keeps its
        dict position — so each corner's new pairs are exactly the tail of
        its insertion order past the pairs already journaled, and they go
        in as one journal frame.
        """
        journal = self._journal
        if journal is None:
            raise RuntimeError("sync_journal needs open_journal first")
        for corner, store in self._store.items():
            new = len(store) - self._journaled.get(corner, 0)
            if new > 0:
                # Read the tail from the end: O(new pairs), where slicing
                # from the front would step over every journaled pair.
                journal.append(
                    _corner_tag(corner),
                    list(islice(reversed(store), new))[::-1],
                    list(islice(reversed(store.values()), new))[::-1],
                )
                self._journaled[corner] = len(store)
        watermark = journal.sync()
        self._lineage = (journal.path, watermark)
        return watermark

    def _close_journal(self) -> None:
        """Close the journal file; :meth:`checkpoint_state` stays readable."""
        if self._journal is not None:
            self._journal.close()

    def checkpoint_state(self) -> Dict[str, object]:
        """The snapshot's cache block: counters, corner order, watermark.

        The content itself is the journal prefix up to the watermark, so
        every pair must be journaled: call :meth:`sync_journal` first.
        """
        if self._journal is None or any(
            len(store) != self._journaled.get(corner, 0)
            for corner, store in self._store.items()
        ):
            raise RuntimeError(
                "cache content is checkpointed through its journal: "
                "open_journal and sync_journal before checkpoint_state"
            )
        return {
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "warm_hits": self.warm_hits,
                "cold_hits": self.cold_hits,
                "engine_calls": self.engine_calls,
                "eval_seconds": self.eval_seconds,
            },
            "corners": [_corner_fields(corner) for corner in self._store],
            "journal": self._journal.watermark,
        }

    def restore_checkpoint(self, state: Dict[str, object], journal_path: str) -> None:
        """Restore a checkpoint's content, *replacing* the current content.

        The content is the journal at ``journal_path`` replayed up to the
        block's watermark, into the block's corner order, so each corner's
        pairs come back in their original insertion order.  Replacement
        (not merge) is what makes a resumed campaign bit-identical to the
        uninterrupted oracle including its hit/miss accounting: the cache
        holds exactly what it held at the snapshot round, even when the
        persistent store already has pairs the interrupted run computed
        afterwards (those are simply recomputed — to identical values —
        and re-appended).  The warm/cold split is re-intersected against
        the restored content so the split's invariant (warm keys are a
        subset of stored keys) survives.  The counters are left to
        :meth:`restore_counters`.  Raises
        :class:`~repro.resilience.snapshot.SnapshotError` when the journal
        does not match the watermark.
        """
        watermark = tuple(state["journal"])
        records = read_journal(journal_path, self._dimension, self.n_metrics, watermark)
        self._close_journal()
        self._journal = None
        self._store = {
            PVTCondition(process=process, voltage_factor=voltage, temperature_c=temperature): {}
            for process, voltage, temperature in state["corners"]
        }
        self._ingest(records, warm=False)
        self._warm = {
            corner: {key for key in warm_keys if key in self._store.get(corner, ())}
            for corner, warm_keys in self._warm.items()
        }
        # The restored content is exactly the journal prefix.
        self._journaled = {corner: len(store) for corner, store in self._store.items()}
        self._lineage = (journal_path, watermark)

    def restore_counters(self, counters: Dict[str, object]) -> None:
        """Set the counters to a :meth:`checkpoint_state` block's."""
        self.hits = counters["hits"]
        self.misses = counters["misses"]
        self.warm_hits = counters["warm_hits"]
        self.cold_hits = counters["cold_hits"]
        self.engine_calls = counters["engine_calls"]
        self.eval_seconds = counters["eval_seconds"]

    def state_digest(self) -> str:
        """SHA-256 over the full cache content, bit for bit.

        Every ``(corner, row-key, metric-row)`` triple enters the hash in a
        canonical order (corners by their exact field values, rows by key
        bytes), so two caches digest equal **iff** they hold bit-identical
        results for bit-identical sizings at identical corners — the
        determinism auditor's cache comparison.
        """
        digest = hashlib.sha256()
        corner_order = sorted(
            self._store,
            key=lambda corner: (
                corner.process,
                corner.voltage_factor.hex(),
                corner.temperature_c.hex(),
            ),
        )
        for corner in corner_order:
            digest.update(
                f"{corner.process}|{corner.voltage_factor.hex()}"
                f"|{corner.temperature_c.hex()}".encode("ascii")
            )
            store = self._store[corner]
            for key in sorted(store):
                digest.update(key)
                digest.update(store[key].tobytes())
        return digest.hexdigest()
