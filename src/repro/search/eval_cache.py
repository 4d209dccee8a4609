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

Each corner's pairs live in one growable ``(capacity, n_metrics)`` float64
block (:class:`_CornerPairs`), in insertion order, beside a ``{row key:
position}`` index and a warm flag per position.  A pair costs its 8-byte
metric floats plus one dict slot; the position ints come from one list the
corners share, so no pair holds an object of its own, and the engine's
output blocks are copied in and released.  Every read — a served row, a
journal tail, :meth:`EvaluationCache.content` — is a slice or a gather of
those blocks.

The cache is engine-agnostic: it wraps *any* corner evaluator with the
``(samples, corners) -> (n_corners, count, n_metrics)`` contract (the stacked
:meth:`~repro.circuits.topologies.base.SizingProblem.evaluate_corners` in
production, a per-corner loop in the parity tests), and since it returns
exactly the floats the evaluator produced it never changes a search
trajectory — it only removes repeat work.  It also keeps the evaluation
counters a campaign reports: ``eval_seconds`` is the wall time actually
spent inside the wrapped evaluator.

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
import operator
import os
from itertools import compress, islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: A corner's exact identity as plain builtins, for snapshots and content.
CornerFields = Tuple[str, float, float]

#: One corner's cached pairs as :meth:`EvaluationCache.corner_pairs` reads
#: them: ``(corner, row keys, metric rows, warm flags)``, in insertion order.
CornerPairs = Tuple[PVTCondition, List[bytes], np.ndarray, np.ndarray]


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


class _CornerPairs:
    """One corner's cached pairs, in insertion order.

    ``index`` maps a row key to its position; ``rows[:len(index)]`` holds
    the metric rows and ``warm[:len(index)]`` flags the pairs preloaded off
    the persistent store.  Both arrays grow by half again when full, and
    the slack past ``len(index)`` is never read.
    """

    __slots__ = ("index", "rows", "warm")

    def __init__(self, n_metrics: int) -> None:
        self.index: Dict[bytes, int] = {}
        self.rows = np.empty((0, n_metrics), dtype=np.float64)
        self.warm = np.zeros(0, dtype=bool)

    def reserve(self, size: int) -> None:
        """Make room for ``size`` pairs, keeping everything written so far."""
        capacity = self.rows.shape[0]
        if size <= capacity:
            return
        grown = max(size, capacity + capacity // 2)
        rows = np.empty((grown, self.rows.shape[1]), dtype=np.float64)
        rows[:capacity] = self.rows
        warm = np.zeros(grown, dtype=bool)
        warm[:capacity] = self.warm
        self.rows, self.warm = rows, warm

    def positions(self, keys: List[bytes]) -> List[int]:
        """The positions of ``keys``, every one of which is stored."""
        return list(map(self.index.__getitem__, keys))


def _served(keys: List[bytes], stores: Sequence[_CornerPairs]) -> List[int]:
    """Ascending indices of the ``keys`` cached at every corner of ``stores``.

    Narrowed corner by corner, so a row missing at one corner is never
    looked up at the next.
    """
    served: Sequence[int] = range(len(keys))
    for pairs in stores:
        found = list(map(pairs.index.__contains__, keys))
        if not all(found):
            served = list(compress(served, found))
            keys = list(compress(keys, found))
            if not served:
                break
    return list(served)


def _keys_precondition(arguments) -> Optional[str]:
    """Contract: keys handed to :meth:`EvaluationCache.evaluate` are the rows' own."""
    keys = arguments["keys"]
    if keys is None:
        return None
    samples = np.atleast_2d(np.asarray(arguments["samples"], dtype=np.float64))
    if list(keys) != row_keys(samples):
        return "the keys are not the rows' keys"
    return None


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
        # One block of pairs per corner.  Keyed by the (frozen, hashable)
        # PVTCondition itself, not its display name — the name rounds
        # voltage/temperature for printing, so two distinct corners can
        # share it.  ``None`` once close() released the content.
        self._corners: Optional[Dict[PVTCondition, _CornerPairs]] = {}
        # Position k of every corner is this list's k-th int object.
        self._positions: List[int] = []
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
        self.cold_hits = 0
        self.engine_calls = 0
        self.eval_seconds = 0.0
        self.preloaded_pairs = 0
        self.repaired_bytes = 0
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
            self._ingest(self._backend.take_records())
            self.preloaded_pairs = len(self)
            event(
                "eval_cache.warm_load",
                path=persist_path,
                pairs=self.preloaded_pairs,
                repaired_bytes=self.repaired_bytes,
            )

    def _live_corners(self) -> Dict[PVTCondition, _CornerPairs]:
        """Every corner's pairs; raises once :meth:`close` released them."""
        corners = self._corners
        if corners is None:
            raise RuntimeError(
                "the evaluation cache is closed: close() released its content"
            )
        return corners

    def _corner(self, corner: PVTCondition) -> _CornerPairs:
        """``corner``'s pairs, created empty (and ordered last) when new."""
        pairs = self._corners.get(corner)
        if pairs is None:
            pairs = self._corners[corner] = _CornerPairs(self.n_metrics)
        return pairs

    def _insert(
        self, pairs: _CornerPairs, keys: List[bytes], rows: np.ndarray, warm: bool
    ) -> None:
        """Copy ``rows`` in under ``keys``, as ``dict.update(zip(keys, rows))`` would.

        A new key takes the next position; a key already stored, or
        repeated in ``keys``, keeps its first position and takes its last
        row.  ``warm`` flags every key given as preloaded.

        Freshness costs one probe per key: ``setdefault`` offers the i-th
        key the i-th free position, and when every key takes its offer
        (the usual case) the keys were new and distinct.  Otherwise the
        keys that took an offer move down to close the gaps the others
        left.
        """
        index = pairs.index
        start = len(index)
        stop = start + len(keys)
        positions = self._positions
        if len(positions) < stop:
            positions.extend(range(len(positions), stop))
        offered = positions[start:stop]
        targets = list(map(index.setdefault, keys, offered))
        if targets == offered:
            pairs.reserve(stop)
            pairs.rows[start:stop] = rows
            if warm:
                pairs.warm[start:stop] = True
            return
        taken = list(compress(keys, map(operator.eq, targets, offered)))
        stop = start + len(taken)
        index.update(zip(taken, positions[start:stop]))
        pairs.reserve(stop)
        # Each position takes the row of its key's last occurrence.
        last_source = dict(zip(pairs.positions(keys), range(len(keys))))
        targets = list(last_source)
        if len(targets) < len(keys):
            rows = rows[list(last_source.values())]
        pairs.rows[targets] = rows
        if warm:
            pairs.warm[targets] = True

    def _ingest(self, records: Sequence[Record], warm: bool = True) -> None:
        """Load ``(tag, keys, rows)`` store records, in record order.

        ``warm`` marks the pairs as preloaded for the warm/cold hit split.
        Each tag's corner is resolved once, at its first record, so corners
        enter the cache in first-record order; each record's rows are
        copied into its corner's block in one step.  Every record holds
        its own copy of a row's key, so equal keys are shared first.
        """
        targets: Dict[bytes, _CornerPairs] = {}
        # One key object per row, however many corners' records hold it.
        shared: Dict[bytes, bytes] = {}
        for tag, keys, rows in records:
            pairs = targets.get(tag)
            if pairs is None:
                pairs = targets[tag] = self._corner(_corner_from_tag(tag))
            self._insert(pairs, list(map(shared.setdefault, keys, keys)), rows, warm)

    def __len__(self) -> int:
        """Total number of cached ``(row, corner)`` pairs."""
        return sum(len(pairs.index) for pairs in self._live_corners().values())

    def fresh_row_count(self, samples: np.ndarray, corners: Sequence[PVTCondition]) -> int:
        """How many rows :meth:`evaluate` would send to the engine right now.

        A pure peek: no corner is created, nothing is inserted and no
        counter moves.  Times the corner count, it is the ``misses`` that
        call would book.  No production path calls it; it stays because
        the repository benchmark's per-layer ledger wraps it by name.
        Rejects an empty corner list exactly like :meth:`evaluate`.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate needs at least one PVT corner")
        cached = self._live_corners()
        stores = [cached.get(corner) for corner in corners]
        if any(pairs is None for pairs in stores):
            return samples.shape[0]
        return samples.shape[0] - len(_served(row_keys(samples), stores))

    @contract(
        args={"corners": SeqLen("c")},
        returns=ArraySpec("c", None, None),
        pre=_keys_precondition,
    )
    def evaluate(
        self,
        samples: np.ndarray,
        corners: Sequence[PVTCondition],
        keys: Optional[List[bytes]] = None,
    ) -> np.ndarray:
        """Metrics block ``(n_corners, count, n_metrics)``, memoised.

        ``keys`` are the rows' :func:`~repro.core.design_space.row_keys`
        when the caller holds them already (the Campaign's requests carry
        the keys their asks built); ``None`` computes them.

        A row already cached at *every* requested corner is served entirely
        from memory; all other rows go to the wrapped evaluator in a single
        stacked call covering all requested corners at once (recomputing a
        corner that was cached for such a row costs nothing extra in the
        broadcast and returns bit-identical values).

        The returned block is a new array, gathered from the cache's blocks
        and the engine's output, and **read-only** (``writeable=False``),
        so a caller that tries to edit a result in place faults at its own
        line; the cache's own blocks are never handed out writable.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate needs at least one PVT corner")
        self._live_corners()  # raises on a closed cache
        count = samples.shape[0]
        if keys is None:
            keys = row_keys(samples)
        stores = [self._corner(corner) for corner in corners]

        # A row counts as fresh unless *every* requested corner has it; fresh
        # rows are (re)computed at all corners, so each of their pairs is a
        # miss, and each pair of a fully-cached row is a hit.
        served = _served(keys, stores)
        served_set = set(served)
        fresh = [row_index for row_index in range(count) if row_index not in served_set]
        hits = len(served) * len(corners)
        misses = len(fresh) * len(corners)
        self.hits += hits
        self.misses += misses
        event(
            "eval_cache.evaluate",
            rows=count,
            corners=len(corners),
            hits=hits,
            misses=misses,
        )

        out = np.empty((len(corners), count, self.n_metrics), dtype=np.float64)
        if served:
            served_keys = [keys[row_index] for row_index in served]
            warm = 0
            for corner_index, pairs in enumerate(stores):
                positions = pairs.positions(served_keys)
                out[corner_index, served] = pairs.rows[positions]
                warm += int(np.count_nonzero(pairs.warm[positions]))
            self.warm_hits += warm
            self.cold_hits += hits - warm
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
            fresh_keys = [keys[row_index] for row_index in fresh]
            for corner_index, pairs in enumerate(stores):
                self._insert(pairs, fresh_keys, block[corner_index], False)
            if self._backend is not None:
                self._persist(fresh_keys, corners, block)
        out.flags.writeable = False
        return out

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
        """End the cache: flush and close the store and the journal, then
        release the content.

        Every corner's pair block, index and warm flags are dropped.  The
        counters (``hits``, ``misses``, ``warm_hits``, ``cold_hits``,
        ``engine_calls``, ``eval_seconds``, ``preloaded_pairs``,
        ``repaired_bytes``) and the shape (``n_metrics``, the sizing
        dimension) stay readable.  Every method that reads or writes
        content — :meth:`evaluate`, :meth:`content`, :meth:`corner_pairs`,
        :meth:`state_digest`, :meth:`sync_journal`, ``len()`` and the rest
        of the journal API — raises :class:`RuntimeError` afterwards.  A
        second ``close`` does nothing.
        """
        if self._corners is None:
            return
        if self._backend is not None:
            self._backend.close()
        self._close_journal()
        self._corners = None
        self._positions = []
        self._journaled = {}

    def corner_pairs(self) -> List[CornerPairs]:
        """Every corner's pairs: ``(corner, keys, rows, warm flags)``.

        One tuple per corner in corner order; keys in insertion order next
        to read-only views of their metric rows and warm flags.
        """
        pairs_by_corner = []
        for corner, pairs in self._live_corners().items():
            stored = len(pairs.index)
            rows, warm = pairs.rows[:stored], pairs.warm[:stored]
            rows.flags.writeable = warm.flags.writeable = False
            pairs_by_corner.append((corner, list(pairs.index), rows, warm))
        return pairs_by_corner

    def content(self) -> List[Tuple[CornerFields, List[bytes], np.ndarray]]:
        """Every cached pair: ``(corner fields, row keys, metric matrix)``.

        One triple per corner, keys in insertion order next to their
        stacked metric rows — what a shard worker ships back to its parent
        and what the shard parity check's ``union_state_digest`` hashes.
        """
        return [
            (_corner_fields(corner), keys, rows)
            for corner, keys, rows, _ in self.corner_pairs()
        ]

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
        self._live_corners()  # raises on a closed cache
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
        position — so each corner's new pairs are exactly the tail of its
        block past the pairs already journaled, and they go in as one
        journal frame.
        """
        cached = self._live_corners()
        journal = self._journal
        if journal is None:
            raise RuntimeError("sync_journal needs open_journal first")
        for corner, pairs in cached.items():
            done, stored = self._journaled.get(corner, 0), len(pairs.index)
            if stored > done:
                # Read the keys' tail from the end: O(new pairs), where
                # slicing from the front would step over every journaled one.
                journal.append(
                    _corner_tag(corner),
                    list(islice(reversed(pairs.index), stored - done))[::-1],
                    pairs.rows[done:stored],
                )
                self._journaled[corner] = stored
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
        cached = self._live_corners()
        if self._journal is None or any(
            len(pairs.index) != self._journaled.get(corner, 0)
            for corner, pairs in cached.items()
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
            "corners": [_corner_fields(corner) for corner in cached],
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
        and re-appended).  A restored pair stays warm when it was warm
        before the restore, so warm pairs are still stored pairs.  The
        counters are left to :meth:`restore_counters`.  Raises
        :class:`~repro.resilience.snapshot.SnapshotError` when the journal
        does not match the watermark.
        """
        self._live_corners()  # raises on a closed cache
        watermark = tuple(state["journal"])
        records = read_journal(journal_path, self._dimension, self.n_metrics, watermark)
        self._close_journal()
        self._journal = None
        previous = self._corners
        self._corners = {}
        for process, voltage, temperature in state["corners"]:
            self._corner(
                PVTCondition(process=process, voltage_factor=voltage, temperature_c=temperature)
            )
        self._ingest(records, warm=False)
        for corner, pairs in self._corners.items():
            before = previous.get(corner)
            if before is None:
                continue
            flags = before.warm[: len(before.index)]
            if flags.any():
                restored = [
                    key
                    for key, flag in zip(before.index, flags)
                    if flag and key in pairs.index
                ]
                pairs.warm[pairs.positions(restored)] = True
        # The restored content is exactly the journal prefix.
        self._journaled = {corner: len(pairs.index) for corner, pairs in self._corners.items()}
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
        cached = self._live_corners()
        digest = hashlib.sha256()
        corner_order = sorted(
            cached,
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
            pairs = cached[corner]
            for key in sorted(pairs.index):
                digest.update(key)
                digest.update(pairs.rows[pairs.index[key]].tobytes())
        return digest.hexdigest()
