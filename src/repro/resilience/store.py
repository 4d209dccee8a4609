"""Append-only on-disk store behind the persistent EvaluationCache.

One file per campaign workload, holding blocks of ``(corner tag, row
key, metric row)`` pairs in append order:

* **header** — magic + format version (2) + the workload shape (sizing
  dimension, metric count), CRC-protected.  Reopening a store with a
  different shape is a hard error (it is a different workload, not a
  recoverable state), and so is a store of another format version: a
  per-pair v1 file is refused with a :class:`StoreError` that names both
  versions — delete it and rerun cold.
* **frames** — ``u32 payload length | payload | u32 crc32(payload)``,
  one per corner block, where the payload is ``u16 tag length | corner
  tag | u32 row count | row keys (count * dimension * 8 bytes) | metric
  rows (count * n_metrics * 8 bytes)``.  Keys and rows are raw float64
  buffers — the same bit-exact identities the in-memory
  :class:`~repro.search.eval_cache.EvaluationCache` uses — so a
  warm-started process serves byte-identical results.  A frame decodes
  to a record ``(tag, keys, rows)``: the keys are slices of the file
  buffer and ``rows`` is a read-only ``(count, n_metrics)`` view of it.

Because appends are the only mutation, a crash can damage the file in
exactly one way: a torn final frame.  :class:`CacheStore` scans the
frames on reopen, and the first short read, CRC mismatch, zero row count
or length that disagrees with its count truncates the file back to the
last good frame boundary (counted in :attr:`CacheStore.repaired_bytes`)
— everything before it is intact by construction.  The ``cache.append``
fault site makes that failure mode testable on demand: when the armed
plan fires there, the store writes a genuine half-frame and flushes it
before the fault propagates, so the drill's resumed process exercises
the real repair path, not a simulation.  A torn frame loses its one
block; the blocks before it survive.

:class:`CacheJournal` writes the same file format as a campaign's
checkpoint journal: each checkpoint appends one frame per corner with
the pairs the cache gained since the previous one, in one write and one
fsync, and the snapshot records the resulting :data:`Watermark`, whose
count is of *pairs*, not frames.  The journal holds cache pairs only: a
resume reads it back up to that watermark (:func:`read_journal`) and
replays the campaign's rounds against those pairs, so no search state is
journaled.  Frames past the watermark are the leftover of a crash
between the journal fsync and the snapshot replace, and the next writer
truncates them.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.faults import InjectedFault, fault_point, register_fault_site
from repro.resilience.snapshot import SnapshotError

MAGIC = b"REPROEVC\x01"
VERSION = 2

_HEADER_BODY = struct.Struct("<HII")  # version, dimension, n_metrics
_HEADER_CRC = struct.Struct("<I")
_FRAME_LEN = struct.Struct("<I")
_FRAME_CRC = struct.Struct("<I")
_TAG_LEN = struct.Struct("<H")
_COUNT = struct.Struct("<I")

#: Size of the complete header on disk.
HEADER_SIZE = len(MAGIC) + _HEADER_BODY.size + _HEADER_CRC.size

SITE_CACHE_APPEND = register_fault_site("cache.append")

#: How far a journal reached at one checkpoint: ``(pairs, byte offset,
#: running crc32)``.  The CRC runs over the header and every frame minus
#: its own trailing CRC field: a CRC over ``payload + crc32(payload)`` is
#: the same for every payload of a given length, so including those
#: fields would blind the running check to the frames' content.
Watermark = Tuple[int, int, int]

#: One decoded frame: ``(corner tag, row keys, (count, n_metrics) rows)``.
Record = Tuple[bytes, List[bytes], np.ndarray]


class StoreError(RuntimeError):
    """The store file belongs to a different workload or is not a store."""


def _header(dimension: int, n_metrics: int) -> bytes:
    body = _HEADER_BODY.pack(VERSION, dimension, n_metrics)
    return MAGIC + body + _HEADER_CRC.pack(zlib.crc32(body))


def _check_header(path: str, header: bytes, dimension: int, n_metrics: int) -> None:
    """Raise :class:`StoreError` unless ``header`` pins this workload."""
    if not header.startswith(MAGIC):
        raise StoreError(f"{path!r} is not an evaluation-cache store")
    body = header[len(MAGIC) : len(MAGIC) + _HEADER_BODY.size]
    (crc,) = _HEADER_CRC.unpack(header[len(MAGIC) + _HEADER_BODY.size :])
    if zlib.crc32(body) != crc:
        raise StoreError(f"{path!r} has a corrupt store header")
    version, file_dimension, file_n_metrics = _HEADER_BODY.unpack(body)
    if version != VERSION:
        raise StoreError(
            f"{path!r} is store format v{version}, expected v{VERSION}: "
            "delete it and rerun cold"
        )
    if file_dimension != dimension or file_n_metrics != n_metrics:
        raise StoreError(
            f"{path!r} was written for dimension={file_dimension}, "
            f"n_metrics={file_n_metrics}; this workload has "
            f"dimension={dimension}, n_metrics={n_metrics}"
        )


def _block_payload(
    tag: bytes, keys: Sequence[bytes], rows, key_width: int, n_metrics: int
) -> bytes:
    """One frame's payload: a corner tag and its block of pairs."""
    count = len(keys)
    rows = np.asarray(rows, dtype=np.float64)
    if count == 0:
        raise ValueError("a store frame needs at least one pair")
    if rows.shape != (count, n_metrics):
        raise ValueError(
            f"metric block has shape {rows.shape}, expected {(count, n_metrics)}"
        )
    key_bytes = b"".join(keys)
    if len(key_bytes) != count * key_width:
        raise ValueError(
            f"{count} keys span {len(key_bytes)} bytes, expected {count * key_width}"
        )
    return _TAG_LEN.pack(len(tag)) + tag + _COUNT.pack(count) + key_bytes + rows.tobytes()


def _scan_frames(
    data: bytes, key_width: int, n_metrics: int
) -> Tuple[List[Record], int]:
    """Decode the frames after the header until the end of ``data`` or damage.

    Returns ``(records, good_offset)`` where ``good_offset`` is the offset
    of the last frame boundary every record before it ends on.
    """
    records: List[Record] = []
    view = memoryview(data)
    offset, end = HEADER_SIZE, len(data)
    while offset + _FRAME_LEN.size <= end:
        (length,) = _FRAME_LEN.unpack_from(data, offset)
        start = offset + _FRAME_LEN.size
        stop = start + length
        if stop + _FRAME_CRC.size > end or length < _TAG_LEN.size:
            break  # torn frame: everything from its start is the tail
        if zlib.crc32(view[start:stop]) != _FRAME_CRC.unpack_from(data, stop)[0]:
            break
        (tag_length,) = _TAG_LEN.unpack_from(data, start)
        keys_start = start + _TAG_LEN.size + tag_length + _COUNT.size
        if keys_start > stop:
            break
        tag = data[start + _TAG_LEN.size : keys_start - _COUNT.size]
        (count,) = _COUNT.unpack_from(data, keys_start - _COUNT.size)
        if count == 0 or stop - keys_start != count * (key_width + n_metrics * 8):
            break  # a frame that disagrees with its own count is damage
        rows_start = keys_start + count * key_width
        keys = [data[p : p + key_width] for p in range(keys_start, rows_start, key_width)]
        # A view into the (immutable) file bytes: read-only by
        # construction, matching the cache's frozen-row invariant.
        rows = np.frombuffer(
            data, dtype=np.float64, count=count * n_metrics, offset=rows_start
        ).reshape(count, n_metrics)
        records.append((tag, keys, rows))
        offset = stop + _FRAME_CRC.size
    return records, offset


def _read_store(path: str, handle, dimension: int, n_metrics: int) -> Tuple[List[Record], int]:
    """Check the header of an open store file and decode its frames."""
    data = handle.read()
    if len(data) < HEADER_SIZE:
        raise StoreError(f"{path!r} is truncated inside the store header")
    _check_header(path, data[:HEADER_SIZE], dimension, n_metrics)
    return _scan_frames(data, dimension * 8, n_metrics)


def read_records(path: str, dimension: int, n_metrics: int) -> Tuple[List[Record], int]:
    """Read-only scan of a store file: the good records, without repair.

    Unlike constructing a :class:`CacheStore`, nothing is truncated and no
    write handle is taken, so this is safe on a file another process still
    owns — a torn tail (if any) is simply not yielded.  Returns
    ``(records, trailing_bytes)`` where ``trailing_bytes`` counts what a
    writer's repair pass would trim.
    """
    with open(path, "rb") as handle:
        records, good_offset = _read_store(path, handle, int(dimension), int(n_metrics))
        return records, handle.tell() - good_offset


class CacheStore:
    """Single-writer append-only block log with torn-tail repair.

    Parameters
    ----------
    path:
        Store file; created (with its parent directory) when missing.
    dimension, n_metrics:
        The workload shape fixing the key and metric-row byte widths.

    Attributes
    ----------
    records:
        The ``(tag, keys, rows)`` records that survived the opening scan,
        in append order (later duplicates intentionally kept — the loader
        replays them in order, so last-write-wins like the appends did),
        until :meth:`take_records` hands them over.
    repaired_bytes:
        Bytes truncated off a torn tail at open (0 for a clean file).
    """

    def __init__(self, path: str, dimension: int, n_metrics: int) -> None:
        self.path = path
        self._key_width = int(dimension) * 8
        self._dimension = int(dimension)
        self._n_metrics = int(n_metrics)
        self.records: List[Record] = []
        self.repaired_bytes = 0
        self._file = self._open()

    def _open(self):
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size < HEADER_SIZE:
            # New store — or a creation that died before the header landed
            # (nothing after a torn header can be valid, so start over).
            self.repaired_bytes = size
            handle = open(self.path, "wb")  # analysis: allow(non-atomic-artifact-write) append-only log, integrity via per-frame CRCs
            handle.write(_header(self._dimension, self._n_metrics))
            handle.flush()
            os.fsync(handle.fileno())
            return handle
        handle = open(self.path, "r+b")
        try:
            self.records, good_offset = _read_store(
                self.path, handle, self._dimension, self._n_metrics
            )
        except StoreError:
            handle.close()
            raise
        if good_offset < size:
            handle.truncate(good_offset)
            self.repaired_bytes = size - good_offset
        handle.seek(good_offset)
        return handle

    def take_records(self) -> List[Record]:
        """Hand over :attr:`records` and drop the store's own reference.

        The records' rows are views of the whole file's bytes, so holding
        them would keep the file in memory for the store's lifetime.
        """
        records, self.records = self.records, []
        return records

    def append(self, tag: bytes, keys: Sequence[bytes], rows: np.ndarray) -> None:
        """Append one frame: a corner tag, its row keys and ``(count, n_metrics)`` rows."""
        if self._file is None:
            raise StoreError(f"store {self.path!r} is closed")
        payload = _block_payload(tag, keys, rows, self._key_width, self._n_metrics)
        frame = _FRAME_LEN.pack(len(payload)) + payload + _FRAME_CRC.pack(zlib.crc32(payload))
        try:
            fault_point(SITE_CACHE_APPEND)
        except InjectedFault:
            # Die like a real crash would: half the frame durably on disk.
            self._file.write(frame[: len(frame) // 2])
            self._file.flush()
            raise
        self._file.write(frame)

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None


class CacheJournal:
    """Append-only checkpoint journal in the :class:`CacheStore` format.

    Frames are buffered by :meth:`append` and land on disk only at
    :meth:`sync` — one write and one fsync per checkpoint — which returns
    the new :attr:`watermark` for the snapshot to record.  Unlike
    :class:`CacheStore` the journal never fires the ``cache.append`` fault
    site and never scans or repairs itself: its readers stop at a
    snapshot's watermark (:func:`read_journal`).

    Parameters
    ----------
    path:
        Journal file.  Without ``watermark`` it is (re)created empty.
    dimension, n_metrics:
        The workload shape pinned in the header.
    watermark:
        Continue an existing journal from this watermark: the file is
        truncated there (dropping frames no snapshot references) and
        appends resume at that offset with that running CRC.  A file
        shorter than the watermark raises
        :class:`~repro.resilience.snapshot.SnapshotError`.
    """

    def __init__(
        self,
        path: str,
        dimension: int,
        n_metrics: int,
        watermark: Optional[Watermark] = None,
    ) -> None:
        self.path = path
        self._key_width = int(dimension) * 8
        self._n_metrics = int(n_metrics)
        if watermark is None:
            header = _header(int(dimension), int(n_metrics))
            handle = open(path, "wb")  # analysis: allow(non-atomic-artifact-write) append-only log, integrity via the snapshot watermark CRC
            handle.write(header)
            handle.flush()
            os.fsync(handle.fileno())
            watermark = (0, len(header), zlib.crc32(header))
        else:
            handle = open(path, "r+b")
            size = handle.seek(0, os.SEEK_END)
            if size < watermark[1]:
                handle.close()
                raise SnapshotError(
                    f"cache journal {path!r} is shorter than the watermark it "
                    f"continues from ({size} of {watermark[1]} bytes)"
                )
            handle.truncate(watermark[1])
            handle.seek(watermark[1])
        self._file = handle
        self.watermark: Watermark = tuple(watermark)
        # Two parts per buffered frame: the unsealed frame and its CRC.
        self._pending: List[bytes] = []
        self._pending_pairs = 0
        self._pending_crc = self.watermark[2]

    def append(self, tag: bytes, keys: Sequence[bytes], rows) -> None:
        """Buffer one frame of ``keys`` and their ``(count, n_metrics)`` rows."""
        payload = _block_payload(tag, keys, rows, self._key_width, self._n_metrics)
        unsealed = _FRAME_LEN.pack(len(payload)) + payload
        self._pending_crc = zlib.crc32(unsealed, self._pending_crc)
        self._pending.append(unsealed)
        self._pending.append(_FRAME_CRC.pack(zlib.crc32(payload)))
        self._pending_pairs += len(keys)

    def sync(self) -> Watermark:
        """Write the buffered frames durably; returns the new watermark."""
        if self._pending:
            blob = b"".join(self._pending)
            self._file.write(blob)
            self._file.flush()
            os.fsync(self._file.fileno())
            pairs, offset, _ = self.watermark
            self.watermark = (
                pairs + self._pending_pairs,
                offset + len(blob),
                self._pending_crc,
            )
            self._pending = []
            self._pending_pairs = 0
        return self.watermark

    def __enter__(self) -> "CacheJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the file; the watermark stays readable."""
        if self._file is not None:
            self._file.close()
            self._file = None


def read_journal(
    path: str, dimension: int, n_metrics: int, watermark: Watermark
) -> List[Record]:
    """The journal's records up to ``watermark``, in append order.

    Raises :class:`~repro.resilience.snapshot.SnapshotError` naming the
    journal when it cannot be the one the snapshot was written against:
    missing, shorter than the watermark, or not matching it — a damaged
    frame, a pair count or running-CRC mismatch (another campaign's
    journal, or a damaged one).  A journal whose header is not this
    workload's current format raises :class:`StoreError`.
    """
    pairs, offset, crc = watermark
    if not os.path.exists(path):
        raise SnapshotError(f"cache journal {path!r} does not exist")
    with open(path, "rb") as handle:
        data = handle.read(offset)
    if len(data) < offset:
        raise SnapshotError(
            f"cache journal {path!r} is shorter than the snapshot's watermark "
            f"({len(data)} of {offset} bytes)"
        )
    _check_header(path, data[:HEADER_SIZE], int(dimension), int(n_metrics))
    records, end = _scan_frames(data, int(dimension) * 8, int(n_metrics))
    view = memoryview(data)
    running, position = zlib.crc32(view[:HEADER_SIZE]), HEADER_SIZE
    key_width = int(dimension) * 8
    for tag, keys, rows in records:
        unsealed = (
            _FRAME_LEN.size + _TAG_LEN.size + len(tag) + _COUNT.size
            + len(keys) * key_width + rows.nbytes
        )
        running = zlib.crc32(view[position : position + unsealed], running)
        position += unsealed + _FRAME_CRC.size
    if end != offset or sum(len(keys) for _, keys, _ in records) != pairs or running != crc:
        raise SnapshotError(
            f"cache journal {path!r} does not match the snapshot's watermark "
            "(CRC mismatch): it belongs to another campaign or is damaged"
        )
    return records
