"""Append-only on-disk store behind the persistent EvaluationCache.

One file per campaign workload, holding ``(corner tag, row key, metric
row)`` records in append order:

* **header** — magic + format version + the workload shape (sizing
  dimension, metric count), CRC-protected.  Reopening a store with a
  different shape is a hard error (it is a different workload, not a
  recoverable state).
* **records** — ``u32 payload length | payload | u32 crc32(payload)``
  frames, where the payload is ``u16 tag length | corner tag | row key
  (dimension * 8 bytes) | metric row (n_metrics * 8 bytes)``.  Keys and
  rows are raw float64 buffers — the same bit-exact identities the
  in-memory :class:`~repro.search.eval_cache.EvaluationCache` uses — so a
  warm-started process serves byte-identical results.

Because appends are the only mutation, a crash can damage the file in
exactly one way: a torn final frame.  :meth:`CacheStore.open` scans the
frames on reopen, and the first short read or CRC mismatch truncates the
file back to the last good frame boundary (counted in
:attr:`CacheStore.repaired_bytes`) — everything before it is intact by
construction.  The ``cache.append`` fault site makes that failure mode
testable on demand: when the armed plan fires there, the store writes a
genuine half-frame and flushes it before the fault propagates, so the
drill's resumed process exercises the real repair path, not a simulation.

:class:`CacheJournal` writes the same file format as a campaign's
checkpoint journal: each checkpoint appends only the pairs the cache
gained since the previous one, in one write and one fsync, and the
snapshot records the resulting :data:`Watermark`.  A resume replays the
journal up to that watermark (:func:`read_journal`); frames past it are
the leftover of a crash between the journal fsync and the snapshot
replace, and the next writer truncates them.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.faults import InjectedFault, fault_point, register_fault_site
from repro.resilience.snapshot import SnapshotError

MAGIC = b"REPROEVC\x01"
VERSION = 1

_HEADER_BODY = struct.Struct("<HII")  # version, dimension, n_metrics
_HEADER_CRC = struct.Struct("<I")
_FRAME_LEN = struct.Struct("<I")
_FRAME_CRC = struct.Struct("<I")
_TAG_LEN = struct.Struct("<H")

#: Size of the complete header on disk.
HEADER_SIZE = len(MAGIC) + _HEADER_BODY.size + _HEADER_CRC.size

SITE_CACHE_APPEND = register_fault_site("cache.append")

#: How far a journal reached at one checkpoint: ``(frames, byte offset,
#: running crc32)``.  The CRC runs over the header and every frame minus
#: its own trailing CRC field: a CRC over ``payload + crc32(payload)`` is
#: the same for every payload of a given length, so including those
#: fields would blind the running check to the frames' content.
Watermark = Tuple[int, int, int]


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
            f"{path!r} is store format v{version}, expected v{VERSION}"
        )
    if file_dimension != dimension or file_n_metrics != n_metrics:
        raise StoreError(
            f"{path!r} was written for dimension={file_dimension}, "
            f"n_metrics={file_n_metrics}; this workload has "
            f"dimension={dimension}, n_metrics={n_metrics}"
        )


def _parse_payload(
    payload: bytes, key_width: int, row_width: int, n_metrics: int
) -> "Tuple[bytes, bytes, np.ndarray] | None":
    (tag_length,) = _TAG_LEN.unpack(payload[: _TAG_LEN.size])
    key_start = _TAG_LEN.size + tag_length
    row_start = key_start + key_width
    if len(payload) != row_start + row_width:
        return None
    tag = payload[_TAG_LEN.size : key_start]
    key = payload[key_start:row_start]
    # A view into the (immutable) payload bytes: read-only by
    # construction, matching the cache's frozen-row invariant.
    row = np.frombuffer(payload, dtype=np.float64, count=n_metrics, offset=row_start)
    return tag, key, row


def _scan_frames(
    handle, key_width: int, row_width: int, n_metrics: int
) -> Tuple[List[Tuple[bytes, bytes, np.ndarray]], int]:
    """Read frames (from just past the header) until EOF or damage.

    Returns ``(records, good_offset)`` where ``good_offset`` is the file
    offset of the last frame boundary every record before it ends on.
    """
    records: List[Tuple[bytes, bytes, np.ndarray]] = []
    offset = HEADER_SIZE
    min_payload = _TAG_LEN.size + key_width + row_width
    while True:
        length_bytes = handle.read(_FRAME_LEN.size)
        if len(length_bytes) < _FRAME_LEN.size:
            break  # clean EOF, or a tail torn inside the length field
        (length,) = _FRAME_LEN.unpack(length_bytes)
        payload = handle.read(length)
        crc_bytes = handle.read(_FRAME_CRC.size)
        if (
            length < min_payload
            or len(payload) < length
            or len(crc_bytes) < _FRAME_CRC.size
            or zlib.crc32(payload) != _FRAME_CRC.unpack(crc_bytes)[0]
        ):
            break  # torn/corrupt frame: everything after it is the tail
        record = _parse_payload(payload, key_width, row_width, n_metrics)
        if record is None:
            break
        records.append(record)
        offset += _FRAME_LEN.size + length + _FRAME_CRC.size
    return records, offset


def read_records(
    path: str, dimension: int, n_metrics: int
) -> Tuple[List[Tuple[bytes, bytes, np.ndarray]], int]:
    """Read-only scan of a store file: the good records, without repair.

    Unlike constructing a :class:`CacheStore`, nothing is truncated and no
    write handle is taken, so this is safe on a file another process still
    owns — a torn tail (if any) is simply not yielded.  Returns
    ``(records, trailing_bytes)`` where ``trailing_bytes`` counts what a
    writer's repair pass would trim.
    """
    key_width = int(dimension) * 8
    row_width = int(n_metrics) * 8
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise StoreError(f"{path!r} is truncated inside the store header")
        _check_header(path, header, int(dimension), int(n_metrics))
        records, good_offset = _scan_frames(handle, key_width, row_width, n_metrics)
    return records, size - good_offset


def merge_stores(
    target_path: str,
    shard_paths: "Sequence[str]",
    dimension: int,
    n_metrics: int,
) -> int:
    """Merge per-shard store files into one master store, deduplicated.

    The sharded executor gives every shard its own single-writer store
    file (preserving the append-only/torn-tail-repair invariant — no
    cross-process locking) and the parent replays them into the master
    after all workers have exited.  Shards are replayed **in the given
    order** and a ``(tag, key)`` pair already present in the master or an
    earlier shard is skipped: the parity locks guarantee duplicate pairs
    carry bit-identical rows, so first-write-wins is exact, and the merged
    file's record sequence is deterministic.  Returns the number of
    records appended.
    """
    target = CacheStore(target_path, dimension, n_metrics)
    try:
        seen = {(tag, key) for tag, key, _ in target.records}
        appended = 0
        for path in shard_paths:
            records, _ = read_records(path, dimension, n_metrics)
            for tag, key, row in records:
                if (tag, key) in seen:
                    continue
                seen.add((tag, key))
                target.append(tag, key, row)
                appended += 1
        target.flush()
    finally:
        target.close()
    return appended


class CacheStore:
    """Single-writer append-only record log with torn-tail repair.

    Parameters
    ----------
    path:
        Store file; created (with its parent directory) when missing.
    dimension, n_metrics:
        The workload shape fixing the key and metric-row byte widths.

    Attributes
    ----------
    records:
        The ``(tag, key, metrics)`` tuples that survived the opening scan,
        in append order (later duplicates intentionally kept — the loader
        replays them in order, so last-write-wins like the appends did).
    repaired_bytes:
        Bytes truncated off a torn tail at open (0 for a clean file).
    """

    def __init__(self, path: str, dimension: int, n_metrics: int) -> None:
        self.path = path
        self._key_width = int(dimension) * 8
        self._row_width = int(n_metrics) * 8
        self._dimension = int(dimension)
        self._n_metrics = int(n_metrics)
        self.records: List[Tuple[bytes, bytes, np.ndarray]] = []
        self.repaired_bytes = 0
        self._file = self._open()

    # -- opening and repair --------------------------------------------
    def _open(self):
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size < HEADER_SIZE:
            # New store — or a creation that died before the header landed
            # (nothing after a torn header can be valid, so start over).
            self.repaired_bytes = size
            handle = open(self.path, "wb")  # analysis: allow(non-atomic-artifact-write) append-only log, integrity via per-record CRCs
            handle.write(_header(self._dimension, self._n_metrics))
            handle.flush()
            os.fsync(handle.fileno())
            return handle
        handle = open(self.path, "r+b")
        try:
            self._validate_header(handle.read(HEADER_SIZE))
            good_offset = self._scan(handle)
        except StoreError:
            handle.close()
            raise
        if good_offset < size:
            handle.truncate(good_offset)
            self.repaired_bytes = size - good_offset
        handle.seek(good_offset)
        return handle

    def _validate_header(self, header: bytes) -> None:
        _check_header(self.path, header, self._dimension, self._n_metrics)

    def _scan(self, handle) -> int:
        """Read frames until EOF or damage; return the last good offset."""
        records, offset = _scan_frames(
            handle, self._key_width, self._row_width, self._n_metrics
        )
        self.records.extend(records)
        return offset

    # -- appends --------------------------------------------------------
    def append(self, tag: bytes, key: bytes, metrics: np.ndarray) -> None:
        """Append one ``(corner tag, row key, metric row)`` record."""
        if self._file is None:
            raise StoreError(f"store {self.path!r} is closed")
        if len(key) != self._key_width:
            raise ValueError(f"key width {len(key)}, expected {self._key_width}")
        payload = _TAG_LEN.pack(len(tag)) + tag + key + metrics.tobytes()
        if len(payload) != _TAG_LEN.size + len(tag) + self._key_width + self._row_width:
            raise ValueError(
                f"metric row has {metrics.size} values, expected {self._n_metrics}"
            )
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
        appends resume at that offset with that running CRC.
    """

    def __init__(
        self,
        path: str,
        dimension: int,
        n_metrics: int,
        watermark: Optional[Watermark] = None,
    ) -> None:
        self.path = path
        self._payload_bytes = _TAG_LEN.size + int(dimension) * 8 + int(n_metrics) * 8
        if watermark is None:
            header = _header(int(dimension), int(n_metrics))
            handle = open(path, "wb")  # analysis: allow(non-atomic-artifact-write) append-only log, integrity via the snapshot watermark CRC
            handle.write(header)
            handle.flush()
            os.fsync(handle.fileno())
            watermark = (0, len(header), zlib.crc32(header))
        else:
            handle = open(path, "r+b")
            handle.truncate(watermark[1])
            handle.seek(watermark[1])
        self._file = handle
        self.watermark: Watermark = tuple(watermark)
        # Two parts per buffered frame: the unsealed frame and its CRC.
        self._pending: List[bytes] = []
        self._pending_crc = self.watermark[2]

    def append(self, tag: bytes, pairs: Iterable[Tuple[bytes, np.ndarray]]) -> None:
        """Buffer one ``(tag, key, row)`` frame per ``(key, row)`` pair."""
        head = _TAG_LEN.pack(len(tag)) + tag
        prefix = _FRAME_LEN.pack(self._payload_bytes + len(tag)) + head
        head_crc = zlib.crc32(head)
        pending, running = self._pending, self._pending_crc
        for key, row in pairs:
            body = key + row.tobytes()
            unsealed = prefix + body
            running = zlib.crc32(unsealed, running)
            pending.append(unsealed)
            pending.append(_FRAME_CRC.pack(zlib.crc32(body, head_crc)))
        self._pending_crc = running

    def sync(self) -> Watermark:
        """Write the buffered frames durably; returns the new watermark."""
        if self._pending:
            blob = b"".join(self._pending)
            self._file.write(blob)
            self._file.flush()
            os.fsync(self._file.fileno())
            frames, offset, _ = self.watermark
            self.watermark = (
                frames + len(self._pending) // 2,
                offset + len(blob),
                self._pending_crc,
            )
            self._pending = []
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
) -> List[Tuple[bytes, bytes, np.ndarray]]:
    """The journal's records up to ``watermark``, in append order.

    Raises :class:`~repro.resilience.snapshot.SnapshotError` naming the
    journal when it cannot be the one the snapshot was written against:
    missing, shorter than the watermark, or not matching it — a damaged
    frame, a frame count or running-CRC mismatch (another campaign's
    journal, or a damaged one).
    """
    frames, offset, crc = watermark
    if not os.path.exists(path):
        raise SnapshotError(f"cache journal {path!r} does not exist")
    with open(path, "rb") as handle:
        data = handle.read(offset)
    if len(data) < offset:
        raise SnapshotError(
            f"cache journal {path!r} is shorter than the snapshot's watermark "
            f"({len(data)} of {offset} bytes)"
        )
    try:
        _check_header(path, data[:HEADER_SIZE], int(dimension), int(n_metrics))
    except StoreError as error:
        raise SnapshotError(f"cache journal {path!r}: {error}") from error
    key_width, row_width = int(dimension) * 8, int(n_metrics) * 8
    stream = io.BytesIO(data)
    stream.seek(HEADER_SIZE)
    records, end = _scan_frames(stream, key_width, row_width, int(n_metrics))
    running, position = zlib.crc32(data[:HEADER_SIZE]), HEADER_SIZE
    for tag, _, _ in records:
        unsealed = _FRAME_LEN.size + _TAG_LEN.size + len(tag) + key_width + row_width
        running = zlib.crc32(data[position : position + unsealed], running)
        position += unsealed + _FRAME_CRC.size
    if end != offset or len(records) != frames or running != crc:
        raise SnapshotError(
            f"cache journal {path!r} does not match the snapshot's watermark "
            "(CRC mismatch): it belongs to another campaign or is damaged"
        )
    return records
