"""Versioned, integrity-checked campaign snapshots.

A snapshot is a single file holding one state tree (the
``state_dict()`` of a :class:`~repro.search.campaign.Campaign`: its
identity, round count, per-member evaluation accounting and cache
counters, with the evaluation-cache content left in the checkpoint
directory's :class:`~repro.resilience.store.CacheJournal`, referenced by
watermark; a resume replays the rounds against that content rather than
loading any search state): a fixed magic + format version, a CRC32 and
length of the payload, then the payload itself — a :mod:`pickle` of plain
builtins, ``bytes`` and NumPy arrays only.  The envelope makes corruption
*detected*, and the write path
(:func:`repro.resilience.atomic.atomic_write_bytes`) makes torn writes
*impossible*: a crash mid-checkpoint leaves the previous snapshot intact,
and any bit rot that slips past the filesystem fails the CRC loudly at
load instead of resuming a silently wrong campaign.

Pickle is safe here in the usual caveated sense — snapshots are local
state produced by the same trusted process that reloads them, not a wire
format — and the restricted vocabulary (no custom classes in the tree)
keeps the format stable across refactors of the engine's class layout.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Sequence

from repro.resilience.atomic import atomic_write_bytes

#: Envelope magic; the trailing byte is the envelope version.
MAGIC = b"REPROSNAP\x01"
#: Payload format tag, checked on load (bump on incompatible tree changes).
#: v5 holds no search state, since a resume replays it from the journal;
#: v4 held each member's optimizer state with float32 surrogate bundles
#: (v3's were float64); v3 moved member rows and histories into the
#: journal; v2 copied them.
SNAPSHOT_FORMAT = "repro.resilience/snapshot-v5"

_HEADER = struct.Struct("<IQ")  # crc32(payload), len(payload)


class SnapshotError(RuntimeError):
    """A snapshot file is missing, torn, corrupt, or of a foreign format."""


def save_snapshot(path: str, state: Any, copies: Sequence[str] = ()) -> None:
    """Serialize ``state`` into an integrity-checked snapshot, atomically.

    The state is pickled and checksummed once; the same envelope is then
    written to ``path`` and to every path in ``copies``.
    """
    payload = pickle.dumps(
        {"format": SNAPSHOT_FORMAT, "state": state}, protocol=pickle.HIGHEST_PROTOCOL
    )
    blob = MAGIC + _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
    for target in (path, *copies):
        atomic_write_bytes(target, blob)


def load_snapshot(path: str) -> Any:
    """Load and validate a snapshot; returns the state tree.

    Raises :class:`SnapshotError` on any integrity failure — wrong magic,
    truncated envelope, CRC mismatch, or foreign payload format.
    """
    if not os.path.exists(path):
        raise SnapshotError(f"snapshot {path!r} does not exist")
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MAGIC):
        raise SnapshotError(f"{path!r} is not a repro snapshot (bad magic)")
    header = blob[len(MAGIC) : len(MAGIC) + _HEADER.size]
    if len(header) < _HEADER.size:
        raise SnapshotError(f"snapshot {path!r} is truncated (no header)")
    crc, length = _HEADER.unpack(header)
    payload = blob[len(MAGIC) + _HEADER.size :]
    if len(payload) != length:
        raise SnapshotError(
            f"snapshot {path!r} is truncated ({len(payload)} of {length} payload bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"snapshot {path!r} failed its CRC check")
    document = pickle.loads(payload)
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path!r} has format "
            f"{document.get('format') if isinstance(document, dict) else None!r}, "
            f"expected {SNAPSHOT_FORMAT!r}"
        )
    return document["state"]
