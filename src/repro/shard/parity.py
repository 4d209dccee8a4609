"""The cache-side parity check for sharded execution.

A sharded run spreads one case's seeds over several seed-block campaigns,
each with its own evaluation cache.  :func:`union_state_digest` is the
cross-process analogue of
:meth:`~repro.search.eval_cache.EvaluationCache.state_digest`: it merges
every block's cache content and hashes it in the digest's canonical order,
so a sharded run's combined cache compares bit for bit against the one
cache of the in-process multi-seed campaign — without ever materialising a
merged in-memory cache.  The trajectories compare through
:func:`repro.analysis.determinism.fingerprint_outcome`, which takes a
:class:`~repro.shard.executor.ShardRunOutcome` and a
:class:`~repro.search.campaign.CampaignResult` alike.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Optional, Sequence

import numpy as np


def union_state_digest(contents: Iterable[Sequence[Any]]) -> Optional[str]:
    """SHA-256 over the union of per-block cache contents, bit for bit.

    ``contents`` holds each block's ``EvaluationCache.content()``
    — ``(corner fields, keys, metric matrix)`` triples.  The union is
    hashed in exactly the canonical order
    :meth:`~repro.search.eval_cache.EvaluationCache.state_digest` uses
    (corners by exact field encoding, rows by key bytes), so the result
    equals the digest one cache holding all pairs would report.  Blocks
    may overlap (two seeds may request one sizing); a ``(corner, key)``
    pair appearing twice with different row bytes is a parity violation
    and raises :class:`ValueError`.  Returns ``None`` for no content.
    """
    merged: dict = {}
    saw_content = False
    for content in contents:
        saw_content = True
        for fields, keys, matrix in content:
            process, voltage_factor, temperature_c = fields
            corner_key = (
                str(process),
                float(voltage_factor).hex(),
                float(temperature_c).hex(),
            )
            rows = merged.setdefault(corner_key, {})
            matrix = np.asarray(matrix)
            for position, key in enumerate(keys):
                row_bytes = matrix[position].tobytes()
                existing = rows.get(key)
                if existing is None:
                    rows[key] = row_bytes
                elif existing != row_bytes:
                    raise ValueError(
                        f"shard cache parity violation: corner {corner_key} "
                        f"holds two different metric rows for one sizing key"
                    )
    if not saw_content:
        return None
    digest = hashlib.sha256()
    for process, voltage_hex, temperature_hex in sorted(merged):
        digest.update(f"{process}|{voltage_hex}|{temperature_hex}".encode("ascii"))
        rows = merged[(process, voltage_hex, temperature_hex)]
        for key in sorted(rows):
            digest.update(key)
            digest.update(rows[key])
    return digest.hexdigest()
