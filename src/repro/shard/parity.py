"""Parity oracles for sharded execution.

Two tools that turn "sharded runs are byte-identical to sequential ones"
from a slogan into a checkable lock:

* :func:`run_sequential` — the in-process oracle: every shard's campaign,
  run one after another in the parent, merged under the same attribution
  rules as :meth:`~repro.shard.executor.ShardedExecutor.run`.  Feeding
  both outcomes through
  :func:`repro.analysis.determinism.fingerprint_outcome` byte-diffs the
  trajectories, counters and cache digests.
* :func:`union_state_digest` — the cross-process analogue of
  :meth:`~repro.search.eval_cache.EvaluationCache.state_digest`: it merges
  every shard's cache content and hashes it in the digest's canonical
  order, so a sharded run's combined cache can be compared bit-for-bit
  against one sequential cache's digest — without ever materialising a
  merged in-memory cache.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.shard.executor import ShardResult, ShardRunOutcome, ShardSpec


def union_state_digest(contents: Iterable[Sequence[Any]]) -> Optional[str]:
    """SHA-256 over the union of per-shard cache contents, bit for bit.

    ``contents`` holds each shard's ``EvaluationCache.content()``
    — ``(corner fields, keys, metric matrix)`` triples.  The union is
    hashed in exactly the canonical order
    :meth:`~repro.search.eval_cache.EvaluationCache.state_digest` uses
    (corners by exact field encoding, rows by key bytes), so the result
    equals the digest one cache holding all pairs would report.  Shards
    may overlap (warm starts replay the master store); a ``(corner, key)``
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


def run_sequential(specs: Sequence[ShardSpec]) -> ShardRunOutcome:
    """Run every shard in-process, one after another: the parity oracle.

    No spawn, no stores, no checkpoints — just each shard's single-seed
    campaign in spec order, merged with the same sums-over-shards
    attribution the executor documents.  The outcome's ``cache_digest``
    is the union digest over all shards, directly comparable to a sharded
    run with ``collect_cache_content=True``.
    """
    shards: List[ShardResult] = []
    contents: List[Any] = []
    for index, spec in enumerate(specs):
        campaign = spec.build()
        try:
            outcome = campaign.run()
            cache = campaign.cache
            content = cache.content()
            shards.append(
                ShardResult(
                    index=index,
                    seed=spec.seed,
                    label=spec.label,
                    worker=0,
                    result=outcome.results[0],
                    rounds=outcome.rounds,
                    engine_calls=outcome.engine_calls,
                    eval_seconds=outcome.eval_seconds,
                    cache_hits=outcome.cache_hits,
                    cache_misses=outcome.cache_misses,
                    refit_rounds=outcome.refit_rounds,
                    batched_kernel_calls=outcome.batched_kernel_calls,
                    resumed_from_round=outcome.resumed_from_round,
                    cache_digest=cache.state_digest(),
                    wall_seconds=0.0,
                    cache_counters={
                        "preloaded_pairs": cache.preloaded_pairs,
                        "warm_hits": cache.warm_hits,
                        "cold_hits": cache.cold_hits,
                        "repaired_bytes": cache.repaired_bytes,
                    },
                    cache_content=content,
                )
            )
            contents.append(content)
        finally:
            campaign.close()
    return ShardRunOutcome(
        results=[shard.result for shard in shards],
        seeds=[shard.seed for shard in shards],
        shards=shards,
        workers=1,
        shard_map={index: 0 for index in range(len(shards))},
        per_worker=[
            {
                "worker": 0,
                "shards": len(shards),
                "wall_seconds": sum(shard.wall_seconds for shard in shards),
                "eval_seconds": sum(shard.eval_seconds for shard in shards),
            }
        ],
        rounds=sum(shard.rounds for shard in shards),
        engine_calls=sum(shard.engine_calls for shard in shards),
        eval_seconds=sum(shard.eval_seconds for shard in shards),
        cache_hits=sum(shard.cache_hits for shard in shards),
        cache_misses=sum(shard.cache_misses for shard in shards),
        refit_rounds=sum(shard.refit_rounds for shard in shards),
        batched_kernel_calls=sum(shard.batched_kernel_calls for shard in shards),
        cache_digest=union_state_digest(contents),
    )
