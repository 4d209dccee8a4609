"""The spawn pool the ``sharded16`` benchmark workload drives.

Runs (workload, seed) shards, each its own single-seed campaign, in
spawned worker processes, and merges their results back in the parent —
byte-identical per seed to the in-process oracle.  Nothing else in the
package runs shards; the pool goes with that workload.  See
:mod:`repro.shard.executor` for the design and :mod:`repro.shard.parity`
for the oracles that verify it.
"""

from repro.shard.executor import (
    ShardedExecutor,
    ShardResult,
    ShardRunOutcome,
    ShardSpec,
    ShardWorkerError,
)
from repro.shard.parity import run_sequential, union_state_digest

__all__ = [
    "ShardResult",
    "ShardRunOutcome",
    "ShardSpec",
    "ShardWorkerError",
    "ShardedExecutor",
    "run_sequential",
    "union_state_digest",
]
