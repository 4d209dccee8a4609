"""The spawn pool the ``sharded16`` benchmark workload drives.

Splits a case's seeds into contiguous seed blocks, runs each block as one
multi-seed campaign — in the parent (worker 0) or in a spawned worker —
and merges the results back in the parent, per seed byte-identical to the
in-process multi-seed campaign.  Nothing else in the package runs shards;
the pool goes with that workload.  See :mod:`repro.shard.executor` for the
design and :mod:`repro.shard.parity` for the union cache digest that
verifies it.
"""

from repro.shard.executor import (
    ShardedExecutor,
    ShardResult,
    ShardRunOutcome,
    ShardSpec,
    ShardWorkerError,
)
from repro.shard.parity import union_state_digest

__all__ = [
    "ShardResult",
    "ShardRunOutcome",
    "ShardSpec",
    "ShardWorkerError",
    "ShardedExecutor",
    "union_state_digest",
]
