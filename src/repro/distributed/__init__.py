"""Sharded storage and distributed scatter-gather execution.

The in-tree distribution tier (ISSUE 10): triples hash-partition by
subject across N :class:`~repro.storage.vertical.VerticallyPartitionedStore`
shards sharing one dictionary (:mod:`repro.distributed.partition`,
:mod:`repro.distributed.store`); bound conjunctive queries compile into
per-shard fragments plus a deterministic merge — ``concat + distinct``
for one fragment, the generic join over fragment results for several
(:mod:`repro.distributed.fragments`); and a
:class:`~repro.distributed.engine.ShardedEngine` scatters fragments
over in-process engines or per-shard worker pools
(:mod:`repro.distributed.transport`) behind the ordinary Engine API, so
sessions, cursors, prepared statements and the HTTP front door serve a
sharded store unchanged — row-for-row identical to single-store
execution.
"""

from repro.distributed.engine import ShardedEngine
from repro.distributed.fragments import (
    FragmentPlan,
    compile_fragment_plan,
)
from repro.distributed.partition import shard_of, subject_hash
from repro.distributed.store import ShardedStore
from repro.distributed.transport import (
    LocalShardTransport,
    PooledShardTransport,
)

__all__ = [
    "FragmentPlan",
    "LocalShardTransport",
    "PooledShardTransport",
    "ShardedEngine",
    "ShardedStore",
    "compile_fragment_plan",
    "shard_of",
    "subject_hash",
]
