"""Sharded serving: partition, route, scatter-gather, persist.

* :class:`ShardedIndex` -- the serving router for N >= 1 shards (an
  unsharded :class:`repro.service.SimilarityIndex` serves through a
  1-shard one) with oracle-equal results/counters
  (:mod:`repro.shard.index`);
* placements -- ``length`` (Lemma 6 shard pruning) and ``hash``
  (uniform baseline) (:mod:`repro.shard.placement`);
* :class:`ShardedSnapshotStore` -- per-shard snapshots + one global
  WAL under the unsharded recovery contract (:mod:`repro.shard.store`).
"""

from repro.shard.index import ShardedIndex
from repro.shard.placement import PLACEMENTS, build_placement
from repro.shard.store import ShardedSnapshotStore, is_sharded_store

__all__ = [
    "PLACEMENTS",
    "ShardedIndex",
    "ShardedSnapshotStore",
    "build_placement",
    "is_sharded_store",
]
