"""The query-serving layer: resident indexes behind one serving API.

``repro.service`` turns the one-shot pipeline entry points into a
build-once/query-many system (see README.md "Query serving"):

* :class:`SimilarityIndex` -- a frozen, picklable snapshot of the
  tokenized collection, the interned :class:`repro.accel.Vocab` (with
  prebuilt Myers masks), the candidate-pipeline
  :class:`repro.candidates.PostingsIndex` and the Lemma 6 length
  partition, serving ``join`` / ``topk`` / ``within`` through a 1-shard
  :class:`repro.shard.ShardedIndex` router over itself, and growing by
  ``append``;
* :class:`LRUCache` -- the bounded result cache with hit/miss counters
  (also backing :class:`repro.knn.FuzzyMatchIndex`'s query cache);
* :mod:`repro.service.sharing` -- snapshot publication to the shared
  worker pool: fork copy-on-write with an explicit one-time broadcast
  on spawn platforms, so pooled serving never re-ships per-task state.
"""

from repro.service.cache import (
    COUNTER_CACHE_HITS,
    COUNTER_CACHE_MISSES,
    LRUCache,
)
from repro.service.index import SERVE_METHODS, SimilarityIndex

__all__ = [
    "COUNTER_CACHE_HITS",
    "COUNTER_CACHE_MISSES",
    "LRUCache",
    "SERVE_METHODS",
    "SimilarityIndex",
]
