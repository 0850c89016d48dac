"""The pooled path keeps the result cache's in-process semantics.

A multi-query request with ``processes > 1`` fans its cache misses out
over the shared pool, but the parent runs the cache's get/put sequence
in request order (a placeholder per miss, filled in place).  Hits,
misses, evictions and the cascade counters therefore equal in-process
serving even when the batch repeats queries and the cache is smaller
than the batch -- workers never keep a cache of their own.
"""

from __future__ import annotations

import pytest

from repro.data import evaluation_corpus
from repro.runtime import fork_is_default, shared_pool_size, shutdown_shared_pool
from repro.service import SimilarityIndex

pytestmark = [
    pytest.mark.tier1,
    pytest.mark.skipif(
        not fork_is_default(),
        reason="shared-pool tests need a fork-default platform",
    ),
]

NAMES, _ = evaluation_corpus(40, seed=53)
#: Four-query chunks at ``processes=2``; the second chunk repeats
#: queries the first one cached (hits only if the cache is shared), and
#: the 2-entry cache evicts between repeats.
QUERIES = [
    NAMES[0],
    NAMES[1],
    NAMES[0],
    NAMES[2][:-1] + "x",
    NAMES[2][:-1] + "x",
    NAMES[0],
    NAMES[3],
    NAMES[3],
]


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def test_small_cache_with_duplicates_matches_in_process():
    serial = SimilarityIndex(NAMES, cache_size=2)
    pooled = SimilarityIndex(NAMES, cache_size=2)
    try:
        assert pooled.topk(QUERIES, k=3, processes=2) == serial.topk(QUERIES, k=3)
        assert pooled.within(QUERIES, 0.2, processes=2) == serial.within(
            QUERIES, 0.2
        )
        assert pooled.counters == serial.counters
        # Same resident entries in the same LRU order, placeholders filled.
        assert pooled.result_cache.items() == serial.result_cache.items()
    finally:
        pooled.unpublish()


def test_multi_query_request_starts_the_pool():
    index = SimilarityIndex(NAMES)
    try:
        assert shared_pool_size() == 0
        index.topk(NAMES[:4], k=2, processes=2)
        assert shared_pool_size() > 0
    finally:
        index.unpublish()


def test_all_hits_batch_stays_in_process():
    """Only misses fan out: a batch the cache answers starts no pool."""
    index = SimilarityIndex(NAMES)
    index.topk(NAMES[:4], k=2)
    hits_before = index.counters["result_cache_hits"]
    assert index.topk(NAMES[:4], k=2, processes=2) == index.topk(NAMES[:4], k=2)
    assert shared_pool_size() == 0
    assert index.counters["result_cache_hits"] == hits_before + 8
