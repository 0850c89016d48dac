"""The serving router: one corpus, N :class:`SimilarityIndex` shards.

:class:`ShardedIndex` is the **only serving algorithm** in the package.
It partitions a corpus across N :class:`repro.service.SimilarityIndex`
shards by a pluggable :mod:`placement <repro.shard.placement>` and
serves ``topk`` / ``within`` / ``join`` / ``append`` by routing each
request to the shards that can possibly answer it, running the shards'
cache-free ``_shard_*`` primitives there, and merging under the
canonical ``(distance, id)`` tie-break.  An unsharded
:class:`~repro.service.SimilarityIndex` serves through a 1-shard router
over itself (``ShardedIndex._over``) that shares its counters and
result cache, so the flat and sharded layouts run the same code.

The router is where the paper's Lemma 6 earns its second keep.  Under
the ``length`` placement each shard owns a contiguous aggregate-length
range, so a probe's qualifying window ``[floor((1-r)L), ceil(L/(1-r))]``
intersects only some shards -- the others are *pruned before any probe
runs* (counted in :attr:`routing` as ``shards_pruned``), the same move
the per-index length partition makes one level down and the
partition-based MapReduce joins the paper benchmarks make one level up.

**Shard-count invariance** is the correctness contract, property-tested
in ``tests/shard/``: for every serving method and any N, results,
cascade/cache counters and join reports are *equal to the single-index
oracle*.  The design choices that make that exact rather than
approximate:

* the router owns the result cache and all counters.  Shard primitives
  are cache-free and charge cascade tallies to the counters dict the
  router hands them, so the per-shard tallies add up in one place;
* the per-shard Lemma 6 windows partition the serial window, so
  candidates/pruned/verified tallies add up to the oracle's exactly --
  and a length-pruned shard would have contributed an empty window
  slice, making the skip counter-neutral;
* the top-k search (seeding from the merged overlap ranking, the radius
  schedule, the per-shard expansion memo) runs *globally* at the
  router, not as a merge of per-shard top-k answers;
* metric-tree results are canonicalized to ``(distance, id)`` per shard
  (see ``SimilarityIndex._shard_topk_knn``) because the trees'
  traversal-order tie-break cannot survive a shard merge;
* ``fuzzymatch`` scores depend on corpus-global token weights, so it is
  served from one router-held global index rather than sharded;
* the TSJ ``join`` runs over the global corpus through the existing
  engine (whose ``engine=`` fan-out already scatters the join itself):
  its signature partitioning is orthogonal to record placement.

**One pooled path.**  A multi-query request with ``processes > 1`` fans
its cache misses out in chunks over the shared
:mod:`runtime.pool <repro.runtime.pool>` against this router, published
once per version through :mod:`repro.service.sharing`.  The parent still
runs the result cache's get/put sequence in request order, putting a
placeholder on each miss and filling it in place afterwards, so hits,
misses and evictions equal in-process serving; the workers return their
counter and routing tallies, which are merged back.

Routing observability (``shards_probed`` / ``shards_pruned`` /
``shards_total``) lives in the separate :attr:`routing` dict -- by
construction it must NOT perturb :attr:`counters`, which equal the
oracle's.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.candidates import COUNTER_CANDIDATES, COUNTER_VERIFIED, new_counters
from repro.faults import fault_point
from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES, LRUCache
from repro.service.index import SERVE_METHODS, SimilarityIndex
from repro.service.sharing import Publishable, resolve_snapshot
from repro.shard.placement import HashPlacement, build_placement
from repro.tokenize import TokenizedString, Tokenizer

__all__ = ["ShardedIndex"]

#: Upper bound on token-postings seeds fully verified per top-k query
#: (as a multiple of ``k``, floored at ``_MIN_SEED_CAP``).  Seeding only
#: tightens the initial search radius; capping it never loses results.
_SEED_FACTOR = 4
_MIN_SEED_CAP = 32

_MISS = object()


def _new_routing() -> dict[str, int]:
    return {"shards_probed": 0, "shards_pruned": 0}


def _merge(into: dict[str, int], delta: dict[str, int]) -> None:
    for name, value in delta.items():
        if value:
            into[name] = into.get(name, 0) + value


def _answer_chunk(payload):
    """Pool-worker entry point: answer one chunk of cache-missed queries.

    ``payload`` is ``(publish_token, operation, queries, param,
    method)``; the worker resolves its copy of the published router and
    returns the per-query answers plus the counter and routing tallies
    the chunk charged (fresh dicts, so an in-process re-run of the chunk
    after pool breakage never double counts).
    """
    token, operation, queries, param, method = payload
    fault_point("serve.chunk")
    router = resolve_snapshot(token)
    counters = new_counters()
    routing = _new_routing()
    answers = [
        router._answer(operation, query, param, method, counters, routing)
        for query in queries
    ]
    return answers, counters, routing


class ShardedIndex(Publishable):
    """N-shard scatter-gather serving with the single-index surface.

    Parameters
    ----------
    names:
        The corpus; tokenized once, here, and the records handed to the
        owning shards.
    n_shards:
        Number of :class:`SimilarityIndex` partitions.
    placement:
        ``"length"`` (Lemma 6 shard pruning; the default) or ``"hash"``
        (uniform baseline) -- see :mod:`repro.shard.placement`.
        Placement affects balance and pruning only, never results.
    tokenizer / backend / cache_size:
        As :class:`SimilarityIndex`.  ``cache_size`` bounds the
        *router's* LRU; shards run cache-free.

    Examples
    --------
    >>> index = ShardedIndex(
    ...     ["barak obama", "borak obama", "john smith"], n_shards=2
    ... )
    >>> index.topk(["barak obana"], k=2)[0][0]
    ('barak obama', 0.09523809523809523)
    """

    def __init__(
        self,
        names: Sequence[str] = (),
        n_shards: int = 2,
        placement: str = "length",
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.backend = backend
        names = list(names)
        records = [self.tokenizer.tokenize(name) for name in names]
        built = build_placement(
            placement,
            n_shards,
            [record.aggregate_length for record in records],
        )
        shards = [
            SimilarityIndex(tokenizer=self.tokenizer, backend=backend, cache_size=0)
            for _ in range(built.n_shards)
        ]
        self._init_router_state(shards, built, LRUCache(cache_size), None)
        self._place(names, records)

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[SimilarityIndex],
        placement,
        shard_ids: Sequence[Sequence[int]],
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> "ShardedIndex":
        """Assemble a router over already-built shards (the store's path).

        ``shard_ids[i]`` lists shard ``i``'s global record ids in local
        order; the global views are rebuilt from the shards' own
        records, so nothing is re-tokenized.
        """
        return cls._assemble(
            shards, placement, shard_ids, tokenizer, backend, LRUCache(cache_size)
        )

    @classmethod
    def _over(cls, index: SimilarityIndex) -> "ShardedIndex":
        """The 1-shard router an unsharded index serves through.

        It shares ``index``'s :attr:`counters` dict and result cache, so
        serving through it counts and caches exactly once, on ``index``.
        """
        return cls._assemble(
            [index],
            HashPlacement(1),
            [range(len(index))],
            index.tokenizer,
            index.backend,
            index.result_cache,
            index.counters,
        )

    @classmethod
    def _assemble(
        cls, shards, placement, shard_ids, tokenizer, backend, cache, counters=None
    ) -> "ShardedIndex":
        index = cls.__new__(cls)
        index.tokenizer = tokenizer or Tokenizer()
        index.backend = backend
        index._init_router_state(list(shards), placement, cache, counters)
        total = sum(len(shard) for shard in shards)
        index._names = [None] * total
        index._records = [None] * total
        index._locations = [None] * total
        for shard_index, (shard, globals_) in enumerate(zip(shards, shard_ids)):
            index._shard_ids[shard_index] = list(globals_)
            for local_id, global_id in enumerate(globals_):
                index._names[global_id] = shard.names[local_id]
                index._records[global_id] = shard.records[local_id]
                index._locations[global_id] = (shard_index, local_id)
        return index

    def _init_router_state(self, shards, placement, cache, counters) -> None:
        self.shards: list[SimilarityIndex] = shards
        self.placement = placement
        self._names: list[str] = []
        self._records: list = []
        #: global id -> ``(shard index, local id)``.
        self._locations: list[tuple[int, int]] = []
        #: shard index -> its global ids in local order (ascending).
        self._shard_ids: list[list[int]] = [[] for _ in shards]
        self._cache = cache
        if counters is None:
            counters = new_counters()
            counters[COUNTER_CACHE_HITS] = 0
            counters[COUNTER_CACHE_MISSES] = 0
        #: Oracle-equal serving counters (cascade + router cache).
        self.counters: dict[str, int] = counters
        #: Routing bookkeeping, deliberately *outside* :attr:`counters`:
        #: per cascade ``within`` pass, every shard is tallied probed or
        #: pruned (Lemma 6 window vs. the shard's actual length range).
        self.routing = {"shards_total": len(shards), **_new_routing()}
        #: The corpus-global fuzzymatch index (lazy; see module docs).
        self._global_knn: dict[str, object] = {}
        self._init_publication()

    def _place(self, names: Sequence[str], records: Sequence[TokenizedString]) -> None:
        """Route new records to their owners, preserving global order;
        the shards index the router's records, never re-tokenizing."""
        batches: dict[int, tuple[list, list]] = {}
        for name, record in zip(names, records):
            global_id = len(self._records)
            shard_index = self.placement.shard_of(
                global_id, record.aggregate_length
            )
            shard_globals = self._shard_ids[shard_index]
            self._locations.append((shard_index, len(shard_globals)))
            shard_globals.append(global_id)
            self._names.append(name)
            self._records.append(record)
            batch_names, batch_records = batches.setdefault(shard_index, ([], []))
            batch_names.append(name)
            batch_records.append(record)
        for shard_index, (batch_names, batch_records) in batches.items():
            self.shards[shard_index]._extend(batch_names, batch_records)

    # -- collection surface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def names(self) -> list[str]:
        """The indexed raw names in global insertion order (do not mutate)."""
        return self._names

    @property
    def records(self) -> list:
        """The tokenized corpus, aligned with :attr:`names`."""
        return self._records

    @property
    def result_cache(self) -> LRUCache:
        """The router's bounded LRU result cache."""
        return self._cache

    def append(self, names: Sequence[str], base: int | None = None) -> None:
        """Append routed to the owning shards; same idempotency contract
        as :meth:`SimilarityIndex.append` (``base`` names the global
        record count the caller saw; exact replays are no-ops)."""
        if base is not None and self._check_append_base(names, base):
            return
        names = list(names)
        self._place(names, [self.tokenizer.tokenize(name) for name in names])
        if names:
            self._cache.clear()
            self._global_knn.clear()
            self.unpublish()  # the next pooled serve re-publishes

    # Same records/names shape as SimilarityIndex, so the replay check is
    # shared verbatim rather than re-stated.
    _check_append_base = SimilarityIndex._check_append_base

    def stats(self) -> dict[str, int]:
        """Aggregate size snapshot plus router-level cache size."""
        totals = {
            "records": len(self._records),
            "distinct_tokens": 0,
            "token_postings": 0,
            "cached_results": len(self._cache),
        }
        for shard in self.shards:
            shard_stats = shard.stats()
            totals["distinct_tokens"] += shard_stats["distinct_tokens"]
            totals["token_postings"] += shard_stats["token_postings"]
        return totals

    def shard_status(self) -> dict:
        """The health/metrics shard block: layout, sizes, routing tallies."""
        return {
            "shards": len(self.shards),
            "placement": self.placement.to_manifest(),
            "sizes": [len(shard) for shard in self.shards],
            "routing": dict(self.routing),
        }

    def prepare(self, *methods: str) -> "ShardedIndex":
        """Eagerly build serving backends on every shard (and the global
        fuzzymatch index); returns ``self`` for chaining."""
        from repro.api.registry import validate_choice

        for method in methods:
            validate_choice("serving method", method, SERVE_METHODS)
            if method == "fuzzymatch":
                self._fuzzy_index()
            elif method != "cascade":
                for shard in self.shards:
                    if len(shard):
                        shard._knn_index(method)
        return self

    # -- serving -----------------------------------------------------------------

    def topk(
        self,
        queries: Sequence[str] | str,
        k: int = 5,
        method: str = "cascade",
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """As :meth:`SimilarityIndex.topk`, scatter-gathered.

        ``processes > 1`` fans a multi-query batch's cache misses out
        over the shared pool (see :meth:`_serve`); results and counters
        equal in-process serving.
        """
        if k < 1:
            raise ValueError("k must be positive")
        return self._serve("topk", queries, k, method, processes)

    def within(
        self,
        queries: Sequence[str] | str,
        radius: float,
        method: str = "cascade",
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """As :meth:`SimilarityIndex.within`, scatter-gathered with
        Lemma 6 shard pruning on the cascade path."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if method == "fuzzymatch":
            raise ValueError("within() is not defined for the fuzzymatch method")
        return self._serve("within", queries, radius, method, processes)

    def join(
        self,
        threshold: float = 0.1,
        max_token_frequency: int | None = 1000,
        n_machines: int = 10,
        engine: str = "auto",
        **config_overrides,
    ):
        """TSJ self-join of the global corpus, byte-identical to
        :func:`repro.core.nsld_join` (see :meth:`SimilarityIndex.join`;
        the report is cached under the same key).  The join's signature
        partitioning is orthogonal to record placement, so it runs over
        the global record list and scatters through the existing TSJ
        ``engine`` fan-out rather than per shard.
        """
        key = (
            "join",
            threshold,
            max_token_frequency,
            n_machines,
            tuple(sorted(config_overrides.items())),
        )
        report = self._lookup(key)
        if report is _MISS:
            from repro.core.api import join_records

            report = join_records(
                self._names,
                self._records,
                threshold=threshold,
                max_token_frequency=max_token_frequency,
                n_machines=n_machines,
                engine=engine,
                **config_overrides,
            )
            self._cache.put(key, report)
        return report

    def _lookup(self, key):
        """The cached value (recency refreshed) or ``_MISS``, counted."""
        value = self._cache.get(key, _MISS)
        name = COUNTER_CACHE_MISSES if value is _MISS else COUNTER_CACHE_HITS
        self.counters[name] += 1
        return value

    def _serve(self, operation, queries, param, method, processes):
        """Answer a batch: the cache sequence, then the misses.

        The get/put sequence runs in request order with an empty-list
        placeholder put on each miss, so hits, misses and evictions are
        exactly those of answering one query at a time -- duplicates
        within the batch hit the earlier placeholder.  The misses are
        then answered in process, or, for ``processes > 1`` and more than
        one miss, in chunks on the shared pool; each placeholder is
        filled in place, which leaves LRU recency untouched.
        """
        from repro.api.registry import validate_choice

        validate_choice("serving method", method, SERVE_METHODS)
        if isinstance(queries, str):
            queries = [queries]
        answers: list[list] = []
        misses: list[tuple[str, list]] = []
        for query in queries:
            key = (operation, method, query, param)
            answer = self._lookup(key)
            if answer is _MISS:
                answer = []
                self._cache.put(key, answer)
                misses.append((query, answer))
            answers.append(answer)
        pending = [query for query, _ in misses]
        try:
            if processes and processes > 1 and len(pending) > 1:
                results = self._answer_pooled(
                    operation, pending, param, method, processes
                )
            else:
                counters, routing = self.counters, self.routing
                results = [
                    self._answer(operation, query, param, method, counters, routing)
                    for query in pending
                ]
        except BaseException:
            # Unfilled placeholders must never answer a later request.
            self._cache.clear()
            raise
        for (_, answer), result in zip(misses, results):
            answer.extend(result)
        return [list(answer) for answer in answers]

    def _answer_pooled(self, operation, queries, param, method, processes):
        """Answer ``queries`` in chunks on the shared pool against this
        router's publication, merging the chunks' tallies back."""
        from repro.runtime.pool import resilient_pool_map

        token = self.ensure_published()
        workers = min(processes, len(queries))
        size = -(-len(queries) // workers)
        chunks = [
            (token, operation, queries[start : start + size], param, method)
            for start in range(0, len(queries), size)
        ]
        # The registry also holds the router in the parent, so
        # resilient_pool_map's in-process paths (inside a worker, or
        # degraded after repeated pool breakage) resolve the token and
        # answer the identical chunks.
        answers: list[list] = []
        for chunk_answers, counters, routing in resilient_pool_map(
            _answer_chunk, chunks, workers, label="serve chunks"
        ):
            _merge(self.counters, counters)
            _merge(self.routing, routing)
            answers.extend(chunk_answers)
        return answers

    # -- one query, uncached -------------------------------------------------------

    def _answer(
        self,
        operation: str,
        query: str,
        param,
        method: str,
        counters: dict[str, int],
        routing: dict[str, int],
    ) -> list[tuple[str, float]]:
        """One query's answer, charging ``counters`` / ``routing``."""
        record = self.tokenizer.tokenize(query)
        if method == "fuzzymatch":  # topk only; within rejects it
            return [
                (" ".join(tokens), score)
                for tokens, score in self._fuzzy_index().query(
                    list(record.tokens), k=param
                )
            ]
        if method == "cascade" and operation == "topk":
            hits = self._cascade_topk(record, param, counters, routing)
        elif method == "cascade":
            hits = self._within_global(record, param, None, counters, routing)
        elif operation == "topk":
            hits = self._gather(
                self._nonempty(),
                lambda index, shard: shard._shard_topk_knn(record, param, method),
            )[:param]
        else:
            hits = self._gather(
                self._nonempty(),
                lambda index, shard: shard._shard_within_knn(record, param, method),
            )
        names = self._names
        return [(names[global_id], distance) for global_id, distance in hits]

    def _nonempty(self) -> list[int]:
        return [index for index, shard in enumerate(self.shards) if len(shard)]

    def _gather(self, shard_indexes, call) -> list[tuple[int, float]]:
        """Run ``call(index, shard)`` -- local ``(id, distance)`` hits --
        on each listed shard; merge under ``(distance, global id)``."""
        merged: list[tuple[float, int]] = []
        for index in shard_indexes:
            globals_ = self._shard_ids[index]
            merged.extend(
                (distance, globals_[local])
                for local, distance in call(index, self.shards[index])
            )
        merged.sort()
        return [(global_id, distance) for distance, global_id in merged]

    def _plan_within(
        self, aggregate_length: int, radius: float, routing: dict[str, int]
    ) -> list[int]:
        """Shard indexes whose length range intersects the Lemma 6 window.

        The pruning decision uses each shard's *actual* held range, not
        the placement's nominal boundaries, so correctness is placement-
        independent; a pruned shard's window slice would have been empty,
        making the skip invisible to :attr:`counters`.  Every shard is
        tallied probed or pruned in ``routing`` per pass.
        """
        if radius >= 1.0:
            low, high = None, None
        else:
            low = math.floor((1.0 - radius) * aggregate_length)
            high = math.ceil(aggregate_length / (1.0 - radius))
        probed: list[int] = []
        for index, shard in enumerate(self.shards):
            held = shard.length_range()
            if held is not None and (
                low is None or (held[1] >= low and held[0] <= high)
            ):
                probed.append(index)
                routing["shards_probed"] += 1
            else:
                routing["shards_pruned"] += 1
        return probed

    def _within_global(
        self,
        record: TokenizedString,
        radius: float,
        memos: list[dict[int, float]] | None,
        counters: dict[str, int],
        routing: dict[str, int],
    ) -> list[tuple[int, float]]:
        """One global ``within`` pass: plan, probe, merge.

        Returns global ``(record id, distance)`` hits under the oracle's
        ``(distance, id)`` order.  ``memos`` (the top-k expansion memo)
        holds one local-id memo per shard, which the probed shards read
        and extend in place.
        """
        return self._gather(
            self._plan_within(record.aggregate_length, radius, routing),
            lambda index, shard: shard._shard_within(
                record, radius, None if memos is None else memos[index], counters
            ),
        )

    def _cascade_topk(
        self,
        record: TokenizedString,
        k: int,
        counters: dict[str, int],
        routing: dict[str, int],
    ) -> list[tuple[int, float]]:
        """The top-k search: seed, then expand a complete ``within``.

        Seeds -- the records sharing the most distinct query tokens,
        ranked by ``(-overlap, global id)`` and capped -- are verified
        exactly to learn an initial radius (the k-th seed distance); one
        complete ``within`` pass at that radius then holds the answer,
        doubling the radius while it holds fewer than ``k``.  Every exact
        distance lands in the owning shard's memo, so an expansion pass
        never re-verifies.
        """
        k_effective = min(k, len(self._records))
        if k_effective == 0:
            return []
        overlap: dict[int, int] = {}
        for index in self._nonempty():
            globals_ = self._shard_ids[index]
            for local, count in self.shards[index]._shard_overlap(record).items():
                overlap[globals_[local]] = count
        cap = max(_MIN_SEED_CAP, _SEED_FACTOR * k_effective)
        ranked = sorted(overlap.items(), key=lambda item: (-item[1], item[0]))[:cap]
        by_shard: dict[int, list[int]] = {}
        locations = self._locations
        for global_id, _ in ranked:
            shard_index, local_id = locations[global_id]
            by_shard.setdefault(shard_index, []).append(local_id)
        memos: list[dict[int, float]] = [{} for _ in self.shards]
        for shard_index, local_ids in by_shard.items():
            memos[shard_index].update(
                self.shards[shard_index]._shard_verify(record, local_ids)
            )
        # Seeds are candidates verified outright (no filter ran).
        counters[COUNTER_CANDIDATES] += len(ranked)
        counters[COUNTER_VERIFIED] += len(ranked)
        if len(ranked) >= k_effective:
            seeds = sorted(distance for memo in memos for distance in memo.values())
            radius = seeds[k_effective - 1]
        else:
            radius = 0.25
        while True:
            hits = self._within_global(record, radius, memos, counters, routing)
            if len(hits) >= k_effective or radius >= 1.0:
                break
            radius = min(1.0, radius * 2.0)
        return hits[:k_effective]

    def _fuzzy_index(self):
        built = self._global_knn.get("fuzzymatch")
        if built is None:
            from repro.knn import FuzzyMatchIndex

            built = FuzzyMatchIndex(
                [list(record.tokens) for record in self._records]
            )
            self._global_knn["fuzzymatch"] = built
        return built
