"""The resident :class:`SimilarityIndex`: build once, query many.

Every pre-existing entry point -- :func:`repro.core.nsld_join`, the CLI
``knn``/``join`` commands, :class:`repro.knn.FuzzyMatchIndex` -- paid
full index construction per call: tokenize the collection, intern the
tokens, precompute the Myers ``Peq`` masks, build the postings, then
answer exactly one request and throw everything away.  A serving system
does the opposite: construction is rare, queries are endless.

:class:`SimilarityIndex` snapshots the expensive state exactly once:

* the tokenized collection and its raw names;
* a private :class:`repro.accel.Vocab` with every collection token
  interned and its Myers match table prebuilt;
* a candidate-pipeline :class:`repro.candidates.PostingsIndex` from
  interned token ids to record ids (the shared-token probe index);
* the aggregate-length order and encoded token-length histograms that
  drive the Lemma 6 / Sec. III-E.2 filters.

It owns the snapshot's construction and growth (:meth:`append` extends
the interners, postings and length order in place, no rebuild), the
bounded LRU result cache and the canonical counters, pickling and pool
publication -- and the cache-free ``_shard_*`` primitives every query
runs on:

* ``_shard_within`` -- one probe pass: Lemma 6 length window (complete
  by construction), the shared :class:`repro.candidates.FilterCascade`
  with the canonical counters and a histogram lower-bound prune, then
  exact verification through the snapshot vocab (single-token records
  go through the batched :func:`repro.candidates.verify_nld_pairs` fast
  path).  Under the ``vector`` backend only the filter arithmetic
  changes -- masked numpy arrays, one histogram bound per distinct
  histogram -- with identical results and counter totals;
* ``_shard_overlap`` / ``_shard_verify`` -- the top-k seeding pieces;
* ``_shard_topk_knn`` / ``_shard_within_knn`` -- the metric-space
  backends (:class:`repro.knn.VPTree`, :class:`repro.knn.BKTree`),
  built lazily over the same snapshot.

There is **one serving algorithm**: the public :meth:`topk`,
:meth:`within` and :meth:`join` delegate to a lazily built 1-shard
:class:`repro.shard.ShardedIndex` router over ``self``, which shares
this index's :attr:`counters` and :attr:`result_cache` (so nothing is
counted twice) and owns the top-k search, the result-cache sequence and
the pooled fan-out.  The router is derived state: dropped on
:meth:`append`, never pickled.

Correctness contract (property-tested in ``tests/service/``):
``topk``/``within`` agree exactly with the brute-force NSLD oracle,
``join`` is byte-identical to :func:`repro.core.nsld_join`, ``append`` +
query equals rebuild + query, and pool-served results and counters are
identical to in-process serving.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Sequence

from repro.accel import Vocab, resolve_backend
from repro.accel.vector import numpy_or_none
from repro.candidates import (
    COUNTER_CANDIDATES,
    COUNTER_PRUNED_COUNT,
    COUNTER_PRUNED_LENGTH,
    COUNTER_VERIFIED,
    FilterCascade,
    HistogramBoundFilter,
    PostingsIndex,
    encode_histogram,
    new_counters,
    verify_nld_pairs,
)
from repro.distances.setwise import nsld, nsld_length_lower_bound, sld
from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES, LRUCache
from repro.service.sharing import Publishable
from repro.tokenize import TokenizedString, Tokenizer

#: Serving methods: the cascade probe path plus the metric-space indexes.
SERVE_METHODS = ("cascade", "vptree", "bktree", "fuzzymatch")


class SimilarityIndex(Publishable):
    """A frozen, resident NSLD index over a collection of raw names.

    Parameters
    ----------
    names:
        The collection to index (raw strings; tokenized once, here).
    tokenizer:
        Defaults to whitespace+punctuation with case folding -- the same
        default as :func:`repro.core.nsld_join`, so :meth:`join` results
        are byte-identical.
    backend:
        Edit-distance kernel for verification (``"auto" | "dp" |
        "bitparallel" | "vector"``; values are backend-invariant).
        Under ``vector`` (what ``auto`` resolves to when numpy is
        importable) the probe swaps the per-candidate filter loop for
        array masks -- same results, same counters.
    cache_size:
        Capacity of the LRU result cache (0 disables result caching).

    Notes
    -----
    The result cache is bounded; the *interning* tables are not, by
    design (the same trade as :func:`repro.accel.token_vocab`): the
    snapshot vocab grows with every distinct token seen -- including
    novel *query* tokens, whose masks and memoized distances are what
    make repeated probes cheap -- and the probe filter's bound memo
    grows with distinct histogram pairs.  A deployment streaming an
    unbounded adversarial query vocabulary should rebuild the index at
    run boundaries (``SimilarityIndex(index.names)``), exactly as
    :func:`repro.accel.reset_token_vocab` is the documented valve for
    the process-wide vocab.

    Examples
    --------
    >>> index = SimilarityIndex(["barak obama", "borak obama", "john smith"])
    >>> index.topk(["barak obana"], k=2)[0][0]
    ('barak obama', 0.09523809523809523)
    >>> [name for name, _ in index.within(["john smith"], radius=0.1)[0]]
    ['john smith']
    """

    def __init__(
        self,
        names: Sequence[str] = (),
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.backend = backend
        self._names: list[str] = []
        self._records: list[TokenizedString] = []
        self._vocab = Vocab()
        #: Interned token id -> record ids containing it.
        self._token_postings = PostingsIndex()
        #: ``(aggregate_length, record_id)`` in ascending order -- the
        #: Lemma 6 length partition probed by binary search.
        self._lengths: list[tuple[int, int]] = []
        self._histograms: list[tuple[tuple[int, int], ...]] = []
        self._cache = LRUCache(cache_size)
        #: Canonical cascade + result-cache counters (cumulative).
        self.counters: dict[str, int] = new_counters()
        self.counters[COUNTER_CACHE_HITS] = 0
        self.counters[COUNTER_CACHE_MISSES] = 0
        #: The probe paths' histogram bound filter.  Lemma 10 needs the
        #: complete similar-token-pair set, which a probe never has;
        #: without it (``use_lemma10=False``) the filter's per-token
        #: charges (length differences, pad costs) are unconditionally
        #: sound *and* threshold-independent, so one shared instance --
        #: and one warm memo -- serves every radius (the threshold field
        #: is unused on this path).
        self._probe_filter = HistogramBoundFilter(0.0, use_lemma10=False)
        #: Lazily built probe arrays for the ``vector`` backend's
        #: array filters (see :meth:`_arrays`); derived state,
        #: invalidated on append and rebuilt per process.
        self._probe_arrays: tuple | None = None
        #: Lazily built metric-space serving backends (not pickled).
        self._knn: dict[str, object] = {}
        #: The 1-shard serving router over ``self`` (derived, not pickled).
        self._router = None
        self._init_publication()
        if names:
            self.append(names)

    # -- snapshot construction / growth ---------------------------------------

    def append(self, names: Sequence[str], base: int | None = None) -> None:
        """Extend the collection in place -- no rebuild.

        New records extend the vocab interner (masks prebuilt), the token
        postings and the length order incrementally; querying an appended
        index returns exactly what a fresh build over the full collection
        would (property-tested).  Cached results, lazily built
        metric-space backends and the serving router are invalidated,
        and a pool-published snapshot is re-published on its next pooled
        serve.

        ``base`` makes the append **idempotent** under at-least-once
        delivery (the retrying ``/v1/append`` path): it names how many
        records the caller believes the index held before this append.
        ``base == len(self)`` appends normally; ``base < len(self)``
        with ``names`` matching the already-indexed slice exactly is a
        replay of an acknowledged append and becomes a no-op; anything
        else -- a mismatching replay or a ``base`` past the end -- is a
        lost-update conflict and raises
        :class:`~repro.api.errors.ValidationError`.
        """
        if base is not None and self._check_append_base(names, base):
            return
        names = list(names)
        self._extend(names, [self.tokenizer.tokenize(name) for name in names])

    def _extend(self, names: Sequence[str], records: Sequence[TokenizedString]) -> None:
        """Index already-tokenized records (the shard router's build path:
        it tokenizes once for placement and hands the records over)."""
        for name, record in zip(names, records):
            record_id = len(self._records)
            self._names.append(name)
            self._records.append(record)
            token_ids = self._vocab.intern_all(record.tokens)
            for token_id in set(token_ids):
                self._token_postings.add(token_id, record_id)
                self._vocab.masks(token_id)  # snapshot the Peq table now
            self._lengths.append((record.aggregate_length, record_id))
            self._histograms.append(encode_histogram(record.length_histogram))
        if names:
            # One sort per append call, not one insort per record (which
            # is O(n) element moves each -- quadratic for large builds).
            self._lengths.sort()
            self._cache.clear()
            self._knn.clear()
            self._probe_arrays = None
            self.unpublish()  # the next pooled serve re-publishes
            self._router = None

    def _check_append_base(self, names: Sequence[str], base: int) -> bool:
        """Validate an append's ``base`` offset; True when it is a replay.

        A replay is an exact duplicate of records ``base ..
        base+len(names)`` already in the collection -- the shape a
        retried-but-already-acknowledged append produces.
        """
        from repro.api.errors import ValidationError

        held = len(self._records)
        if base == held:
            return False
        if base > held:
            raise ValidationError(
                f"append base {base} is past the end: the index holds "
                f"{held} records (acknowledged data was lost?)"
            )
        replay = list(names)
        if self._names[base : base + len(replay)] == replay and base + len(
            replay
        ) <= held:
            return True
        raise ValidationError(
            f"append at base {base} conflicts with the {held}-record "
            "index: the replayed names do not match what is already "
            "indexed there"
        )

    def __len__(self) -> int:
        return len(self._records)

    @property
    def names(self) -> list[str]:
        """The indexed raw names, in insertion order (do not mutate)."""
        return self._names

    @property
    def records(self) -> list[TokenizedString]:
        """The tokenized collection, aligned with :attr:`names`."""
        return self._records

    @property
    def vocab(self) -> Vocab:
        """The snapshot's token interner (exposed for instrumentation)."""
        return self._vocab

    @property
    def token_postings(self) -> PostingsIndex:
        """The shared-token probe index (interned token id -> record ids)."""
        return self._token_postings

    @property
    def result_cache(self) -> LRUCache:
        """The bounded LRU result cache (exposed for instrumentation).

        The cache object's own hit/miss counters are process-local;
        :attr:`counters` is the aggregated view, which pooled serving
        extends with the workers' deltas.
        """
        return self._cache

    def length_range(self) -> tuple[int, int] | None:
        """The (min, max) aggregate token length held, ``None`` when empty.

        The shard router's pruning signal: a Lemma 6 window disjoint
        from this range cannot contain a qualifying record, so the whole
        index can be skipped without touching a counter.
        """
        if not self._lengths:
            return None
        return self._lengths[0][0], self._lengths[-1][0]

    def stats(self) -> dict[str, int]:
        """Size snapshot: records, distinct tokens, postings, cached results."""
        return {
            "records": len(self._records),
            "distinct_tokens": len(self._vocab),
            "token_postings": self._token_postings.total_postings,
            "cached_results": len(self._cache),
        }

    def prepare(self, *methods: str) -> "SimilarityIndex":
        """Eagerly build serving backends (otherwise built lazily on first
        use), so callers can separate build time from query time; returns
        ``self`` for chaining.  ``"cascade"`` needs no extra build."""
        self._routed().prepare(*methods)
        return self

    # -- pickling / pool publication ------------------------------------------

    def __getstate__(self) -> dict:
        # Metric-space backends hold metric closures (unpicklable) and
        # rebuild lazily per process; the probe arrays and the router
        # are derived.
        state = super().__getstate__()
        state["_knn"] = {}
        state["_probe_arrays"] = None
        state["_router"] = None
        return state

    def unpublish(self) -> None:
        """Withdraw this snapshot -- and its serving router's -- from the
        shared pool (see :meth:`Publishable.unpublish`)."""
        super().unpublish()
        if self._router is not None:
            self._router.unpublish()

    # -- serving: the 1-shard router -------------------------------------------

    def _routed(self):
        """The serving router over ``self``, built on first use."""
        if self._router is None:
            from repro.shard.index import ShardedIndex

            self._router = ShardedIndex._over(self)
        return self._router

    def join(
        self,
        threshold: float = 0.1,
        max_token_frequency: int | None = 1000,
        n_machines: int = 10,
        engine: str = "auto",
        **config_overrides,
    ):
        """TSJ self-join of the collection; byte-identical to ``nsld_join``.

        Tokenization is amortized into the snapshot and the resulting
        :class:`repro.core.JoinReport` -- same pairs, same clusters, same
        counters, same simulated seconds as
        ``nsld_join(index.names, ...)`` -- is cached in the LRU, so a
        repeated join costs a dict probe.  ``engine`` is excluded from
        the cache key on purpose: results and simulated seconds are
        engine-invariant by construction, so a serial-run cache entry
        answers a parallel request too.  Treat returned reports as
        read-only (cache hits return the same object).
        """
        return self._routed().join(
            threshold, max_token_frequency, n_machines, engine, **config_overrides
        )

    def topk(
        self,
        queries: Sequence[str] | str,
        k: int = 5,
        method: str = "cascade",
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """The ``k`` best matches per query, one result list per query.

        ``method`` selects the serving backend and its native score:

        * ``"cascade"`` (default) -- exact NSLD through the candidate
          pipeline; equals the brute-force oracle, ascending distance
          (ties broken by record id);
        * ``"vptree"`` -- exact NSLD via the vantage-point tree;
        * ``"bktree"`` -- exact **SLD** (integer) via the BK-tree;
        * ``"fuzzymatch"`` -- **FMS similarity, descending** via the
          FuzzyMatch index (results are token-joined strings).

        ``processes > 1`` fans a multi-query batch out over the shared
        worker pool against the published router (results and counters
        identical, see :meth:`repro.shard.ShardedIndex.topk`).
        """
        return self._routed().topk(queries, k, method, processes)

    def within(
        self,
        queries: Sequence[str] | str,
        radius: float,
        method: str = "cascade",
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """All matches within ``radius`` per query (ascending distance).

        ``radius`` is interpreted in the serving method's native metric
        (NSLD for ``cascade``/``vptree``, SLD for ``bktree``);
        ``fuzzymatch`` has no range semantics and is rejected.
        """
        return self._routed().within(queries, radius, method, processes)

    # -- shard primitives ---------------------------------------------------------
    #
    # The router runs every serving algorithm (seeding, radius expansion,
    # caching, metering) and calls these per shard.  They are cache-free,
    # speak local record ids, take the router's tokenized query, and
    # charge cascade counters only to the ``counters`` dict they are
    # handed -- never to :attr:`counters` -- so a router sharing this
    # index's counters never counts twice.

    def _shard_overlap(self, record: TokenizedString) -> dict[int, int]:
        """Distinct-query-token overlap per local record id (no counters);
        the router merges these into the global seed ranking."""
        token_ids = self._vocab.intern_all(record.tokens)
        lookup = self._token_postings.lookup_ref()
        postings = self._token_postings.postings
        overlap: Counter = Counter()
        for token_id in set(token_ids):
            signature_id = lookup(token_id)
            if signature_id is not None:
                overlap.update(postings[signature_id])
        return overlap

    def _shard_verify(
        self, record: TokenizedString, record_ids: Sequence[int]
    ) -> list[tuple[int, float]]:
        """Exact NSLD to each listed local record (no counter bumps --
        the router charges the canonical seed counters itself)."""
        return [
            (record_id, self._nsld_to(record, record_id))
            for record_id in record_ids
        ]

    def _shard_within(
        self,
        record: TokenizedString,
        radius: float,
        known: dict[int, float] | None,
        counters: dict[str, int],
    ) -> list[tuple[int, float]]:
        """All local record ids within NSLD ``radius`` of ``record``.

        Complete by construction: Lemma 6 makes the aggregate-length
        window a superset of every qualifying record, the filters only
        prune on sound lower bounds, and survivors are verified exactly.
        Returns ``(record_id, distance)`` sorted by ``(distance,
        record_id)`` -- the oracle tie-break.

        ``known`` is a read/write memo of exact distances: entries are
        trusted instead of re-verified (and never charged as
        candidates), and every exact distance this pass computes is
        written back, so the top-k expansion loop never re-verifies a
        previous, smaller window.  The scalar and ``vector`` probes share
        this whole skeleton; only the filter arithmetic differs
        (:meth:`_admit_scalar` / :meth:`_admit_vector`).
        """
        vector = resolve_backend(self.backend) == "vector"
        lengths = self._lengths
        if radius >= 1.0:
            start, stop = 0, len(lengths)
        else:
            query_length = record.aggregate_length
            low = math.floor((1.0 - radius) * query_length)
            high = math.ceil(query_length / (1.0 - radius))
            start = bisect_left(lengths, (low, -1))
            stop = bisect_right(lengths, (high, len(lengths)))
        if vector:
            window = self._arrays()[0][start:stop]
        else:
            window = [record_id for _, record_id in lengths[start:stop]]

        results: list[tuple[float, int]] = []
        if known:
            fresh = []
            for record_id in window.tolist() if vector else window:
                distance = known.get(record_id)
                if distance is None:
                    fresh.append(record_id)
                elif distance <= radius:
                    results.append((distance, record_id))
        else:
            fresh = window

        admit = self._admit_vector if vector else self._admit_scalar
        survivors = admit(record, radius, fresh, counters)

        records = self._records
        single_token_ids: list[int] = []
        if record.token_count == 1:
            single_token_ids = [
                record_id
                for record_id in survivors
                if records[record_id].token_count == 1
            ]
            if single_token_ids:
                survivors = [
                    record_id
                    for record_id in survivors
                    if records[record_id].token_count != 1
                ]

        counters[COUNTER_VERIFIED] += len(survivors)
        for record_id in survivors:
            distance = self._nsld_to(record, record_id)
            if known is not None:
                known[record_id] = distance
            if distance <= radius:
                results.append((distance, record_id))

        if single_token_ids:
            # Single-token records: NSLD == NLD of the two tokens, so the
            # whole group verifies in one batched call.
            strings = [record.tokens[0]] + [
                records[record_id].tokens[0] for record_id in single_token_ids
            ]
            pairs = [(0, position + 1) for position in range(len(single_token_ids))]
            distances = verify_nld_pairs(
                pairs, strings, radius, backend=self.backend, counters=counters
            )
            for record_id, distance in zip(single_token_ids, distances):
                if distance is not None:
                    # Within-radius values are exact -- memoize them so an
                    # expansion pass reuses them like the Hungarian path's.
                    # (A ``None`` only proves > radius; nothing to keep.)
                    if known is not None:
                        known[record_id] = distance
                    results.append((distance, record_id))

        results.sort()
        return [(record_id, distance) for distance, record_id in results]

    def _admit_scalar(
        self,
        record: TokenizedString,
        radius: float,
        fresh: Sequence[int],
        counters: dict[str, int],
    ) -> list[int]:
        """The per-candidate filter cascade: Lemma 6 length bound, then
        the histogram bound; survivors in window order."""
        query_length = record.aggregate_length
        records = self._records
        bound_filter = self._probe_filter
        query_histogram = encode_histogram(record.length_histogram)
        histograms = self._histograms

        def length_admits(candidate: int) -> bool:
            other_length = records[candidate].aggregate_length
            return nsld_length_lower_bound(query_length, other_length) <= radius

        def histogram_admits(candidate: int) -> bool:
            bound = bound_filter.nsld_bound_encoded(
                query_histogram, histograms[candidate], ()
            )
            return bound <= radius

        return FilterCascade(
            (COUNTER_PRUNED_LENGTH, length_admits),
            (COUNTER_PRUNED_COUNT, histogram_admits),
            counters=counters,
        ).admitted(fresh)

    def _arrays(self) -> tuple:
        """The ``vector`` filters' array mirror of the snapshot, built lazily.

        Columns, all aligned or keyed by record id:

        * the record ids in length-partition order (``self._lengths``
          unzipped, sliced by the shared window);
        * per-record aggregate lengths;
        * per-record *dense histogram ids* plus the distinct encoded
          histograms, so the histogram bound is computed once per
          distinct histogram in a window and fanned out by gather.
        """
        built = self._probe_arrays
        if built is None:
            np = numpy_or_none()
            records = self._records
            length_ids = np.fromiter(
                (record_id for _, record_id in self._lengths),
                dtype=np.int64,
                count=len(records),
            )
            aggregate = np.fromiter(
                (record.aggregate_length for record in records),
                dtype=np.int64,
                count=len(records),
            )
            slots: dict[tuple, int] = {}
            distinct: list[tuple] = []
            histogram_ids = np.empty(len(records), dtype=np.int64)
            for record_id, histogram in enumerate(self._histograms):
                slot = slots.get(histogram)
                if slot is None:
                    slot = slots[histogram] = len(distinct)
                    distinct.append(histogram)
                histogram_ids[record_id] = slot
            built = self._probe_arrays = (
                length_ids,
                aggregate,
                histogram_ids,
                distinct,
            )
        return built

    def _admit_vector(
        self,
        record: TokenizedString,
        radius: float,
        fresh,
        counters: dict[str, int],
    ) -> list[int]:
        """The array twin of :meth:`_admit_scalar`, counter-identical.

        Every fresh candidate is charged ``candidates_generated``; the
        length mask reproduces ``nsld_length_lower_bound`` in IEEE
        float64 exactly (``2d / (L(x) + L(y) + d)``, 0 for two empties),
        so ``pruned_by_length`` / ``pruned_by_count`` are the same mask
        sums the scalar cascade tallies one ``admit()`` at a time, and
        the survivors keep window order.
        """
        np = numpy_or_none()
        _, aggregate, histogram_ids, distinct = self._arrays()
        fresh = np.asarray(fresh, dtype=np.int64)
        query_length = record.aggregate_length
        counters[COUNTER_CANDIDATES] += int(fresh.size)

        gaps = np.abs(aggregate[fresh] - query_length)
        denominators = aggregate[fresh] + query_length + gaps
        # maximum(..., 1) only masks the two-empty-strings case, where the
        # scalar bound is defined as 0.0 (and the numerator is 0 anyway).
        length_ok = (2.0 * gaps / np.maximum(denominators, 1)) <= radius
        counters[COUNTER_PRUNED_LENGTH] += int(fresh.size - length_ok.sum())
        survivors = fresh[length_ok]

        if survivors.size:
            bound_filter = self._probe_filter
            query_histogram = encode_histogram(record.length_histogram)
            slots = histogram_ids[survivors]
            bounds = np.empty(len(distinct), dtype=np.float64)
            for slot in np.unique(slots).tolist():
                bounds[slot] = bound_filter.nsld_bound_encoded(
                    query_histogram, distinct[slot], ()
                )
            histogram_ok = bounds[slots] <= radius
            counters[COUNTER_PRUNED_COUNT] += int(slots.size - histogram_ok.sum())
            survivors = survivors[histogram_ok]
        return survivors.tolist()

    def _nsld_to(self, record: TokenizedString, record_id: int) -> float:
        """Exact NSLD between a prepared query and an indexed record.

        Delegates to :func:`repro.distances.setwise.nsld` -- padding,
        Hungarian aligning and normalisation stay single-sourced in the
        oracle -- with the token distances routed through the snapshot
        vocab (interned memo, prebuilt Myers masks; every token involved
        is already interned, so ``intern`` is a dict probe).
        """
        vocab = self._vocab

        def token_ld(token_x: str, token_y: str) -> int:
            return vocab.distance(vocab.intern(token_x), vocab.intern(token_y))

        return nsld(record, self._records[record_id], token_ld=token_ld)

    def _shard_topk_knn(
        self, record: TokenizedString, k: int, method: str
    ) -> list[tuple[int, float]]:
        """This shard's metric-tree top-k under the canonical ``(distance,
        id)`` order, as local-id pairs.

        The trees themselves break distance ties by traversal order --
        an artifact of insertion layout that no scatter-gather merge can
        reproduce across shard boundaries.  Take the tree's ``k`` best to
        learn the k-th distance, close the tie set with a ``within``
        sweep at that distance, and keep the first ``k`` under
        ``(distance, record id)``.  The global canonical top-k is then a
        sub-multiset of the per-shard lists, so the router can sort the
        union by ``(distance, global id)`` and keep ``k``.
        """
        neighbors = self._knn_index(method).nearest(record, k)
        if not neighbors:
            return []
        bound = max(distance for _, distance in neighbors)
        return self._shard_within_knn(record, bound, method)[:k]

    def _shard_within_knn(
        self, record: TokenizedString, radius: float, method: str
    ) -> list[tuple[int, float]]:
        """This shard's metric-tree range hits as local-id pairs."""
        return sorted(
            (
                (int(record_id), float(distance))
                for record_id, distance in self._knn_index(method).within(
                    record, radius
                )
            ),
            key=lambda hit: (hit[1], hit[0]),
        )

    # -- metric-space serving backends ------------------------------------------

    def _knn_index(self, method: str):
        """The lazily built ``vptree`` / ``bktree`` over this snapshot
        (``fuzzymatch`` weights are corpus-global, so the router holds
        that index)."""
        built = self._knn.get(method)
        if built is None:
            # Deferred imports: the metric-tree backends are optional
            # serving paths, so plain cascade serving never pays them.
            if method == "vptree":
                from repro.knn import VPTree

                built = VPTree(
                    list(range(len(self._records))),
                    metric=self._id_metric("nsld"),
                )
            else:  # bktree
                from repro.knn import BKTree

                built = BKTree(metric=self._id_metric("sld"))
                built.extend(range(len(self._records)))
            self._knn[method] = built
        return built

    def _id_metric(self, kind: str):
        """NSLD/SLD over record ids (queries pass TokenizedStrings)."""
        measure = nsld if kind == "nsld" else sld
        records = self._records
        backend = self.backend

        def metric(a, b):
            record_a = records[a] if isinstance(a, int) else a
            record_b = records[b] if isinstance(b, int) else b
            return measure(record_a, record_b, backend=backend)

        return metric
