"""The MapReduce jobs composing the TSJ pipeline.

Candidate pairs flow through the pipeline as::

    ((id_a, id_b), (length_a, hist_a, length_b, hist_b, similar_pairs))

with ``id_a < id_b``; ``hist_*`` are token-length histograms encoded as
sorted ``(length, multiplicity)`` tuples, and ``similar_pairs`` is a tuple
of ``(token_len_in_a, token_len_in_b, ld)`` triples -- one per known
NLD-similar token pair between the two records.  Shipping lengths and
histograms with the ids (instead of the tokenized strings themselves) is
the paper's Sec. III-E efficiency device: both filters run on this compact
metadata, and full strings are resolved only for final verification.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.candidates import (
    COUNTER_CANDIDATES,
    COUNTER_PRUNED_COUNT,
    COUNTER_PRUNED_LENGTH,
    COUNTER_VERIFIED,
    HistogramBoundFilter,
    encode_histogram,
)
from repro.distances.setwise import nsld_within
from repro.mapreduce import MapReduceContext, MapReduceJob, stable_hash
from repro.tokenize import TokenizedString

Histogram = tuple[tuple[int, int], ...]
SimilarPairs = tuple[tuple[int, int, int], ...]
CandidateMeta = tuple[int, Histogram, int, Histogram, SimilarPairs]


def decode_histogram(encoded: Histogram) -> dict[int, int]:
    return dict(encoded)


def _length_filter_passes(
    length_a: int, length_b: int, threshold: float
) -> bool:
    """Lemma 6 length filter (Sec. III-E.1): keep iff the aggregate-length
    lower bound does not already exceed the threshold.

    Decision-identical to ``nsld_length_lower_bound(a, b) <= threshold``,
    inlined (no tuple sort, no call) for the per-candidate hot path --
    including that function's oracle-shaped float evaluation
    ``2*d / (a+b+d)``, so a pair whose exact NSLD sits on the threshold
    is never length-pruned.
    """
    if length_a <= length_b:
        shorter, longer = length_a, length_b
    else:
        shorter, longer = length_b, length_a
    if longer == 0:
        return True  # bound 0.0; thresholds are non-negative
    difference = longer - shorter
    return 2.0 * difference / (shorter + longer + difference) <= threshold


class TokenFrequencyJob(MapReduceJob):
    """Counts, per distinct token, how many tokenized strings contain it.

    Feeds both the high-frequency-token cut-off ``M`` (Sec. III-G.2) and
    the token space for the similar-token NLD-join (Sec. III-D).
    """

    name = "tsj-token-frequency"

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        _, tokenized = record
        for token in tokenized.distinct_tokens():
            yield token, 1

    def combine(self, key, values, ctx: MapReduceContext) -> Iterator:
        yield sum(values)

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        yield key, sum(values)


class SharedTokenCandidatesJob(MapReduceJob):
    """Generates candidate pairs sharing at least one token (Sec. III-C).

    Mappers key every record by each of its distinct tokens (skipping
    tokens more popular than ``M``); reducers emit all pairs in a token's
    group.  The shared token contributes the similar-pair triple
    ``(len, len, 0)`` used by the histogram filter downstream.
    """

    name = "tsj-shared-token-candidates"

    def __init__(
        self,
        threshold: float,
        frequent_tokens: frozenset[str],
        use_length_filter: bool = True,
        bipartite_boundary: int | None = None,
    ) -> None:
        self.threshold = threshold
        self.frequent_tokens = frequent_tokens
        self.use_length_filter = use_length_filter
        # For R x P joins (Sec. II-B's general problem): ids below the
        # boundary belong to R, ids at or above to P; only cross-side
        # pairs are candidates.  None means self-join.
        self.bipartite_boundary = bipartite_boundary

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        identifier, tokenized = record
        payload = (
            identifier,
            tokenized.aggregate_length,
            encode_histogram(tokenized.length_histogram),
        )
        for token in tokenized.distinct_tokens():
            if token in self.frequent_tokens:
                ctx.count("tokens-dropped-frequent")
                continue
            yield token, payload

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        token_length = len(key)
        members = sorted(values)
        ctx.charge(len(members) * max(len(members) - 1, 0) // 2)
        boundary = self.bipartite_boundary
        threshold = self.threshold
        use_length_filter = self.use_length_filter
        generated = pruned = emitted = 0
        similar = ((token_length, token_length, 0),)
        for a in range(len(members)):
            id_a, length_a, hist_a = members[a]
            for b in range(a + 1, len(members)):
                id_b, length_b, hist_b = members[b]
                if id_a == id_b:
                    continue
                if boundary is not None and (id_a < boundary) == (
                    id_b < boundary
                ):
                    continue  # same side of an R x P join
                generated += 1
                if use_length_filter and not _length_filter_passes(
                    length_a, length_b, threshold
                ):
                    pruned += 1
                    continue
                emitted += 1
                yield (id_a, id_b), (
                    length_a,
                    hist_a,
                    length_b,
                    hist_b,
                    similar,
                )
        if generated:
            ctx.count(COUNTER_CANDIDATES, generated)
        if pruned:
            ctx.count("pruned-length-shared", pruned)
            ctx.count(COUNTER_PRUNED_LENGTH, pruned)
        if emitted:
            ctx.count("candidates-shared", emitted)


class TokenPairFanoutJob(MapReduceJob):
    """First half of similar-token candidate generation (Sec. III-D).

    Joins records with the NLD-similar token pairs found by MassJoin:
    reducers keyed by token see the records containing that token plus its
    similar partner tokens, and re-key each record by the unordered token
    pair so :class:`TokenPairJoinJob` can cross the two sides.

    Inputs: ``("rec", (id, tokenized))`` and ``("sim", (t1, t2, ld))``.
    """

    name = "tsj-similar-token-fanout"

    def __init__(self, frequent_tokens: frozenset[str]) -> None:
        self.frequent_tokens = frequent_tokens

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        tag, payload = record
        if tag == "rec":
            identifier, tokenized = payload
            meta = (
                identifier,
                tokenized.aggregate_length,
                encode_histogram(tokenized.length_histogram),
            )
            for token in tokenized.distinct_tokens():
                if token not in self.frequent_tokens:
                    yield token, ("R", meta)
        else:
            t1, t2, ld = payload
            yield t1, ("S", (t2, ld))
            yield t2, ("S", (t1, ld))

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        records = [payload for tag, payload in values if tag == "R"]
        partners = [payload for tag, payload in values if tag == "S"]
        ctx.charge(len(records) * len(partners))
        for partner_token, ld in partners:
            pair_key = (key, partner_token) if key < partner_token else (
                partner_token,
                key,
            )
            side = 0 if key == pair_key[0] else 1
            for meta in records:
                yield pair_key, (side, meta, ld)


class TokenPairJoinJob(MapReduceJob):
    """Second half of similar-token candidate generation.

    Reducers keyed by an unordered similar-token pair ``(z1, z2)`` cross
    the records containing ``z1`` with those containing ``z2``.
    """

    name = "tsj-similar-token-join"

    def __init__(
        self,
        threshold: float,
        use_length_filter: bool = True,
        bipartite_boundary: int | None = None,
    ) -> None:
        self.threshold = threshold
        self.use_length_filter = use_length_filter
        self.bipartite_boundary = bipartite_boundary

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        yield record

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        token_1, token_2 = key
        side_0 = sorted(meta for side, meta, _ in values if side == 0)
        side_1 = sorted(meta for side, meta, _ in values if side == 1)
        ld = next(ld for _, _, ld in values)
        boundary = self.bipartite_boundary
        ctx.charge(len(side_0) * len(side_1))
        generated = pruned = emitted = 0
        for id_a, length_a, hist_a in side_0:
            for id_b, length_b, hist_b in side_1:
                if id_a == id_b:
                    continue
                if boundary is not None and (id_a < boundary) == (
                    id_b < boundary
                ):
                    continue  # same side of an R x P join
                generated += 1
                if self.use_length_filter and not _length_filter_passes(
                    length_a, length_b, self.threshold
                ):
                    pruned += 1
                    continue
                emitted += 1
                if id_a < id_b:
                    pair = (id_a, id_b)
                    meta = (
                        length_a,
                        hist_a,
                        length_b,
                        hist_b,
                        ((len(token_1), len(token_2), ld),),
                    )
                else:
                    pair = (id_b, id_a)
                    meta = (
                        length_b,
                        hist_b,
                        length_a,
                        hist_a,
                        ((len(token_2), len(token_1), ld),),
                    )
                yield pair, meta
        if generated:
            ctx.count(COUNTER_CANDIDATES, generated)
        if pruned:
            ctx.count("pruned-length-similar", pruned)
            ctx.count(COUNTER_PRUNED_LENGTH, pruned)
        if emitted:
            ctx.count("candidates-similar", emitted)


class DedupFilterJob(MapReduceJob):
    """Candidate de-duplication plus both low-cost filters (Sec. III-E/G.3).

    ``GROUP_ON_BOTH``: the shuffle key is the id pair, one reduce group --
    and hence one simulated task -- per distinct candidate pair.

    ``GROUP_ON_ONE``: the key is a single record id chosen by the paper's
    hash-parity rule, so one group per *record*; the reducer de-duplicates
    its partner list with a hash map.  Fewer (but heavier) tasks: the
    grouping trade-off of Fig. 1.

    Duplicate candidates merge their similar-pair lists before the
    histogram filter runs, giving the filter the complete picture of the
    NLD-similar token pairs between the two records.
    """

    name = "tsj-dedup-filter"

    def __init__(
        self,
        threshold: float,
        group_on_one: bool,
        use_length_filter: bool = True,
        use_histogram_filter: bool = True,
        complete_similar_pairs: bool = True,
    ) -> None:
        self.threshold = threshold
        self.group_on_one = group_on_one
        self.use_length_filter = use_length_filter
        self.use_histogram_filter = use_histogram_filter
        # Lemma 10 reasoning in the histogram bound needs the complete set
        # of NLD-similar token pairs, which only fuzzy matching provides;
        # with exact matching the bound falls back to length differences.
        self.complete_similar_pairs = complete_similar_pairs
        # The shared-cascade form of the Sec. III-E.2 filter: identical
        # decisions to the setwise oracle, Lemma 10 arithmetic memoized
        # per length pair across the whole job.
        self._histogram_filter = HistogramBoundFilter(
            threshold, use_lemma10=complete_similar_pairs
        )
        #: record id -> Sec. III-G.3 fingerprint (ids recur once per
        #: candidate pair they appear in; hash each exactly once).
        self._fingerprints: dict[int, int] = {}

    def _fingerprint(self, identifier: int) -> int:
        fingerprint = self._fingerprints.get(identifier)
        if fingerprint is None:
            fingerprint = stable_hash(("dedup", identifier))
            self._fingerprints[identifier] = fingerprint
        return fingerprint

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        pair, meta = record
        if not self.group_on_one:
            yield pair, meta
            return
        id_a, id_b = pair
        hash_a, hash_b = self._fingerprint(id_a), self._fingerprint(id_b)
        # Sec. III-G.3 load-balancing fingerprint rule.
        holder_is_a = int(hash_a < hash_b) == (hash_a + hash_b) % 2
        yield (id_a if holder_is_a else id_b), (pair, meta)

    #: _filter outcomes.
    _EMIT, _PRUNED_LENGTH, _PRUNED_HISTOGRAM = 0, 1, 2

    def _filter(
        self,
        length_a: int,
        hist_a: Histogram,
        length_b: int,
        hist_b: Histogram,
        similar_pairs: set[tuple[int, int, int]],
        ctx: MapReduceContext,
    ) -> int:
        if self.use_length_filter and not _length_filter_passes(
            length_a, length_b, self.threshold
        ):
            return self._PRUNED_LENGTH
        if self.use_histogram_filter:
            # The filter work is charged unconditionally (like the Vocab
            # memo, cache hits re-cost the same simulated ops); only the
            # wall-clock is saved by the bound memo.
            ctx.charge(len(hist_a) * len(hist_b))
            bound = self._histogram_filter.nsld_bound_encoded(
                hist_a, hist_b, tuple(sorted(similar_pairs))
            )
            if bound > self.threshold:
                return self._PRUNED_HISTOGRAM
        return self._EMIT

    def _count_outcomes(
        self, ctx: MapReduceContext, emitted: int, by_length: int, by_histogram: int
    ) -> None:
        if by_length:
            ctx.count("pruned-length-dedup", by_length)
            ctx.count(COUNTER_PRUNED_LENGTH, by_length)
        if by_histogram:
            ctx.count("pruned-histogram", by_histogram)
            ctx.count(COUNTER_PRUNED_COUNT, by_histogram)
        if emitted:
            ctx.count("candidates-verified", emitted)

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        if not self.group_on_one:
            # key is the id pair; merge metadata across duplicates.
            length_a, hist_a, length_b, hist_b, _ = values[0]
            similar_pairs = {
                triple for _, _, _, _, triples in values for triple in triples
            }
            ctx.charge(len(values))
            outcome = self._filter(
                length_a, hist_a, length_b, hist_b, similar_pairs, ctx
            )
            self._count_outcomes(
                ctx,
                emitted=outcome == self._EMIT,
                by_length=outcome == self._PRUNED_LENGTH,
                by_histogram=outcome == self._PRUNED_HISTOGRAM,
            )
            if outcome == self._EMIT:
                yield key
            return
        # key is a single record id; de-duplicate partners with a hash map
        # (the paper's hash-set strategy), merging similar pairs per pair.
        merged: dict[tuple[int, int], list] = {}
        ctx.charge(len(values))
        for pair, (length_a, hist_a, length_b, hist_b, triples) in values:
            entry = merged.get(pair)
            if entry is None:
                merged[pair] = [length_a, hist_a, length_b, hist_b, set(triples)]
            else:
                entry[4].update(triples)
        emitted = by_length = by_histogram = 0
        for pair, (length_a, hist_a, length_b, hist_b, similar_pairs) in sorted(
            merged.items()
        ):
            outcome = self._filter(
                length_a, hist_a, length_b, hist_b, similar_pairs, ctx
            )
            if outcome == self._EMIT:
                emitted += 1
                yield pair
            elif outcome == self._PRUNED_LENGTH:
                by_length += 1
            else:
                by_histogram += 1
        self._count_outcomes(ctx, emitted, by_length, by_histogram)


class ResolveLeftJob(MapReduceJob):
    """Attach the left tokenized string to each surviving candidate pair.

    Inputs: ``("pair", (a, b))`` and ``("rec", (id, tokenized))``.
    """

    name = "tsj-resolve"

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        tag, payload = record
        if tag == "pair":
            left, right = payload
            yield left, ("PAIR", right)
        else:
            identifier, tokenized = payload
            yield identifier, ("STR", tokenized)

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        left_record = None
        rights = []
        for tag, payload in values:
            if tag == "STR":
                left_record = payload
            else:
                rights.append(payload)
        if left_record is None:
            return
        for right in rights:
            yield right, (key, left_record)


class VerifyJob(MapReduceJob):
    """Final verification (Sec. III-F): attach the right record, compute
    NSLD exactly (Hungarian) or greedily, keep pairs within the threshold.

    Inputs: ``("half", (right_id, (left_id, left_record)))`` and
    ``("rec", (id, tokenized))``.
    """

    name = "tsj-verify"

    def __init__(
        self, threshold: float, greedy: bool, backend: str = "auto"
    ) -> None:
        self.threshold = threshold
        self.greedy = greedy
        self.backend = backend

    def map(self, record, ctx: MapReduceContext) -> Iterator:
        tag, payload = record
        if tag == "half":
            right, left_info = payload
            yield right, ("PAIR", left_info)
        else:
            identifier, tokenized = payload
            yield identifier, ("STR", tokenized)

    def reduce(self, key, values, ctx: MapReduceContext) -> Iterator:
        right_record: TokenizedString | None = None
        lefts = []
        for tag, payload in values:
            if tag == "STR":
                right_record = payload
            else:
                lefts.append(payload)
        if right_record is None:
            return
        if lefts:
            ctx.count("verifications", len(lefts))
            ctx.count(COUNTER_VERIFIED, len(lefts))
        similar = 0
        for left_id, left_record in lefts:
            # Charge the alignment solve on top of the LD matrix cells the
            # ops hook meters: Hungarian runs O(k^3) augmenting-path scans
            # with a significant constant; greedy heap-selects k of k^2
            # edges.  Constants from profiling the two solvers.
            k = max(left_record.token_count, right_record.token_count, 1)
            if self.greedy:
                ctx.charge(int(2 * k * k * max(math.log2(k * k), 1.0)))
            else:
                ctx.charge(8 * k**3)
            distance = nsld_within(
                left_record,
                right_record,
                self.threshold,
                greedy=self.greedy,
                ops=ctx.charge,
                backend=self.backend,
            )
            if distance is not None:
                similar += 1
                yield (left_id, key, distance)
        if similar:
            ctx.count("similar-pairs", similar)
