"""The composable filter cascade with per-filter pruning counters.

Candidate generation across the join layers repeats the same shape: an
index lookup proposes a candidate, a short chain of cheap necessary
conditions (length window, count/prefix agreement, position displacement)
prunes it, and the survivors reach verification.  :class:`FilterCascade`
names that chain once: filters run in the given order and short-circuit on
the first rejection, and every decision lands in a counter so filter
effectiveness is measurable instead of guessed.

Counter names are shared across every join layer (and with the MapReduce
job counters, see ``MapReduceContext.count``), so the CLI summary and the
benches can aggregate them pipeline-wide:

* ``candidates_generated`` -- pairs proposed by the signature index;
* ``pruned_by_length``     -- rejected by a length-window filter;
* ``pruned_by_count``      -- rejected by a count-style filter (q-gram
  count, K-signature count, histogram lower bound);
* ``pruned_by_position``   -- rejected by a positional filter;
* ``pairs_verified``       -- survivors handed to exact verification.

:class:`HistogramBoundFilter` is the cascade form of the Sec. III-E.2
distance-lower-bound filter: identical decisions to
:func:`repro.distances.setwise.nsld_lower_bound_from_histograms` (the
oracle it is property-tested against), but with the per-length-pair
Lemma 10 arithmetic memoized across the whole join -- the lengths of real
tokens repeat endlessly, the bound for a length pair never changes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.distances.normalized import (
    min_ld_exceeding_for_longer,
    min_ld_exceeding_for_shorter,
)

COUNTER_CANDIDATES = "candidates_generated"
COUNTER_PRUNED_LENGTH = "pruned_by_length"
COUNTER_PRUNED_COUNT = "pruned_by_count"
COUNTER_PRUNED_POSITION = "pruned_by_position"
COUNTER_VERIFIED = "pairs_verified"

#: The canonical counter set, in reporting order.
CASCADE_COUNTERS = (
    COUNTER_CANDIDATES,
    COUNTER_PRUNED_LENGTH,
    COUNTER_PRUNED_COUNT,
    COUNTER_PRUNED_POSITION,
    COUNTER_VERIFIED,
)

#: A filter: ``predicate(candidate_id) -> bool`` (True = keep), paired
#: with the counter bumped when it prunes.
Filter = tuple[str, Callable[[int], bool]]


def new_counters() -> dict[str, int]:
    """A zeroed canonical counter dict."""
    return {name: 0 for name in CASCADE_COUNTERS}


def encode_histogram(histogram: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """Canonical, hashable encoding of a token-length histogram: the
    sorted ``(length, multiplicity)`` tuples
    :meth:`HistogramBoundFilter.nsld_bound_encoded` memoizes on."""
    return tuple(sorted(histogram.items()))


class FilterCascade:
    """Ordered short-circuit filters over proposed candidate ids.

    Parameters
    ----------
    filters:
        ``(prune_counter_name, predicate)`` pairs, cheapest first; a
        predicate returning ``False`` prunes the candidate and bumps the
        named counter.
    counters:
        Counter sink; defaults to a fresh :func:`new_counters` dict.

    Examples
    --------
    >>> lengths = [3, 5, 9]
    >>> cascade = FilterCascade(
    ...     (COUNTER_PRUNED_LENGTH, lambda other: abs(lengths[other] - 5) <= 2),
    ... )
    >>> [cascade.admit(i) for i in range(3)]
    [True, True, False]
    >>> cascade.counters[COUNTER_CANDIDATES], cascade.counters[COUNTER_PRUNED_LENGTH]
    (3, 1)
    """

    __slots__ = ("filters", "counters")

    def __init__(
        self, *filters: Filter, counters: dict[str, int] | None = None
    ) -> None:
        self.filters = filters
        self.counters = new_counters() if counters is None else counters

    def admit(self, candidate: int) -> bool:
        """Run ``candidate`` through the cascade; count every decision."""
        counters = self.counters
        counters[COUNTER_CANDIDATES] += 1
        for name, predicate in self.filters:
            if not predicate(candidate):
                counters[name] = counters.get(name, 0) + 1
                return False
        return True

    def admitted(self, candidates: Iterable[int]) -> list[int]:
        """The candidates surviving the cascade, in input order."""
        return [candidate for candidate in candidates if self.admit(candidate)]


class HistogramBoundFilter:
    """The Sec. III-E.2 histogram lower-bound filter with memoized bounds.

    Decision-identical to the :mod:`repro.distances.setwise` oracle
    functions (property-tested in ``tests/candidates``), but the Lemma 10
    bound for a dissimilar token pair depends only on the two token
    lengths and the threshold -- so it is computed once per distinct
    length pair for the lifetime of the filter instead of once per
    candidate pair.
    """

    __slots__ = ("threshold", "use_lemma10", "_dissimilar", "_bounds")

    def __init__(self, threshold: float, use_lemma10: bool = True) -> None:
        self.threshold = threshold
        self.use_lemma10 = use_lemma10
        #: (shorter_len, longer_len) -> LD lower bound for a pair known to
        #: be NLD-dissimilar (or the plain length difference without
        #: Lemma 10).
        self._dissimilar: dict[tuple[int, int], int] = {}
        #: Full-bound memo for :meth:`nsld_bound_encoded`: real corpora
        #: draw token lengths from a handful of values, so the distinct
        #: (histogram, histogram, similar-pairs) combinations number in
        #: the thousands while candidate pairs number in the millions.
        self._bounds: dict[tuple, float] = {}

    def _dissimilar_bound(self, len_a: int, len_b: int) -> int:
        shorter, longer = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
        key = (shorter, longer)
        cached = self._dissimilar.get(key)
        if cached is not None:
            return cached
        difference = longer - shorter
        if not self.use_lemma10:
            bound = difference
        else:
            # Lemma 10: a pair with NLD > T has LD strictly above the
            # floor; both orientations apply (LD is symmetric), take the
            # stronger.  See setwise.sld_lower_bound_from_histograms.
            lemma10 = min_ld_exceeding_for_shorter(self.threshold, longer) + 1
            if shorter != longer:
                lemma10 = max(
                    lemma10,
                    min_ld_exceeding_for_longer(self.threshold, shorter) + 1,
                )
            bound = max(difference, lemma10)
        self._dissimilar[key] = bound
        return bound

    def sld_bound(
        self,
        histogram_x: Mapping[int, int],
        histogram_y: Mapping[int, int],
        similar_pairs: Iterable[tuple[int, int, int]],
    ) -> int:
        """A sound lower bound on ``SLD(x, y)``; see the setwise oracle."""
        count_x = sum(histogram_x.values())
        count_y = sum(histogram_y.values())
        length_x = sum(size * mult for size, mult in histogram_x.items())
        length_y = sum(size * mult for size, mult in histogram_y.items())

        # Cheapest known LD per (len_x, len_y) pair of lengths.
        best_similar: dict[tuple[int, int], int] = {}
        for len_a, len_b, distance in similar_pairs:
            key = (len_a, len_b)
            if key not in best_similar or distance < best_similar[key]:
                best_similar[key] = distance

        dissimilar_bound = self._dissimilar_bound

        def side_bound(
            hist_a: Mapping[int, int],
            hist_b: Mapping[int, int],
            pads_available: bool,
            a_is_x: bool,
        ) -> int:
            total = 0
            for len_a, mult_a in hist_a.items():
                cheapest = len_a if pads_available else None
                for len_b in hist_b:
                    key = (len_a, len_b) if a_is_x else (len_b, len_a)
                    bound = best_similar.get(key)
                    if bound is None:
                        bound = dissimilar_bound(len_a, len_b)
                    if cheapest is None or bound < cheapest:
                        cheapest = bound
                    if cheapest == 0:
                        break
                total += (cheapest or 0) * mult_a
            return total

        bound_x = side_bound(histogram_x, histogram_y, count_x > count_y, True)
        bound_y = side_bound(histogram_y, histogram_x, count_y > count_x, False)
        return max(bound_x, bound_y, abs(length_x - length_y))

    def nsld_bound(
        self,
        histogram_x: Mapping[int, int],
        histogram_y: Mapping[int, int],
        similar_pairs: Iterable[tuple[int, int, int]],
    ) -> float:
        """NSLD form of :meth:`sld_bound` (monotone in SLD)."""
        length_x = sum(size * mult for size, mult in histogram_x.items())
        length_y = sum(size * mult for size, mult in histogram_y.items())
        bound = self.sld_bound(histogram_x, histogram_y, similar_pairs)
        denominator = length_x + length_y + bound
        if denominator == 0:
            return 0.0
        return 2.0 * bound / denominator

    def nsld_bound_encoded(
        self,
        histogram_x: tuple[tuple[int, int], ...],
        histogram_y: tuple[tuple[int, int], ...],
        similar_key: tuple[tuple[int, int, int], ...],
    ) -> float:
        """:meth:`nsld_bound` over *encoded* histograms, fully memoized.

        ``histogram_*`` are the canonical sorted ``(length, multiplicity)``
        tuples of :func:`encode_histogram` (what the TSJ pipeline ships);
        ``similar_key`` must be a canonical (sorted) tuple of the similar
        pairs so equal inputs hit the same memo slot.  The bound is a pure
        function of these three values (threshold and Lemma 10 mode are
        fixed per filter), so memoization cannot change a decision.
        """
        key = (histogram_x, histogram_y, similar_key)
        cached = self._bounds.get(key)
        if cached is None:
            cached = self.nsld_bound(
                dict(histogram_x), dict(histogram_y), similar_key
            )
            self._bounds[key] = cached
        return cached

    def prunes(
        self,
        histogram_x: Mapping[int, int],
        histogram_y: Mapping[int, int],
        similar_pairs: Iterable[tuple[int, int, int]],
    ) -> bool:
        """Whether the bound alone proves ``NSLD > threshold``."""
        bound = self.nsld_bound(histogram_x, histogram_y, similar_pairs)
        return bound > self.threshold
