"""An NSLD reference written from the paper's definitions alone.

It imports nothing from ``repro``: its own tokenizer, its own character
Levenshtein DP, SLD as the minimum over token permutations of the padded
token cost matrix, and the Def. 4 normalisation.  The benchmark checks
the program's answers against it, so a fault shared by every ``repro``
layer (tokenizer, kernels, Hungarian aligner) still shows.

* Tokens: split on whitespace and ASCII punctuation, case-folded, empty
  pieces dropped (the paper tokenizes account names "using whitespaces
  and punctuation characters").
* ``SLD(x, y)``: pad the smaller token multiset with empty tokens to
  ``k = max(T(x), T(y))`` tokens; SLD is the minimum over the ``k!``
  one-to-one token alignments of the summed token Levenshtein distances
  (``LD(t, "") = len(t)``).  Names have at most a handful of tokens, so
  the permutation minimum is cheap and obviously exact.
* ``NSLD = 2 * SLD / (L(x) + L(y) + SLD)``, ``L`` the summed token
  lengths; 0 when both strings have no tokens.
"""

from __future__ import annotations

import itertools
import string
from collections import Counter

__all__ = ["Reference", "levenshtein", "tokens"]

_SEPARATORS = frozenset(string.whitespace + string.punctuation)

#: Token counts above this would make the permutation minimum slow; the
#: generated names stay far below it, so exceeding it is a generator bug.
MAX_TOKENS = 7


def tokens(text: str) -> tuple[str, ...]:
    """Whitespace-and-punctuation tokens of ``text``, case-folded."""
    pieces: list[str] = []
    current: list[str] = []
    for char in text.lower():
        if char in _SEPARATORS:
            if current:
                pieces.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        pieces.append("".join(current))
    return tuple(pieces)


def levenshtein(a: str, b: str) -> int:
    """Unit-cost character edit distance (the textbook two-row DP)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, 1):
        current = [i]
        for j, char_b in enumerate(b, 1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (char_a != char_b),
                )
            )
        previous = current
    return previous[-1]


class Reference:
    """NSLD between raw names, with a token-distance memo.

    The memo only caches exact token distances, so it changes speed, not
    values; names share popular tokens, which makes it worth keeping.
    """

    def __init__(self) -> None:
        self._token_ld: dict[tuple[str, str], int] = {}
        self._names: dict[str, tuple[tuple[str, ...], int, Counter]] = {}

    def _prepared(self, name: str) -> tuple[tuple[str, ...], int, Counter]:
        """``(tokens, summed token length, character bag)`` of a name."""
        found = self._names.get(name)
        if found is None:
            toks = tokens(name)
            if len(toks) > MAX_TOKENS:
                raise ValueError(f"{name!r} has more than {MAX_TOKENS} tokens")
            bag = Counter("".join(toks))
            found = (toks, sum(bag.values()), bag)
            self._names[name] = found
        return found

    def token_ld(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        value = self._token_ld.get(key)
        if value is None:
            value = levenshtein(a, b)
            self._token_ld[key] = value
        return value

    def sld(self, x: str, y: str) -> int:
        """Setwise Levenshtein distance between two raw names."""
        tx = self._prepared(x)[0]
        ty = self._prepared(y)[0]
        k = max(len(tx), len(ty))
        if k == 0:
            return 0
        tx = tx + ("",) * (k - len(tx))
        ty = ty + ("",) * (k - len(ty))
        cost = [
            [
                len(b) if not a else len(a) if not b else self.token_ld(a, b)
                for b in ty
            ]
            for a in tx
        ]
        return min(
            sum(row[column] for row, column in zip(cost, permutation))
            for permutation in itertools.permutations(range(k))
        )

    def nsld(self, x: str, y: str) -> float:
        """Normalized setwise Levenshtein distance (Def. 4)."""
        s = self.sld(x, y)
        denominator = self._prepared(x)[1] + self._prepared(y)[1] + s
        if denominator == 0:
            return 0.0
        return 2.0 * s / denominator

    def nsld_at_most(self, x: str, y: str, threshold: float) -> float | None:
        """``NSLD(x, y)`` when it is at most ``threshold``, else ``None``.

        A cheap lower bound skips the exact value for far-apart names.
        Take the bag (multiset) of all characters of a name's tokens: an
        insertion or deletion changes the bag's L1 distance to the other
        name's bag by at most one, a substitution by at most two, and
        empty-token moves by none, so ``SLD >= ceil(L1 / 2)``; likewise
        ``SLD >= |L(x) - L(y)|``.  NSLD grows with SLD, so the larger of
        the two bounds, normalised, bounds NSLD from below.
        """
        _, length_x, bag_x = self._prepared(x)
        _, length_y, bag_y = self._prepared(y)
        l1 = sum(abs(count - bag_y.get(char, 0)) for char, count in bag_x.items())
        l1 += sum(count for char, count in bag_y.items() if char not in bag_x)
        bound = max(abs(length_x - length_y), (l1 + 1) // 2)
        if bound and 2.0 * bound / (length_x + length_y + bound) > threshold:
            return None
        value = self.nsld(x, y)
        return value if value <= threshold else None

    def within(self, query: str, corpus, radius: float) -> list[tuple[float, str]]:
        """Every ``(distance, name)`` of ``corpus`` within ``radius``, sorted."""
        hits = []
        for name in corpus:
            value = self.nsld_at_most(query, name, radius)
            if value is not None:
                hits.append((value, name))
        hits.sort()
        return hits

    def distances(self, query: str, corpus) -> list[float]:
        """NSLD from ``query`` to every name of ``corpus``, ascending."""
        return sorted(self.nsld(query, name) for name in corpus)
