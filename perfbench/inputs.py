"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same corpora, query streams and enrolment streams.  The names
come from the repository's own generators (``repro.data``), which model
the paper's account-name corpus and its fraud-ring perturbations; the
program under test only ever receives the generated strings.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from repro.data import FraudRingGenerator, NameGenerator, evaluation_corpus

# Offsets that keep the generators of one seed apart: the fresh-name
# generator must not replay the corpus generator's sequence.
_FRESH_OFFSET = 100_003
_VARIANT_OFFSET = 200_003
_STREAM_OFFSET = 300_007


@dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`FULL` is what the benchmark measures."""

    screen_corpus: int
    enroll_corpus: int
    join_corpus: int


#: Sizes of the measured runs.  The join corpus makes one TSJ self-join
#: take seconds (~1.7 s on the serial engine, ~17 ops in a 30 s run).
FULL = Scale(
    screen_corpus=2000,
    enroll_corpus=2000,
    join_corpus=2000,
)

#: Sizes of the self-check pass: every code path, a few seconds in all.
TINY = Scale(
    screen_corpus=150,
    enroll_corpus=150,
    join_corpus=200,
)

#: Top-k depth of a screening lookup and the paper's default threshold.
K = 5
THRESHOLD = 0.1

#: A ``screen-topk`` round: one query never sent before (a cache miss)
#: and three repeats of earlier queries (cache hits), so the hit share
#: stays at 3/4 -- far from 1/2, keeping the p50 inside the hit mode.
REPEATS_PER_ROUND = 3

#: The store compacts once its write-ahead log holds this many appends
#: (``compact_after_records`` of ``repro.shard.ShardedSnapshotStore``).
COMPACT_EVERY = 256
#: Names ``enroll-sharded`` enrols in process, one append each, into the
#: store its set-ups restart from.  The log then sits two records short
#: of a compaction, so the second timed op of every run compacts -- a
#: traced op in a traced run -- however fast the host is.
BACKLOG = COMPACT_EVERY - 2


def corpus(size: int, seed: int) -> list[str]:
    """An evaluation corpus: background names plus planted fraud rings."""
    names, _ = evaluation_corpus(size, seed=seed)
    return names


def join_corpus(seed: int, op_index: int, scale: Scale = FULL) -> list[str]:
    """The fresh corpus of one ``batch-join`` op."""
    return corpus(scale.join_corpus, seed * 100_000 + op_index + 1)


#: Names in the ``batch-join`` warm-up join, at every scale: above the
#: parallel engine's 1024-record floor, so its jobs go through the pool.
WARMUP_NAMES = 1100


def warmup_corpus() -> list[str]:
    """The fixed, seed-independent corpus of the ``batch-join`` warm-up."""
    return corpus(WARMUP_NAMES, -1)


class _NameSource:
    """Account names arriving at the screener: half fraud-ring variants
    of resident names, half names not derived from the corpus."""

    def __init__(self, seed: int, resident: list[str]) -> None:
        self._resident = resident
        self._rng = random.Random(seed + _STREAM_OFFSET)
        self._variants = FraudRingGenerator(seed=seed + _VARIANT_OFFSET)
        self._fresh = NameGenerator(seed=seed + _FRESH_OFFSET)

    def next(self) -> tuple[str, bool]:
        """``(name, is_fraud_variant)``."""
        if self._rng.random() < 0.5:
            return self._variants.perturb(self._rng.choice(self._resident)), True
        return self._fresh.generate_one(), False


class QueryStream:
    """The ``screen-topk`` query stream, in rounds.

    Each round sends one query never sent before, then
    :data:`REPEATS_PER_ROUND` repeats drawn from the queries sent so far
    with Zipf-skewed popularity (the ``r``-th distinct query is drawn
    with weight ``1/r``).
    """

    def __init__(self, seed: int, resident: list[str]) -> None:
        self._source = _NameSource(seed, resident)
        self._rng = random.Random(seed)
        self.distinct: list[str] = []
        self.variants = 0
        self._seen: set[str] = set()
        self._cumulative: list[float] = []

    def round(self) -> list[str]:
        while True:
            query, variant = self._source.next()
            if query not in self._seen:
                break
        self._seen.add(query)
        self.distinct.append(query)
        self.variants += variant
        total = self._cumulative[-1] if self._cumulative else 0.0
        self._cumulative.append(total + 1.0 / len(self.distinct))
        repeats = self._rng.choices(
            self.distinct, cum_weights=self._cumulative, k=REPEATS_PER_ROUND
        )
        return [query, *repeats]


class EnrollStream:
    """New account names for ``enroll-sharded``: screened, then enrolled."""

    def __init__(self, seed: int, resident: list[str]) -> None:
        self._source = _NameSource(seed, resident)
        self.variants = 0

    def next(self) -> str:
        name, variant = self._source.next()
        self.variants += variant
        return name


def token_histogram(names) -> dict[int, int]:
    """Names per token count (whitespace tokens; the generators emit no
    punctuation)."""
    return dict(sorted(Counter(len(name.split()) for name in names).items()))


#: Timed ops ``describe`` assumes per serving run (~300 in a 30 s run).
DESCRIBED_OPS = 300


def describe(seed: int, scale: Scale = FULL) -> dict:
    """Each workload's make-up at ``seed``, for :data:`DESCRIBED_OPS`
    timed ops on each serving workload."""
    ops = DESCRIBED_OPS
    screen = corpus(scale.screen_corpus, seed)
    stream = QueryStream(seed, screen)
    rounds = -(-ops // (1 + REPEATS_PER_ROUND))
    sent = list(itertools.chain.from_iterable(stream.round() for _ in range(rounds)))
    enroll = corpus(scale.enroll_corpus, seed)
    arrivals = EnrollStream(seed, enroll)
    enrolled = [arrivals.next() for _ in range(BACKLOG + ops)]
    joined = join_corpus(seed, 0, scale)
    return {
        "screen-topk": {
            "corpus": len(screen),
            "corpus_tokens": token_histogram(screen),
            "queries_sent": len(sent),
            "distinct_queries": len(stream.distinct),
            "repeat_share": 1 - len(stream.distinct) / len(sent),
            "fraud_variant_share": stream.variants / len(stream.distinct),
            "query_tokens": token_histogram(stream.distinct),
        },
        "enroll-sharded": {
            "corpus": len(enroll),
            "corpus_tokens": token_histogram(enroll),
            "backlog_appends": BACKLOG,
            "timed_appends": ops,
            "fraud_variant_share": arrivals.variants / len(enrolled),
            "enrolled_tokens": token_histogram(enrolled),
        },
        "batch-join": {
            "corpus_per_op": len(joined),
            "corpus_tokens": token_histogram(joined),
        },
    }
