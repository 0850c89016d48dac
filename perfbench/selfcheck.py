"""The benchmark's own quick self-check (``run.py --self-check``).

1. The reference against hand-worked values from the paper's definitions
   and against properties every NSLD value has.
2. Each checker against answers handed to it directly: a correct answer
   passes, a deliberately corrupted one is rejected.  The program is not
   altered for this.
3. The verdict: a run whose checks reject an answer, or raise, reports
   ``correct: false``.
4. A tiny-size pass of every workload, untraced and traced, end to end
   with all its correctness checks: no op may fail, and the run reports
   exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import random
import sys

import inputs
from reference import Reference, levenshtein, tokens
from workloads import WORKLOADS, BatchJoin, EnrollSharded, ScreenTopK

T = inputs.THRESHOLD
_failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        _failures.append(what)


def check_reference() -> None:
    ref = Reference()
    expect(levenshtein("kitten", "sitting") == 3, "LD(kitten, sitting) = 3")
    expect(
        tokens("Obamma, Boraak H.") == ("obamma", "boraak", "h"),
        "tokenizer splits on whitespace and punctuation and folds case",
    )
    expect(
        ref.sld("chan kalan", "chank alan") == 2,
        "SLD({chan, kalan}, {chank, alan}) = 2",
    )
    expect(
        ref.nsld("chan kalan", "chank alan") == 0.2,
        "NSLD({chan, kalan}, {chank, alan}) = 0.2",
    )
    expect(
        ref.sld("chan kalan", "alan") == 5,
        "SLD({chan, kalan}, {alan}) = 5 (the pad against chan costs 4)",
    )
    expect(ref.nsld("", "") == 0.0, "NSLD of two empty names is 0")
    names = inputs.corpus(120, seed=5)
    rng = random.Random(5)
    symmetric = bounded = zero_iff_equal = True
    for _ in range(400):
        x, y = rng.choice(names), rng.choice(names)
        value = ref.nsld(x, y)
        symmetric &= value == ref.nsld(y, x)
        bounded &= 0.0 <= value <= 1.0
        same = sorted(tokens(x)) == sorted(tokens(y))
        zero_iff_equal &= (value == 0.0) == same
        zero_iff_equal &= ref.nsld(x, " ".join(reversed(x.split()))) == 0.0
    expect(symmetric, "NSLD is symmetric")
    expect(bounded, "NSLD lies in [0, 1]")
    expect(zero_iff_equal, "NSLD is 0 exactly for equal token multisets")

    def exact_within(x, y):
        value = ref.nsld(x, y)
        return value if value <= 0.3 else None

    expect(
        all(
            ref.nsld_at_most(x, y, 0.3) == exact_within(x, y)
            for x in names[:40]
            for y in names
        ),
        "the thresholded reference agrees with the exact one",
    )


def check_checkers() -> None:
    # The checkers are handed answers directly; nothing touches the disk.
    args = (1, inputs.TINY, None, "unused")

    screen = ScreenTopK(*args)
    query = screen.corpus[3] + "x"
    ranked = sorted(
        (screen.reference.nsld(query, name), name) for name in screen.corpus
    )
    answer = [[name, distance] for distance, name in ranked[: inputs.K]]
    skipped = [[name, distance] for distance, name in ranked[1 : inputs.K + 1]]
    nudged = [list(row) for row in answer]
    nudged[0][1] += 1e-12
    expect(screen.topk_correct(query, answer), "top-k checker accepts the reference")
    expect(not screen.topk_correct(query, skipped), "top-k checker rejects a drop")
    expect(not screen.topk_correct(query, nudged), "top-k checker rejects a bad value")

    enroll = EnrollSharded(*args)
    corpus = enroll.corpus
    name = corpus[7]
    matches = [[match, d] for d, match in enroll.reference.within(name, corpus, T)]
    far = max(corpus, key=lambda other: enroll.reference.nsld(name, other))
    padded = matches + [[far, enroll.reference.nsld(name, far)]]
    correct = enroll.within_correct
    expect(correct(name, corpus, matches), "within checker accepts the reference")
    expect(not correct(name, corpus, matches[1:]), "within checker rejects a drop")
    expect(not correct(name, corpus, padded), "within checker rejects a far match")

    join = BatchJoin(*args)
    names = inputs.join_corpus(1, 0, inputs.TINY)
    ref = join.reference
    found = sorted(
        (i, j)
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if ref.nsld_at_most(names[i], names[j], T) is not None
    )
    index_pairs = set(found)
    pairs = [(names[i], names[j], ref.nsld(names[i], names[j])) for i, j in found]
    everyone = range(len(names))
    wrong = [(a, b, d + 0.01) for a, b, d in pairs]
    far_pair = (names[0], names[1], ref.nsld(names[0], names[1]))
    with_far = pairs + [far_pair]
    join_correct = join.join_correct
    expect(bool(pairs), "the tiny join corpus has pairs within T")
    expect(
        join_correct(names, pairs, index_pairs, everyone),
        "join checker accepts the reference",
    )
    expect(
        not join_correct(names, pairs[1:], index_pairs - {found[0]}, everyone),
        "join checker rejects a dropped pair",
    )
    expect(
        not join_correct(names, wrong, index_pairs, everyone),
        "join checker rejects a wrong distance",
    )
    expect(
        far_pair[2] <= T
        or not join_correct(names, with_far, index_pairs | {(0, 1)}, everyone),
        "join checker rejects a pair beyond T",
    )


def check_workloads(run_workload) -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for name, workload_class in WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload_class, 3, 1.0, trace, inputs.TINY)
            label = f"tiny {name} (trace {int(trace)})"
            expect(
                result["correct"] and result["attempted"] > 0 and not result["failed"],
                f"{label}: correct, {result['attempted']} ops, "
                f"{result['failed']} failed",
            )
            reported = {key: value["unit"] for key, value in result["metrics"].items()}
            wanted = {metric["name"]: metric["unit"] for metric in declared[section]}
            expect(reported == wanted, f"{label} reports exactly the {section} metrics")


class _RejectsOne(ScreenTopK):
    """A workload whose checks reject the first op's answer."""

    def check(self) -> set[int]:
        return super().check() | {0}


class _CheckRaises(ScreenTopK):
    """A workload whose checks cannot run."""

    def check(self) -> set[int]:
        raise RuntimeError("the reference is unavailable")


def check_verdict(run_workload) -> None:
    """A run whose checks reject an answer, or cannot run, is not correct."""
    result = run_workload(_RejectsOne, 3, 0.5, False, inputs.TINY)
    expect(
        not result["correct"] and result["failed"] == 1,
        "a run whose checks reject one answer reports correct false, 1 failed",
    )
    result = run_workload(_CheckRaises, 3, 0.5, False, inputs.TINY)
    expect(
        not result["correct"] and result["failed"] == result["attempted"],
        "a run whose checks raise reports correct false, every op failed",
    )


def main(run_workload) -> int:
    check_reference()
    check_checkers()
    check_verdict(run_workload)
    check_workloads(run_workload)
    print(f"self-check: {len(_failures)} failure(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit("run it as: python3 perfbench/run.py --self-check")
