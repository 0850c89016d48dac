"""The three workloads: set-up, one op, and the checks of every answer.

Each workload drives the program through its public API only --
:class:`repro.api.Session`, :class:`repro.server.ReproServer` and
:class:`repro.client.ServiceClient` -- with a single closed-loop client:
the server runs every spec and append under one run lock, so more
clients would only queue.  The server runs on a thread of the
benchmark's process, so the traced run sees both sides of a request.

Answers are recorded during the timed loop and checked afterwards
against :mod:`reference`, which shares no code with the program; a
check that fails marks its op as failed.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
from time import perf_counter

from repro.api import JoinSpec, Session, TopKSpec, WithinSpec
from repro.client import ServiceClient
from repro.runtime import shutdown_shared_pool
from repro.server import ReproServer

import inputs
from inputs import BACKLOG, K, THRESHOLD
from reference import Reference
from tracing import TRANSPORT

#: Serving-path warm-up query; never produced by the generated streams.
WARMUP_QUERY = "warm up probe"

#: Distinct top-k queries whose answers are checked in full per run.
TOPK_CHECKED = 12
#: Enrolled names re-queried after each warm restart.
RESTART_CHECKED = 3
#: Records per join op whose partners are checked for completeness.
JOIN_RECORDS_CHECKED = 6

SHARDS = 4
PLACEMENT = "length"
JOIN_PARAMS = {"max_token_frequency": None}
# batch-join runs on the serial engine, not on the default "auto".  On a
# 2-CPU virtual machine "auto" picks the parallel engine, whose map and
# reduce phases wait for whichever CPU the hypervisor steals: its op p50
# spread 26% over 10 seeds, and 10.6% against the serial engine's 5.7%
# when the two ran alternately.  It is also slower there (README.md).
JOIN_ENGINE = "serial"


class _Workload:
    """Shared plumbing: the tracer hook around client requests."""

    #: Warm restarts timed after the loop (``enroll-sharded`` only).
    restarts = 0

    def __init__(self, seed: int, scale: inputs.Scale, tracer, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.workdir = workdir
        self.reference = Reference()

    def _request(self, call, *args):
        """One client request, traced as ``server.transport`` when on."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return call(*args)
        record = tracer.open(TRANSPORT)
        tracer.anchor = record[0]
        try:
            return call(*args)
        finally:
            tracer.anchor = None
            tracer.close(record)

    def _warm_up(self) -> None:
        """Wait for the server to answer, then build the resident index.

        A range probe builds the index and its probe arrays at little
        extra cost, so set-up time is the build, not one top-k scan of a
        corpus-dependent cost.
        """
        self.client.health()
        self.client.run(WithinSpec(queries=(WARMUP_QUERY,), radius=THRESHOLD))

    def prepare(self) -> None:
        """Called once, before the timed set-ups."""

    def begin(self) -> None:
        """Called once, right before the timed loop."""

    def finish(self) -> dict:
        """Called once after the timed loop; returns extra figures."""
        return {}

    def figures(self, extras: dict) -> list[str]:
        """Printed-only end-to-end figures of this workload."""
        return []

    def restart(self, index: int) -> bool:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError


class ScreenTopK(_Workload):
    """Top-5 screening lookups over HTTP against an unsharded index."""

    name = "screen-topk"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.corpus = inputs.corpus(self.scale.screen_corpus, self.seed)
        self.session = self.server = self.client = None

    def setup(self) -> None:
        self.session = Session(self.corpus)
        self.server = ReproServer(session=self.session).start()
        self.client = ServiceClient(self.server.url)
        self._warm_up()
        self.stream = inputs.QueryStream(self.seed, self.corpus)
        #: per op: (op id, query, matches, counters)
        self.answers: list[tuple] = []

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.server.close()
        self.session = self.server = self.client = None

    def round(self) -> list[str]:
        return self.stream.round()

    def op(self, op_id: int, query: str) -> None:
        result = self._request(self.client.run, TopKSpec(queries=(query,), k=K))
        self.answers.append((op_id, query, result.matches[0], result.counters))

    def check(self) -> set[int]:
        by_query: dict[str, list] = {}
        for op_id, query, matches, _ in self.answers:
            by_query.setdefault(query, []).append((op_id, matches))
        failed: set[int] = set()
        # A repeat must return exactly the answer its query got first.
        for runs in by_query.values():
            first = runs[0][1]
            failed.update(op_id for op_id, matches in runs if matches != first)
        rng = random.Random(self.seed + 17)
        queries = list(by_query)
        for query in rng.sample(queries, min(TOPK_CHECKED, len(queries))):
            if not self.topk_correct(query, by_query[query][0][1]):
                failed.update(op_id for op_id, _ in by_query[query])
        return failed

    def topk_correct(self, query: str, matches) -> bool:
        """Returned distances equal the reference's k smallest (ties at
        the k-th distance may pick any record), and each returned name is
        a resident name at exactly its returned distance."""
        expected = self.reference.distances(query, self.corpus)[:K]
        residents = set(self.corpus)
        return [distance for _, distance in matches] == expected and all(
            name in residents and self.reference.nsld(query, name) == distance
            for name, distance in matches
        )

    def cascade(self) -> list[tuple[dict, int]]:
        return [(counters, len(matches)) for _, _, matches, counters in self.answers]


class EnrollSharded(_Workload):
    """Screen each new account with ``within`` over HTTP, then enrol it
    via ``/v1/append`` into a durable 4-shard session."""

    name = "enroll-sharded"
    restarts = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.corpus = inputs.corpus(self.scale.enroll_corpus, self.seed)
        self.store_dir = os.path.join(self.workdir, "store")
        self.session = self.server = self.client = None
        self.recovery_seconds: list[float] = []

    def _open(self) -> Session:
        return Session(
            self.corpus, shards=SHARDS, placement=PLACEMENT, store_dir=self.store_dir
        )

    def prepare(self) -> None:
        """Write the store every set-up restarts from: the corpus's first
        snapshot, then a backlog of the stream's first names, one
        append each, left in the write-ahead log."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
        session = self._open()
        self.stream = inputs.EnrollStream(self.seed, self.corpus)
        self.backlog = [self.stream.next() for _ in range(BACKLOG)]
        for offset, name in enumerate(self.backlog):
            session.append([name], len(self.corpus) + offset)
        del session
        gc.collect()

    def setup(self) -> None:
        # A warm restart: snapshot load plus replay of the backlog.
        self.session = self._open()
        #: Enrolled names in acknowledged order, the backlog first.
        self.enrolled = list(self.backlog)
        self.server = ReproServer(session=self.session).start()
        self.client = ServiceClient(self.server.url)
        self._warm_up()
        #: per op: (op id, name, records before, matches, counters, acked total)
        self.answers: list[tuple] = []
        self.within_seconds: list[float] = []
        self.append_seconds: list[float] = []

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.server.close()
        self.session = self.server = self.client = None

    def round(self) -> list[str]:
        return [self.stream.next()]

    def begin(self) -> None:
        metrics = self.client.metrics()
        self.routing_before = metrics["shards"]["routing"]
        self.generation_before = metrics["store"]["generation"]

    def op(self, op_id: int, name: str) -> None:
        before = len(self.corpus) + len(self.enrolled)
        start = perf_counter()
        result = self._request(
            self.client.run, WithinSpec(queries=(name,), radius=THRESHOLD)
        )
        middle = perf_counter()
        acked = self._request(self.client.append, [name], before)
        end = perf_counter()
        self.within_seconds.append(middle - start)
        self.append_seconds.append(end - middle)
        self.enrolled.append(name)
        self.answers.append(
            (op_id, name, before, result.matches[0], result.counters, acked["records"])
        )

    def finish(self) -> dict:
        metrics = self.client.metrics()
        routing = metrics["shards"]["routing"]
        probed = routing["shards_probed"] - self.routing_before["shards_probed"]
        pruned = routing["shards_pruned"] - self.routing_before["shards_pruned"]
        store_bytes = sum(
            os.path.getsize(os.path.join(folder, entry))
            for folder, _, entries in os.walk(self.store_dir)
            for entry in entries
        )
        self.teardown()
        gc.collect()
        return {
            "store_mb": store_bytes / 1e6,
            "compactions": metrics["store"]["generation"] - self.generation_before,
            "shard.pruned_ratio": pruned / max(1, probed + pruned),
        }

    def restart(self, index: int) -> bool:
        """One timed warm restart of the store the run wrote, checked."""
        start = perf_counter()
        session = self._open()
        seconds = perf_counter() - start
        self.recovery_seconds.append(seconds)
        everyone = self.corpus + self.enrolled
        probe = session.run(WithinSpec(queries=(WARMUP_QUERY,), radius=THRESHOLD))
        correct = probe.collection_size == len(everyone)
        rng = random.Random(self.seed * 31 + index)
        for name in rng.sample(self.enrolled, min(RESTART_CHECKED, len(self.enrolled))):
            spec = WithinSpec(queries=(name,), radius=THRESHOLD)
            matches = session.run(spec).matches[0]
            correct &= [name, 0.0] in matches and self.within_correct(
                name, everyone, matches
            )
        del session
        gc.collect()
        return correct

    def figures(self, extras: dict) -> list[str]:
        restarts = self.recovery_seconds
        within_ms = statistics.median(self.within_seconds) * 1000
        append_ms = statistics.median(self.append_seconds) * 1000
        return [
            f"  within_p50_ms     {within_ms:.3f} ms",
            f"  append_p50_ms     {append_ms:.3f} ms",
            f"  recovery_s        {statistics.median(restarts):.4f} s  "
            f"(median of {len(restarts)} warm restarts)",
            f"  store_mb          {extras['store_mb']:.4f} MB",
            f"  compactions       {extras['compactions']} during the timed loop",
        ]

    def check(self) -> set[int]:
        failed: set[int] = set()
        everyone = self.corpus + self.enrolled
        for op_id, name, before, matches, _, acked in self.answers:
            if acked != before + 1 or not self.within_correct(
                name, everyone[:before], matches
            ):
                failed.add(op_id)
        return failed

    def within_correct(self, name: str, corpus, matches) -> bool:
        """The answer is exactly the reference's matches within T."""
        got = sorted((distance, match) for match, distance in matches)
        return got == self.reference.within(name, corpus, THRESHOLD)

    def cascade(self) -> list[tuple[dict, int]]:
        return [(answer[4], len(answer[3])) for answer in self.answers]


class BatchJoin(_Workload):
    """The paper's experiment: a lossless TSJ NSLD self-join of a fresh
    corpus per op, in process, on the serial engine."""

    name = "batch-join"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.warmup = tuple(inputs.warmup_corpus())
        self.next_op = 0
        self.session = None

    def setup(self) -> None:
        self.session = Session(engine=JOIN_ENGINE)
        # The warm-up join runs on the parallel engine, the one "auto"
        # picks on a multi-CPU host: it starts the runtime's worker pool
        # and sends its MapReduce jobs of 1024 records or more through
        # it.  The timed joins stay on JOIN_ENGINE.
        self.session.run(
            JoinSpec(
                names=self.warmup,
                threshold=THRESHOLD,
                params=JOIN_PARAMS,
                engine="parallel",
            )
        )
        #: per op: (op id, names, pairs, index pairs, counters)
        self.answers: list[tuple] = []

    def teardown(self) -> None:
        self.session = None
        shutdown_shared_pool()

    def round(self) -> list[tuple[str, ...]]:
        names = tuple(inputs.join_corpus(self.seed, self.next_op, self.scale))
        self.next_op += 1
        return [names]

    def op(self, op_id: int, names: tuple[str, ...]) -> None:
        result = self.session.run(
            JoinSpec(names=names, threshold=THRESHOLD, params=JOIN_PARAMS)
        )
        index_pairs = set(map(tuple, result.index_pairs))
        self.answers.append((op_id, names, result.pairs, index_pairs, result.counters))

    def check(self) -> set[int]:
        failed: set[int] = set()
        rng = random.Random(self.seed + 29)
        for op_id, names, pairs, index_pairs, _ in self.answers:
            count = min(JOIN_RECORDS_CHECKED, len(names))
            sample = rng.sample(range(len(names)), count)
            if not self.join_correct(names, pairs, index_pairs, sample):
                failed.add(op_id)
        return failed

    def join_correct(self, names, pairs, index_pairs, sample) -> bool:
        """Every reported pair is within T at its reported distance, and
        every partner within T of each sampled record is reported."""
        nsld = self.reference.nsld
        if any(nsld(a, b) != d or d > THRESHOLD for a, b, d in pairs):
            return False
        within = self.reference.nsld_at_most
        for i in sample:
            for j, other in enumerate(names):
                if j != i and within(names[i], other, THRESHOLD) is not None:
                    if (min(i, j), max(i, j)) not in index_pairs:
                        return False
        return True

    def cascade(self) -> list[tuple[dict, int]]:
        return [(answer[4], len(answer[2])) for answer in self.answers]


WORKLOADS = {cls.name: cls for cls in (ScreenTopK, EnrollSharded, BatchJoin)}
