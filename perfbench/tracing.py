"""The traced run: spans recorded from the benchmark's own files.

:class:`Tracer` keeps spans in memory -- ``[id, name, start_ns, end_ns,
parent_id, op_id]`` -- and :meth:`Tracer.install` wraps the public
functions of each layer where the calling module binds them (a class
attribute for methods, the importing module's global for functions).
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back, so untraced rounds of the same run execute the program
exactly as the untraced benchmark does.

A span opened on a thread with no open span takes :attr:`Tracer.anchor`
as its parent: the benchmark sets it to the client's request span, so
the server thread's ``handle`` nests under the request that caused it.
A span's self-time is its duration minus its children's durations;
summed over the spans of one op, self-times equal the op's wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter_ns

#: Spans the benchmark opens itself: the op, and each client request.
OP = "bench.op"
TRANSPORT = "server.transport"
#: The span of the call that starts the runtime's shared worker pool.
POOL_START = "runtime.pool_start"


class Tracer:
    """In-memory span and counter recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        #: Parent for spans opened on a thread with no span open.
        self.anchor: int | None = None
        #: The op (or phase, e.g. ``"setup"``) the next spans belong to.
        self.op_id = None
        #: ``(op_id, key) -> number`` for count-only probes and values
        #: read off results (shuffle bytes, compactions, ...).
        self.values: dict = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1][0] if stack else self.anchor
        record = [next(self._ids), name, perf_counter_ns(), 0, parent, self.op_id]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[3] = perf_counter_ns()
        self._local.stack.pop()
        self.spans.append(record)

    def add(self, key: str, amount=1) -> None:
        self.values[(self.op_id, key)] += amount

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, function, name, on_result=None):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            record = tracer.open(label)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(record)
            if on_result is not None:
                on_result(record, args, result)
            return result

        return wrapper

    def _count_wrapper(self, function, key):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.values[(tracer.op_id, key)] += 1
            return function(*args, **kwargs)

        return wrapper

    def _pool_start_wrapper(self, runtime_pool):
        """``shared_pool`` as ``pool_map`` finds it; a span only for the
        call that creates the pool."""
        tracer = self
        function = runtime_pool.shared_pool

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if runtime_pool.shared_pool_size():
                return function(*args, **kwargs)
            record = tracer.open(POOL_START)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(record)

        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every traced layer boundary; idempotent."""
        if self._originals:
            return
        import repro.accel.verify as accel_verify
        import repro.distances.setwise as setwise
        import repro.runtime.pool as runtime_pool
        import repro.service.index as service_index
        from repro.accel.vocab import Vocab
        from repro.api.session import Session
        from repro.mapreduce.engine import MapReduceEngine
        from repro.server import SimilarityService
        from repro.service import SimilarityIndex
        from repro.shard import ShardedIndex, ShardedSnapshotStore
        from repro.tokenize import Tokenizer
        from repro.tsj import TSJ

        span = self._span_wrapper
        patch = self._patch

        def spans(owner, attributes, name, on_result=None):
            for attribute in attributes:
                original = getattr(owner, attribute)
                patch(owner, attribute, span(original, name, on_result))

        spans(SimilarityService, ["handle"], "server.handle")
        spans(Session, ["run"], "api.run")
        spans(Session, ["append"], "api.append")
        spans(ShardedIndex, ["topk", "within"], "shard.route")
        spans(ShardedIndex, ["append"], "service.append")
        spans(SimilarityIndex, ["topk", "within", "_shard_within"], "service.probe")
        spans(service_index, ["verify_nld_pairs"], "candidates.verify_nld")
        # Serving delegates exact verification to setwise.nsld through its
        # own import; TSJ's in-process verification reaches it through
        # setwise.nsld_within, which looks the name up in setwise.
        spans(service_index, ["nsld"], "distances.nsld")
        spans(setwise, ["nsld"], "distances.nsld")
        spans(setwise, ["hungarian"], "distances.hungarian")
        spans(accel_verify, ["verify_within_batch"], "accel.verify_batch")
        spans(Tokenizer, ["tokenize"], "tokenize")
        spans(ShardedSnapshotStore, ["log_append"], "store.wal_append")
        spans(ShardedSnapshotStore, ["open"], "store.open")
        spans(ShardedSnapshotStore, ["_replay_into"], "store.replay")
        spans(TSJ, ["self_join"], "tsj.self_join")

        def compacted(record, args, result):
            if result:
                self.add("store.compactions")
                self.add("store.compact_ns", record[3] - record[2])

        spans(ShardedSnapshotStore, ["maybe_compact"], "store.maybe_compact", compacted)

        def job_name(args):
            return "mapreduce." + type(args[1]).__name__

        def job_metrics(record, args, result):
            self.add("mapreduce.shuffle_bytes", result.metrics.total_shuffle_bytes)
            self.add("mapreduce.ops", result.metrics.total_ops)

        spans(MapReduceEngine, ["run"], job_name, job_metrics)

        patch(Vocab, "distance", self._count_wrapper(Vocab.distance, "accel.token_ld"))
        patch(runtime_pool, "shared_pool", self._pool_start_wrapper(runtime_pool))
        self.enabled = True

    def uninstall(self) -> None:
        """Put every original back (reverse order: nested patches unwind)."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
        self.enabled = False

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """Span id -> self-time in ns (duration minus children's)."""
        children: dict[int, int] = defaultdict(int)
        for record in self.spans:
            if record[4] is not None:
                children[record[4]] += record[3] - record[2]
        return {
            record[0]: record[3] - record[2] - children.get(record[0], 0)
            for record in self.spans
        }

    def by_op(self) -> dict:
        """``op_id -> {span name -> [self ns, inclusive ns, calls]}``."""
        selfs = self.self_times()
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        for record in self.spans:
            row = table[record[5]][record[1]]
            row[0] += selfs[record[0]]
            row[1] += record[3] - record[2]
            row[2] += 1
        return table

    def check_self_sums(self) -> int:
        """Largest |sum of self-times - op wall time| over ops, in ns."""
        selfs = self.self_times()
        walls: dict = {}
        sums: dict = defaultdict(int)
        for record in self.spans:
            if record[1] == OP:
                walls[record[5]] = record[3] - record[2]
            sums[record[5]] += selfs[record[0]]
        return max((abs(sums[op] - wall) for op, wall in walls.items()), default=0)

    def dump(self, path: str, summary: dict) -> None:
        """Write the spans (one JSON array per line) after a summary line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(summary) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
