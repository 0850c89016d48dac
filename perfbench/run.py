"""One benchmark for the whole stack: run one workload, check it, report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload screen-topk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --describe --seed 1      # workload make-up
    python3 perfbench/run.py --self-check             # tiny pass + checker tests

A run sets the workload up several times (``setup_s`` is the median),
runs whole rounds of ops in a closed loop for ``--seconds``, then checks
every recorded answer against the independent reference.  Human-readable
lines go first; the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``correct`` is false, and the exit code 1, when a check rejects an
answer, an op raises, or the checks cannot run.

The traced run alternates untraced and traced rounds: the untraced ones
give the tracing overhead (``trace.overhead_pct``), the traced ones the
per-layer breakdown.  Spans are written to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: CPUs a run may use (see :func:`_cap_cpus`).
MAX_CPUS = 2

#: ``mapreduce.<JobClass>_s`` is reported for each job of the TSJ pipeline.
JOB_CLASSES = (
    "TokenFrequencyJob",
    "SharedTokenCandidatesJob",
    "TokenPairFanoutJob",
    "TokenPairJoinJob",
    "DedupFilterJob",
    "ResolveLeftJob",
    "VerifyJob",
)

#: Per-layer metric -> span name whose self-time per op it reports (ms).
SELF_MS = {
    "bench.op_self_ms": "bench.op",
    "server.transport_ms": "server.transport",
    "server.handle_self_ms": "server.handle",
    "api.run_self_ms": "api.run",
    "api.append_self_ms": "api.append",
    "shard.route_self_ms": "shard.route",
    "service.probe_self_ms": "service.probe",
}
#: Per-layer metric -> span name whose inclusive time per op it reports (ms).
INCLUSIVE_MS = {
    "service.append_ms": "service.append",
    "candidates.verify_nld_ms": "candidates.verify_nld",
    "distances.nsld_ms": "distances.nsld",
    "distances.hungarian_ms": "distances.hungarian",
    "accel.verify_batch_ms": "accel.verify_batch",
    "tokenize.ms": "tokenize",
    "store.wal_append_ms": "store.wal_append",
}
#: Per-layer metric -> span name whose inclusive time per op it reports (s).
INCLUSIVE_S = {"tsj.self_join_s": "tsj.self_join"}
INCLUSIVE_S.update({f"mapreduce.{job}_s": f"mapreduce.{job}" for job in JOB_CLASSES})
#: Per-layer metric -> span name whose calls per op it reports.
CALLS = {"distances.nsld_calls_per_op": "distances.nsld", "tokenize.calls": "tokenize"}
#: Per-layer metric -> tracer value summed per op.
VALUES = {
    "accel.token_ld_calls_per_op": "accel.token_ld",
    "mapreduce.shuffle_bytes": "mapreduce.shuffle_bytes",
    "mapreduce.ops": "mapreduce.ops",
}
#: Canonical cascade counters read off each envelope.
CASCADE = {
    "candidates.generated_per_op": "candidates_generated",
    "candidates.pruned_length_per_op": "pruned_by_length",
    "candidates.pruned_count_per_op": "pruned_by_count",
    "candidates.verified_per_op": "pairs_verified",
}



def declared_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run
    against anything else (a bare copy of the benchmark has no program)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program to measure: {source}/repro is missing")
    sys.path[:0] = [source, HERE]


def _cap_cpus(cpus: int = MAX_CPUS) -> None:
    """Run on at most ``cpus`` CPUs: the runtime sizes its worker pool by
    the CPUs this process may use, so a larger host starts no more
    workers than the 2-CPU host the bounds were set on."""
    if hasattr(os, "sched_getaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) > cpus:
            os.sched_setaffinity(0, allowed[:cpus])


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """``(p, value)``: the highest whole percentile with at least ten
    samples beyond it; ``None`` below forty samples (no tail to speak of)."""
    n = len(latencies)
    if n < 40:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(
    workload_class, seed: int, seconds: float, trace: bool, scale=None
) -> dict:
    """Run one workload; returns the result object (plus a ``report``
    of human-readable lines)."""
    import inputs
    from tracing import OP, Tracer

    name = workload_class.name
    units = declared_units()
    scale = scale or inputs.FULL
    tracer = Tracer() if trace else None
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workload_class(seed, scale, tracer, workdir)
    op_seconds: dict[bool, list[float]] = {False: [], True: []}
    failed: set = set()
    attempted = 0
    try:
        workload.prepare()
        if tracer is not None:
            tracer.install()
        setups = []
        for index in range(SETUPS):
            if index:
                workload.teardown()
                gc.collect()
            if tracer is not None:
                tracer.op_id = f"setup-{index}"
            start = perf_counter()
            workload.setup()
            setups.append(perf_counter() - start)
        workload.begin()

        # Whole rounds only; in a traced run odd rounds are traced and even
        # rounds run the unwrapped program, for the overhead figure.
        start = perf_counter()
        rounds = 0
        while perf_counter() - start < seconds:
            traced = tracer is not None and rounds % 2 == 1
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
            for argument in workload.round():
                op_id = attempted
                attempted += 1
                if traced:
                    tracer.op_id = op_id
                    root = tracer.open(OP)
                began = perf_counter()
                try:
                    workload.op(op_id, argument)
                except Exception as exc:  # noqa: BLE001 -- counted, reported
                    failed.add(op_id)
                    print(f"op {op_id} failed: {exc!r}", file=sys.stderr)
                op_seconds[traced].append(perf_counter() - began)
                if traced:
                    tracer.close(root)
            rounds += 1
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extras = workload.finish()

        for index in range(workload.restarts):
            if tracer is not None:
                tracer.install()
                tracer.op_id = f"restart-{index}"
            attempted += 1
            if not workload.restart(index):
                failed.add(f"restart-{index}")
        if tracer is not None:
            tracer.uninstall()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        failed |= workload.check()
        checked = True
    except Exception as exc:  # noqa: BLE001 -- no answer could be confirmed
        print(f"the checks failed to run: {exc!r}", file=sys.stderr)
        checked = False
    if not checked:
        failed = set(range(attempted))

    untraced = op_seconds[False]
    report = [
        f"{name} seed {seed}: {attempted} ops attempted, {len(failed)} failed, "
        f"set-ups {', '.join(f'{value:.3f}' for value in setups)} s"
    ]
    if tracer is None:
        latencies_ms = [value * 1000 for value in untraced]
        metrics = {
            "setup_s": _median(setups),
            "throughput_ops": len(untraced) / sum(untraced),
            "op_p50_ms": _median(latencies_ms),
            "peak_rss_mb": peak_rss_mb,
        }
        found = tail(latencies_ms)
        if found is not None:
            percentile, value = found
            report.append(
                f"  op_tail_ms        {value:.3f} ms  "
                f"(p{percentile} of {len(latencies_ms)} ops)"
            )
        report += workload.figures(extras)
    else:
        metrics = per_layer(tracer, workload, op_seconds, extras)
        drift = tracer.check_self_sums()
        report.append(
            f"  traced ops {len(op_seconds[True])}, untraced {len(untraced)}; "
            f"largest |sum of span self-times - op wall time| {drift} ns"
        )
        tracer.dump(
            os.path.join(ROOT, ".perfbench_out", f"spans-{name}-seed{seed}.jsonl"),
            {"workload": name, "seed": seed, "metrics": metrics, "drift_ns": drift},
        )
        if drift > 1000:
            raise RuntimeError(f"span self-times miss the op wall time by {drift} ns")
    for key, value in metrics.items():
        report.append(f"  {key:<32} {value:.6g} {units[key]}")
    return {
        "correct": checked and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
        "report": report,
    }


def per_layer(tracer, workload, op_seconds, extras) -> dict:
    """The per-layer metrics of a traced run (means per traced op)."""
    from tracing import POOL_START

    traced_ops = len(op_seconds[True])
    per_op = max(1, traced_ops)
    table = tracer.by_op()
    ops = [op for op in table if isinstance(op, int)]

    def span_total(span: str, column: int) -> int:
        return sum(table[op][span][column] for op in ops if span in table[op])

    def value_total(key: str) -> int:
        return sum(
            value
            for (op, name), value in tracer.values.items()
            if name == key and isinstance(op, int)
        )

    metrics: dict[str, float] = {}
    for metric, span in SELF_MS.items():
        metrics[metric] = span_total(span, 0) / per_op / 1e6
    for metric, span in INCLUSIVE_MS.items():
        metrics[metric] = span_total(span, 1) / per_op / 1e6
    for metric, span in INCLUSIVE_S.items():
        metrics[metric] = span_total(span, 1) / per_op / 1e9
    for metric, span in CALLS.items():
        metrics[metric] = span_total(span, 2) / per_op
    for metric, key in VALUES.items():
        metrics[metric] = value_total(key) / per_op

    cascade = workload.cascade()
    count = max(1, len(cascade))
    for metric, key in CASCADE.items():
        metrics[metric] = sum(counters.get(key, 0) for counters, _ in cascade) / count
    verified = sum(counters.get("pairs_verified", 0) for counters, _ in cascade)
    returned = sum(n for counters, n in cascade if counters.get("pairs_verified", 0))
    metrics["candidates.yield"] = returned / max(1, verified)
    hits = sum(counters.get("result_cache_hits", 0) for counters, _ in cascade)
    misses = sum(counters.get("result_cache_misses", 0) for counters, _ in cascade)
    metrics["service.cache_hit_ratio"] = hits / max(1, hits + misses)
    metrics["shard.pruned_ratio"] = extras.get("shard.pruned_ratio", 0.0)

    compactions = value_total("store.compactions")
    metrics["store.compactions"] = compactions
    metrics["store.compact_ms"] = (
        value_total("store.compact_ns") / compactions / 1e6 if compactions else 0.0
    )
    loads, replays = [], []
    for op, row in table.items():
        if isinstance(op, str) and op.startswith("restart-") and "store.open" in row:
            replay = row["store.replay"][1] if "store.replay" in row else 0
            loads.append((row["store.open"][1] - replay) / 1e9)
            replays.append(replay / 1e9)
    metrics["store.load_s"] = _median(loads)
    metrics["store.replay_s"] = _median(replays)
    metrics["runtime.pool_start_s"] = _median(
        [
            row[POOL_START][1] / 1e9
            for op, row in table.items()
            if isinstance(op, str) and op.startswith("setup-") and POOL_START in row
        ]
    )

    untraced, traced = op_seconds[False], op_seconds[True]
    if untraced and traced:
        overhead = (statistics.fmean(traced) / statistics.fmean(untraced) - 1) * 100
    else:
        overhead = 0.0
    metrics["trace.overhead_pct"] = overhead
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=("screen-topk", "enroll-sharded", "batch-join")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--describe", action="store_true", help="print each workload's make-up"
    )
    parser.add_argument(
        "--self-check", action="store_true", help="checker tests and a tiny pass"
    )
    args = parser.parse_args(argv)
    _import_program()
    _cap_cpus()
    if args.describe:
        import inputs

        print(json.dumps(inputs.describe(args.seed), indent=2))
        return 0
    if args.self_check:
        import selfcheck

        return selfcheck.main(run_workload)
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import WORKLOADS

    workload_class = WORKLOADS[args.workload]
    result = run_workload(workload_class, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
