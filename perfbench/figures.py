"""Reference figures for the README: the same request in process and over
HTTP, and one ``batch-join`` op under the ``auto`` and ``serial`` engines.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/figures.py

Prints a Markdown table with the host facts the figures depend on.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
from repro.api import JoinSpec, Session, TopKSpec, WithinSpec  # noqa: E402
from repro.client import ServiceClient  # noqa: E402
from repro.runtime import (  # noqa: E402
    available_cpus,
    resolve_engine,
    shutdown_shared_pool,
)
from repro.server import ReproServer  # noqa: E402

REPEATS = 40


def median_ms(call, arguments) -> float:
    samples = []
    for argument in arguments:
        start = perf_counter()
        call(argument)
        samples.append((perf_counter() - start) * 1000)
    return statistics.median(samples)


def serving_rows(workdir: str) -> list[tuple[str, float, float]]:
    names = inputs.corpus(inputs.FULL.screen_corpus, 1)
    arrivals = inputs.EnrollStream(1, names)
    fresh = [arrivals.next() for _ in range(4 * REPEATS)]
    rows = []

    local = Session(names)
    remote = Session(names)
    with ReproServer(session=remote) as server, ServiceClient(server.url) as client:
        cached = TopKSpec(queries=(fresh[0],), k=inputs.K)
        local.run(cached)
        client.run(cached)
        rows.append((
            "cached top-5 lookup",
            median_ms(lambda _: local.run(cached), range(REPEATS)),
            median_ms(lambda _: client.run(cached), range(REPEATS)),
        ))

        def within(name):
            return WithinSpec(queries=(name,), radius=inputs.THRESHOLD)

        names_in = fresh[REPEATS : 2 * REPEATS]
        rows.append((
            "within, T=0.1 (uncached)",
            median_ms(lambda name: local.run(within(name)), names_in),
            median_ms(lambda name: client.run(within(name)), names_in),
        ))

    local = Session(names, shards=4, store_dir=os.path.join(workdir, "local"))
    remote = Session(names, shards=4, store_dir=os.path.join(workdir, "remote"))
    with ReproServer(session=remote) as server, ServiceClient(server.url) as client:
        batch = fresh[2 * REPEATS : 3 * REPEATS]
        rows.append((
            "durable append, 4 shards",
            median_ms(lambda name: local.append([name]), batch),
            median_ms(lambda name: client.append([name]), batch),
        ))
    return rows


def join_seconds(engine: str) -> float:
    shutdown_shared_pool()
    session = Session(engine=engine)
    lossless = {"max_token_frequency": None}
    session.run(JoinSpec(names=tuple(inputs.warmup_corpus()), params=lossless))
    samples = []
    for op in range(3):
        spec = JoinSpec(
            names=tuple(inputs.join_corpus(1, op)),
            threshold=inputs.THRESHOLD,
            params=lossless,
        )
        start = perf_counter()
        session.run(spec)
        samples.append(perf_counter() - start)
    shutdown_shared_pool()
    return statistics.median(samples)


def main() -> None:
    import numpy

    workdir = os.path.join(ROOT, ".perfbench_work", f"figures-{os.getpid()}")
    try:
        rows = serving_rows(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"Host: {available_cpus()} CPUs, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}; engine='auto' resolves to "
        f"{resolve_engine('auto')!r}.\n"
    )
    print("| request | in process (ms, median) | over HTTP (ms, median) |")
    print("|---|---|---|")
    for label, local_ms, remote_ms in rows:
        print(f"| {label} | {local_ms:.2f} | {remote_ms:.2f} |")
    auto, serial = join_seconds("auto"), join_seconds("serial")
    print(
        f"\nOne batch-join op ({inputs.FULL.join_corpus} names, median of 3): "
        f"auto {auto:.2f} s, serial {serial:.2f} s."
    )


if __name__ == "__main__":
    main()
