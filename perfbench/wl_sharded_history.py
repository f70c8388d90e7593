"""``sharded-history``: sharded ingest into a durable epoch store, then
windowed queries.

Each round builds ``spanning_forest`` on ``.sharded(sites=4,
strategy="hash-edge")`` in sequential mode with ``.epochs(count=T,
store=<dir>)``, ingests one churn stream whole, then asks seeded random
``[t1, t2)`` window ``connectivity`` queries, then snapshots and
restores the engine.  Sealing writes and window paging reads hit the
same store within a round.  With a store attached the snapshot is a
small pointer blob and a restore reopens the store's catalog, so those
two time the pointer path, not the codec; each sample is the mean of a
block of pairs because one pair takes well under a millisecond.

It covers the coordinator fold path — partition, per-site consume,
per-epoch codec dump, coordinator merge — plus store append, fsync,
compaction and paging; the codec dominates.  Serve, per-level dispatch
and Gomory–Hu are bypassed.  Process mode is left out: on two shared
cores it would measure the scheduler.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from typing import Any

import numpy as np

import benchlib
from benchlib import SKETCH_SEED, HostSpeed, Report, canonical, median_setup, per_run, \
    stationary_churn, without_telemetry

N = 256
SITES = 4
EPOCHS = 4
LIVE = 256
TOKENS = 800
#: Every ``[t1, t2)`` window of the grid.  Windows differ in how many
#: stored spans they merge, so each run asks them in equal shares (in a
#: seeded order) to keep one mix of query costs from run to run.
WINDOWS = [(t1, t2) for t1 in range(EPOCHS) for t2 in range(t1 + 1, EPOCHS + 1)]
WINDOWS_PER_ROUND = 5
#: Snapshot → restore pairs timed as one block per round.
POINTER_PAIRS = 20
SETUPS = 5
#: (round, window) answers compared with a local engine after the phase.
CHECKED_WINDOWS = 6
#: Rounds per second of --seconds (a round takes about 0.9 s on a 2-vCPU
#: VM): untraced, and in the traced comparison (which runs them twice).
ROUNDS_PER_SECOND = 1.1
TRACED_ROUNDS_PER_SECOND = 0.4


class State:
    def __init__(self, repro: Any, seed: int) -> None:
        self.repro = repro
        self.seed = seed
        self.spec = repro.SketchSpec.of("spanning_forest", N, seed=SKETCH_SEED)
        self.dirs = 0
        self.rounds: list[dict[str, Any]] = []

    def stream(self, index: int) -> Any:
        """The churn stream of round ``index`` (negative: set-up rounds)."""
        rng = np.random.default_rng([self.seed, 3, index + 1000])
        c = stationary_churn(N, LIVE, TOKENS, rng)
        return self.repro.DynamicGraphStream(N, [
            self.repro.EdgeUpdate(int(u), int(v), int(d))
            for u, v, d in zip(c.lo, c.hi, c.delta)
        ])

    def engine(self) -> Any:
        """A fresh engine over a fresh store directory."""
        self.dirs += 1
        path = benchlib.SCRATCH / f"store-{self.dirs}"
        return self.repro.GraphSketchEngine.for_spec(self.spec).sharded(
            sites=SITES, strategy="hash-edge", seed=SKETCH_SEED,
        ).epochs(count=EPOCHS, store=path), path

    def setup(self) -> Any:
        """Engine and store creation plus a whole warm-up ingest."""
        engine, path = self.engine()
        engine.ingest(self.stream(-1))
        return engine, path


def _discard(product: "tuple[Any, Any]") -> None:
    engine, path = product
    engine.close()
    shutil.rmtree(path, ignore_errors=True)


def _windows(seed: int, rounds: int) -> "list[list[tuple[int, int]]]":
    """The windows each round asks: :data:`WINDOWS` in seeded shuffles,
    one after another, cut into rounds."""
    rng = np.random.default_rng([seed, 4])
    need = rounds * WINDOWS_PER_ROUND
    order: list[tuple[int, int]] = []
    while len(order) < need:
        order.extend(WINDOWS[i] for i in rng.permutation(len(WINDOWS)))
    return [order[i:i + WINDOWS_PER_ROUND] for i in range(0, need, WINDOWS_PER_ROUND)]


def _phase(state: State, report: Report, rounds: int) -> "dict[str, Any]":
    from repro.api.queries import ConnectivityQuery

    clock = time.perf_counter
    s: dict[str, Any] = {"ingest": [], "query": [], "snapshot": [], "restore": [],
                         "tokens": 0, "store_bytes": [], "disk_loads": 0,
                         "resident": [], "shipped": 0}
    state.rounds = []
    for index, windows in enumerate(_windows(state.seed, rounds)):
        report.sample_host()
        rng = np.random.default_rng([state.seed, 4, index])
        stream = state.stream(index)
        engine, path = state.engine()
        record: dict[str, Any] = {"index": index, "answers": []}
        try:
            gc.collect()
            t0 = clock()
            engine.ingest(stream)
            s["ingest"].append(clock() - t0)
            s["tokens"] += len(stream)
            s["shipped"] += engine.shipped_bytes
            report.op(True, "ingest")
            store = engine.store
            record["boundaries"] = list(store.boundaries)
            loads = store.disk_loads
            for t1, t2 in windows:
                u, v = (int(x) for x in rng.integers(0, N, size=2))
                query = ConnectivityQuery(u=u, v=v, window=(t1, t2))
                t0 = clock()
                result = engine.query(query)
                s["query"].append(clock() - t0)
                report.op(True, "window query")
                record["answers"].append(((t1, t2), query, result.to_dict()))
            s["disk_loads"] += store.disk_loads - loads
            s["resident"].append(store.resident_bytes)
            s["store_bytes"].append(store.total_bytes)
            snapshot_s = restore_s = 0.0
            for _ in range(POINTER_PAIRS):
                t0 = clock()
                blob = engine.snapshot()
                t1 = clock()
                restored = state.repro.GraphSketchEngine.restore(blob)
                t2 = clock()
                restored.close()
                snapshot_s += t1 - t0
                restore_s += t2 - t1
            s["snapshot"].append(snapshot_s / POINTER_PAIRS)
            s["restore"].append(restore_s / POINTER_PAIRS)
            report.op(True, "snapshot/restore block")
        except Exception as err:  # noqa: BLE001 - a failed op is counted
            report.op(False, f"round {index}: {type(err).__name__}: {err}")
        finally:
            engine.close()
            shutil.rmtree(path, ignore_errors=True)
        state.rounds.append(record)
    return s


def check(state: State, report: Report) -> None:
    """A seeded subset of window answers equals a local engine that
    ingested only that window's updates."""
    repro = state.repro
    pool = [(r, a) for r in state.rounds for a in r["answers"]]
    rng = np.random.default_rng([state.seed, 5])
    picks = rng.choice(len(pool), size=min(CHECKED_WINDOWS, len(pool)), replace=False)
    for i in sorted(int(p) for p in picks):
        record, ((t1, t2), query, answer) = pool[i]
        what = f"round {record['index']} window [{t1},{t2}) equals a local engine"
        try:
            bounds = record["boundaries"]
            start, end = (bounds[t1 - 1] if t1 else 0), bounds[t2 - 1]
            batch = state.stream(record["index"]).as_batch().slice(start, end)
            local = repro.GraphSketchEngine.for_spec(state.spec)
            local.ingest_batch(batch)
            mine = without_telemetry(local.query(
                type(query)(u=query.u, v=query.v)).to_dict())
            theirs = {**without_telemetry(answer), "window": None}
            report.check(canonical(mine) == canonical(theirs), what)
        except Exception as err:  # noqa: BLE001 - a broken check is a failed check
            report.check_raised(what, err)


def run(repro: Any, seed: int, seconds: float, traced: bool) -> "tuple[Report, Any]":
    """One run; returns the report and, when traced, the tracer."""
    report = Report("sharded-history")
    state = State(repro, seed)
    if traced:
        return report, _traced(state, report, seconds)
    setup_s, product = median_setup(state.setup, SETUPS, _discard)
    _discard(product)
    report.host = HostSpeed()
    s = _phase(state, report, per_run(seconds, ROUNDS_PER_SECOND))
    check(state, report)
    report.add("setup_s", setup_s, "s", f"median of {SETUPS}")
    report.rate("ingest_tokens_per_s", s["tokens"], sum(s["ingest"]),
                f"{s['tokens']} updates in {len(s['ingest'])} whole-stream ingests")
    report.timings("ingest", s["ingest"])
    report.timings("query", s["query"])
    report.median_ms("snapshot_ms", s["snapshot"])
    report.median_ms("restore_ms", s["restore"])
    report.add("sketch_bytes", statistics.median(s["store_bytes"]), "bytes",
               "store bytes on disk, median over rounds")
    return report, None


def _traced(state: State, report: Report, seconds: float) -> Any:
    import spans
    from repro import kernels

    rounds = per_run(seconds, TRACED_ROUNDS_PER_SECOND)

    def untraced_pass() -> float:
        t0 = time.perf_counter()
        _phase(state, report, rounds)
        return time.perf_counter() - t0

    # The same work runs untraced before and after the traced pass, so a
    # drift in the machine's speed cancels out of the overhead.
    untraced_before = untraced_pass()
    tracer = spans.install()
    try:
        before = kernels.kernel_stats()
        t0 = time.perf_counter()
        s = _phase(state, report, rounds)
        t1 = time.perf_counter()
        after = kernels.kernel_stats()
    finally:
        tracer.uninstall()
    check(state, report)
    queries = max(len(s["query"]), 1)
    program = {
        "ingest_units": len(s["ingest"]) * SITES * EPOCHS,
        "untraced_s": (untraced_before + untraced_pass()) / 2,
        "distributed.shipped_bytes": s["shipped"],
        "temporal.store.disk_loads_per_query": s["disk_loads"] / queries,
        "temporal.store.resident_bytes": statistics.median(s["resident"] or [0]),
    }
    for name, (value, unit) in spans.layer_metrics(
            tracer.rec, (t0, t1), before, after, program).items():
        report.add(name, value, unit)
    return tracer
