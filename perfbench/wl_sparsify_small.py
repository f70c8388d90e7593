"""``sparsify-small``: a local engine running ``simple_sparsification``.

One client, closed loop, no service in front.  The loop repeats a fixed
cycle of three operation types — a 16-update ingest batch (the size the
service drains), a ``sparsifier`` query, and ``snapshot`` → ``restore``
— so each type keeps its own latency distribution.  It stresses the
per-level dispatch on ingest (one ``forest_scatter`` per touched level
instance, about 165 per batch), the Gomory–Hu / max-flow
post-processing on queries, and the snapshot codec in both directions
(at this fill it picks the sparse encoding: nonzero scan plus deflate,
inflate plus scatter); it bypasses serve and distributed.

At n=16 every operation takes about a tenth of a second, so a run
holds dozens of samples of each type spread over its whole length; at
n=32 a snapshot/restore pair takes a second and the arena is about
380 MB, so a run would hold only a dozen pairs."""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from collections.abc import Iterator
from typing import Any

import numpy as np

from benchlib import SKETCH_SEED, HostSpeed, Report, canonical, median_setup, per_run, \
    replay_cycle, stationary_churn, without_telemetry

#: The sketch runs with the library's default parameters (epsilon=0.5,
#: k=32 witness forests in each of 9 levels at this n), as every caller
#: does.
N = 16
LIVE = 32
BATCH = 16
#: One cycle: one operation of each type.  It takes about 0.45 s on a
#: 2-vCPU VM.
CYCLE = ("ingest", "query", "snapshot")
#: Cycles per second of --seconds: untraced, and in the traced comparison
#: (which runs its cycles three times: untraced, traced, untraced).
CYCLES_PER_SECOND = 2.2
TRACED_CYCLES_PER_SECOND = 1.0
SETUPS = 7


class State:
    def __init__(self, repro: Any, seed: int) -> None:
        self.repro = repro
        self.seed = seed
        self.spec = repro.SketchSpec.of("simple_sparsification", N, seed=SKETCH_SEED)
        rng = np.random.default_rng([seed, 1])
        self.churn = stationary_churn(N, LIVE, LIVE + 4096, rng)
        self.engine: Any = None
        self.feed: "Iterator[tuple[np.ndarray, ...]]" = iter(())
        self.ingested = 0
        self.blob_bytes: list[int] = []

    def batch(self, cols: "tuple[np.ndarray, ...]") -> Any:
        return self.repro.StreamBatch(N, *cols)

    def setup(self) -> Any:
        """Engine plus the warm-up ingest of the initial live edges."""
        engine = self.repro.GraphSketchEngine.for_spec(self.spec)
        c = self.churn
        for i in range(0, LIVE, BATCH):
            engine.ingest_batch(self.batch(
                (c.lo[i:i + BATCH], c.hi[i:i + BATCH], c.delta[i:i + BATCH])))
        return engine

    def start(self, engine: Any) -> None:
        self.engine = engine
        self.feed = itertools.cycle(replay_cycle(self.churn, LIVE, BATCH))
        self.ingested = 0
        self.blob_bytes = []


def _phase(state: State, report: Report, cycles: int) -> "dict[str, list[float]]":
    """Run ``cycles`` cycles."""
    from repro.api.queries import SparsifierQuery

    samples: dict[str, list[float]] = {"ingest": [], "query": [], "snapshot": [],
                                       "restore": []}
    query = SparsifierQuery()
    clock = time.perf_counter
    for _ in range(cycles):
        report.sample_host()
        for op in CYCLE:
            try:
                if op == "ingest":
                    batch = state.batch(next(state.feed))
                    t0 = clock()
                    state.engine.ingest_batch(batch)
                    samples["ingest"].append(clock() - t0)
                    state.ingested += len(batch)
                elif op == "query":
                    t0 = clock()
                    state.engine.query(query)
                    samples["query"].append(clock() - t0)
                else:
                    t0 = clock()
                    blob = state.engine.snapshot()
                    t1 = clock()
                    restored = state.repro.GraphSketchEngine.restore(blob)
                    samples["restore"].append(clock() - t1)
                    samples["snapshot"].append(t1 - t0)
                    state.blob_bytes.append(len(blob))
                    # The copy holds reference cycles; collect it now so
                    # peak memory does not depend on when the collector
                    # happens to run.
                    del restored
                    gc.collect()
                report.op(True, op)
            except Exception as err:  # noqa: BLE001 - a failed op is counted
                report.op(False, f"{op}: {type(err).__name__}: {err}")
    return samples


def check(state: State, report: Report) -> None:
    """``restore(snapshot)`` re-snapshots byte-identically and answers alike."""
    from repro.api.queries import SparsifierQuery

    try:
        blob = state.engine.snapshot()
        restored = state.repro.GraphSketchEngine.restore(blob)
        report.check(restored.snapshot() == blob, "restored engine re-snapshots identically")
        mine = without_telemetry(state.engine.query(SparsifierQuery()).to_dict())
        theirs = without_telemetry(restored.query(SparsifierQuery()).to_dict())
        report.check(canonical(mine) == canonical(theirs),
                     "restored engine answers the sparsifier query identically")
    except Exception as err:  # noqa: BLE001 - a broken check is a failed check
        report.check_raised("snapshot/restore check", err)


def run(repro: Any, seed: int, seconds: float, traced: bool) -> "tuple[Report, Any]":
    """One run; returns the report and, when traced, the tracer."""
    report = Report("sparsify-small")
    state = State(repro, seed)
    if traced:
        return report, _traced(state, report, seconds)
    setup_s, engine = median_setup(state.setup, SETUPS, lambda e: e.close())
    state.start(engine)
    report.host = HostSpeed()
    gc.collect()
    samples = _phase(state, report, per_run(seconds, CYCLES_PER_SECOND))
    check(state, report)
    report.add("setup_s", setup_s, "s", f"median of {SETUPS}")
    report.rate("ingest_tokens_per_s", state.ingested, sum(samples["ingest"]),
                f"{state.ingested} updates in {len(samples['ingest'])} batches")
    report.timings("ingest", samples["ingest"])
    report.timings("query", samples["query"])
    report.median_ms("snapshot_ms", samples["snapshot"])
    report.median_ms("restore_ms", samples["restore"])
    report.add("sketch_bytes", statistics.median(state.blob_bytes), "bytes",
               "snapshot blob, median over the run")
    return report, None


def _traced(state: State, report: Report, seconds: float) -> Any:
    import spans
    from repro import kernels

    cycles = per_run(seconds, TRACED_CYCLES_PER_SECOND)

    def untraced_pass() -> float:
        state.start(state.setup())
        gc.collect()
        t0 = time.perf_counter()
        _phase(state, report, cycles)
        return time.perf_counter() - t0

    # The same work runs untraced before and after the traced pass, so a
    # drift in the machine's speed cancels out of the overhead.
    untraced_before = untraced_pass()
    state.start(state.setup())
    tracer = spans.install()
    try:
        before = kernels.kernel_stats()
        gc.collect()
        t0 = time.perf_counter()
        samples = _phase(state, report, cycles)
        t1 = time.perf_counter()
        after = kernels.kernel_stats()
    finally:
        tracer.uninstall()
    check(state, report)
    untraced = (untraced_before + untraced_pass()) / 2
    program = {"ingest_units": len(samples["ingest"]), "untraced_s": untraced}
    for name, (value, unit) in spans.layer_metrics(
            tracer.rec, (t0, t1), before, after, program).items():
        report.add(name, value, unit)
    return tracer
