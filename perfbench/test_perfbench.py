"""The benchmark's own tests: metric names and units, the tail rule,
the scaling of timings to the reference host speed, the correctness
checks going red on corrupted answers and blobs, and the refusal to run
without the program.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benchlib
import wl_serve_forest
import wl_sharded_history
import wl_sparsify_small

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MODULES = {"serve-forest": wl_serve_forest, "sparsify-small": wl_sparsify_small,
           "sharded-history": wl_sharded_history}


@pytest.fixture(scope="module")
def repro():
    yield benchlib.import_program()
    shutil.rmtree(benchlib.SCRATCH, ignore_errors=True)


# -- metric names, units, the tail rule ------------------------------------------


def _valid(report: benchlib.Report) -> None:
    assert report.correct, report.failures
    for name, metric in report.metrics.items():
        assert benchlib.METRIC_NAME.match(name), name
        assert metric["unit"], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_untraced_metrics_are_named_and_declared(repro, workload):
    report, tracer = MODULES[workload].run(repro, 7, 0.5, traced=False)
    assert tracer is None
    _valid(report)
    names = set(report.metrics)
    assert names == set(END_TO_END)
    for name in names:
        assert report.metrics[name]["unit"] == END_TO_END[name]


@pytest.fixture(scope="module")
def traced(repro):
    """One short traced run per workload, plus what was patched before it."""
    from repro.api.engine import GraphSketchEngine
    from repro.sketch import serialize

    originals = (GraphSketchEngine.__dict__["query"], serialize.dump_sketch)
    runs = {name: module.run(repro, 7, 0.5, traced=True) for name, module in MODULES.items()}
    after = (GraphSketchEngine.__dict__["query"], serialize.dump_sketch)
    return runs, originals, after


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_traced_run_reports_every_layer_metric(traced, workload):
    report, tracer = traced[0][workload]
    _valid(report)
    assert set(report.metrics) == set(PER_LAYER)
    for name, unit in PER_LAYER.items():
        assert report.metrics[name]["unit"] == unit
    assert len(tracer.rec.start) == report.metrics["trace.spans"]["value"] > 0


def test_tracing_uninstalls(traced):
    _runs, originals, after = traced
    assert all(a is b for a, b in zip(originals, after))


def test_layer_signatures(traced):
    """The predicted per-layer signatures of the three workloads."""
    metrics = {w: {k: v["value"] for k, v in report.metrics.items()}
               for w, (report, _tracer) in traced[0].items()}
    assert metrics["sparsify-small"]["kernels.forest_scatter.calls_per_batch"] > 10
    assert metrics["serve-forest"]["kernels.forest_scatter.calls_per_batch"] == 1
    for workload in ("serve-forest", "sharded-history"):
        assert metrics[workload]["graphs.gomory_hu.calls"] == 0
        assert metrics[workload]["graphs.maxflow.calls"] == 0
    for workload in ("serve-forest", "sparsify-small"):
        assert metrics[workload]["temporal.seal.calls"] == 0
        assert metrics[workload]["distributed.site_consume_s"] == 0
    selfs = {k: v for k, v in metrics["sharded-history"].items()
             if k.endswith(".self_s")}
    assert max(selfs, key=selfs.get) == "sketch.serialize.self_s"


def test_every_span_belongs_to_an_operation(traced):
    for _report, tracer in traced[0].values():
        rec = tracer.rec
        assert all(op > 0 for op in rec.op)
        for idx, parent in enumerate(rec.parent):
            if parent >= 0:
                assert rec.op[idx] == rec.op[parent]


@pytest.mark.parametrize("count", range(1, 60))
def test_tail_rule(count):
    values = [float(v) for v in np.random.default_rng(count).permutation(count)]
    rank = benchlib.tail_rank(count)
    tail = benchlib.tail_value(values)
    if rank is None:
        assert tail is None
        assert count - benchlib.TAIL_BEYOND <= -(-count // 2)
        return
    assert sum(v > tail for v in values) == benchlib.TAIL_BEYOND
    assert rank > -(-count // 2)  # strictly above the median's rank
    report = benchlib.Report("t")
    report.timings("op", values)
    assert report.extras["op_tail_ms"][0] == tail * 1e3
    assert "op_tail_ms" not in report.metrics


def test_timings_and_rates_are_scaled_to_the_reference_speed():
    """A host running at half the reference speed halves times and
    doubles rates; the wall-clock figures stay in the notes."""
    host = benchlib.HostSpeed([2 * benchlib.REFERENCE_MS / 1e3] * 3)
    report = benchlib.Report("t", host=host)
    report.timings("op", [0.010] * 21)
    report.median_ms("pair_ms", [0.004] * 3)
    report.rate("op_per_s", 100, 1.0, "100 ops")
    assert report.metrics["op_p50_ms"]["value"] == pytest.approx(5.0)
    assert report.metrics["pair_ms"]["value"] == pytest.approx(2.0)
    assert report.metrics["op_per_s"]["value"] == pytest.approx(200.0)
    assert "wall 10 ms" in report.notes["op_p50_ms"]
    assert "wall 100 1/s" in report.notes["op_per_s"]


def test_no_tail_without_ten_samples_beyond_it():
    report = benchlib.Report("t")
    report.timings("op", [0.001 * i for i in range(21)])
    assert "op_p50_ms" in report.metrics
    assert "op_tail_ms" not in report.extras


# -- correctness checks go red ---------------------------------------------------


def test_sparsify_check_catches_a_corrupted_blob_and_answer(repro, monkeypatch):
    state = wl_sparsify_small.State(repro, 5)
    state.start(state.setup())
    report = benchlib.Report("t")
    wl_sparsify_small.check(state, report)
    assert report.correct

    original = repro.GraphSketchEngine.restore.__func__

    def corrupt_restore(cls, data, spec=None):
        engine = original(cls, data, spec)
        from repro.sketch.arena import ensure_arena

        ensure_arena(engine._sketch).buffer[:] = 0
        return engine

    monkeypatch.setattr(repro.GraphSketchEngine, "restore", classmethod(corrupt_restore))
    report = benchlib.Report("t")
    wl_sparsify_small.check(state, report)
    assert report.failed == 2, report.failures


def test_serve_check_catches_a_corrupted_blob_and_answer(repro):
    async def scenario():
        state = wl_serve_forest.State(repro, 5)
        state.start(*await state.setup())
        try:
            report = benchlib.Report("t")
            blob = (await wl_serve_forest._phase(state, report, 3, 1))["blob"]
            await wl_serve_forest.check(state, report, blob)
            assert report.correct, report.failures

            report = benchlib.Report("t")
            flipped = bytearray(blob)
            flipped[-1] ^= 1
            await wl_serve_forest.check(state, report, bytes(flipped))
            assert report.failed == 1, report.failures

            from repro.sketch.arena import ensure_arena

            tenant = state.app.registry.get(wl_serve_forest.TENANT)
            ensure_arena(tenant.engine._sketch).buffer[:] = 0
            report = benchlib.Report("t")
            await wl_serve_forest.check(state, report, blob)
            assert report.failed > wl_serve_forest.CHECK_QUERIES // 2, report.failures
        finally:
            await state.client.__aexit__(None, None, None)

    asyncio.run(scenario())


def test_sharded_check_catches_a_corrupted_answer(repro):
    state = wl_sharded_history.State(repro, 5)
    report = benchlib.Report("t")
    wl_sharded_history._phase(state, report, 2)
    wl_sharded_history.check(state, report)
    assert report.correct, report.failures

    for record in state.rounds:
        for _window, _query, answer in record["answers"]:
            answer["body"]["components"] += 1
    report = benchlib.Report("t")
    wl_sharded_history.check(state, report)
    assert report.failed == wl_sharded_history.CHECKED_WINDOWS, report.failures


# -- the command ----------------------------------------------------------------


def test_command_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve-forest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
