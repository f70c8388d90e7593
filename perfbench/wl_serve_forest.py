"""``serve-forest``: the in-process ASGI service with one
``spanning_forest`` tenant, driven by two closed-loop clients.

* The writer posts small columnar ``as_batch`` bodies, each followed by
  the tenant's ``/flush``: one read-your-writes round trip, which is the
  ingest latency.
* The reader posts ``connectivity`` queries back to back while the
  writer runs.

Sketch work per update is cheap here, so the serving layers dominate:
routing, wire decode, the queue, the per-tenant lock, the ``to_thread``
hop, and forest decode on queries.  Per-level dispatch, Gomory–Hu, the
codec (outside the snapshot measurements), distributed and temporal
code are barely touched.  The loop is closed rather than open because
in-process ASGI shares one event loop with the load generator.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from typing import Any

import numpy as np

from benchlib import SKETCH_SEED, HostSpeed, Report, canonical, median_setup_async, \
    per_run, replay_cycle, stationary_churn, without_telemetry

N = 256
LIVE = 512
BATCH = 32
TENANT = "forest"
SETUPS = 7
#: Snapshot → restore pairs, spread evenly over the untraced phase.
SNAPSHOTS = 16
#: Queries posted after the phase and compared with an in-process engine.
CHECK_QUERIES = 8
#: Sent batches replayed per in-process ingest by the check.
CHECK_CHUNK = 128
#: Round trips per second of --seconds, for the writer and the reader
#: alike (the tenant lock makes them alternate, about 30 ms per pair on
#: a 2-vCPU VM): untraced, and in the traced comparison (which runs its
#: work twice).
OPS_PER_SECOND = 32
TRACED_OPS_PER_SECOND = 10


def _body(lo: np.ndarray, hi: np.ndarray, delta: np.ndarray) -> bytes:
    return json.dumps({"lo": lo.tolist(), "hi": hi.tolist(),
                       "delta": delta.tolist()}).encode()


def _query(u: int, v: int) -> bytes:
    return json.dumps({"v": 1, "query": "connectivity", "window": None,
                       "args": {"u": u, "v": v}}).encode()


class State:
    """Inputs, the live service, and what the writer has sent."""

    def __init__(self, repro: Any, seed: int) -> None:
        self.repro = repro
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        churn = stationary_churn(N, LIVE, LIVE + 32768, rng)
        cols = (churn.lo, churn.hi, churn.delta)
        self.warmup = [tuple(c[i:i + BATCH] for c in cols) for i in range(0, LIVE, BATCH)]
        self.cycle = replay_cycle(churn, LIVE, BATCH)
        self.cycle_bodies = [_body(*b) for b in self.cycle]
        pairs = rng.integers(0, N, size=(256, 2))
        self.pairs = [(int(u), int(v)) for u, v in pairs]
        self.query_bodies = [_query(u, v) for u, v in self.pairs]
        self.spec = {"kind": "spanning_forest", "n": N, "seed": SKETCH_SEED}
        self.app: Any = None
        self.client: Any = None
        self.sent = 0  # cycle batches the writer has sent since start()

    async def setup(self) -> "tuple[Any, Any]":
        """App, lifespan start-up, tenant, warm-up ingest and one query."""
        from repro.serve import create_app
        from repro.serve.testing import AsgiClient

        app = create_app()
        client = AsgiClient(app)
        await client.__aenter__()
        r = await client.post("/v1/tenants", json={"name": TENANT, "spec": self.spec})
        if r.status != 201:
            raise RuntimeError(f"tenant creation failed: {r.status} {r.text}")
        for cols in self.warmup:
            r = await client.post(f"/v1/tenants/{TENANT}/as_batch", body=_body(*cols))
            if r.status != 202:
                raise RuntimeError(f"warm-up batch refused: {r.status} {r.text}")
        await client.post(f"/v1/tenants/{TENANT}/flush")
        r = await client.post(f"/v1/tenants/{TENANT}/query", body=self.query_bodies[0])
        if r.status != 200:
            raise RuntimeError(f"warm-up query failed: {r.status} {r.text}")
        return app, client

    def start(self, app: Any, client: Any) -> None:
        self.app, self.client = app, client
        self.sent = 0


async def _phase(state: State, report: Report, ops: int,
                 snapshots: int = 0) -> "dict[str, Any]":
    """Writer and reader, ``ops`` round trips each.

    The loop runs in ``snapshots`` equal parts (one when ``snapshots`` is
    0), each preceded by reference-loop samples of the host's speed and
    followed by one snapshot → restore pair while both clients wait, so
    those samples come from across the run rather than from one stretch
    of it.  Returns the samples, the loop's wall time without the
    snapshots, and the last blob.
    """
    client = state.client
    clock = time.perf_counter
    ingest: list[float] = []
    query: list[float] = []
    ingest_path = f"/v1/tenants/{TENANT}/as_batch"
    flush_path = f"/v1/tenants/{TENANT}/flush"
    query_path = f"/v1/tenants/{TENANT}/query"

    async def writer(upto: int) -> None:
        cycle = state.cycle_bodies
        while len(ingest) < upto:
            body = cycle[state.sent % len(cycle)]
            t0 = clock()
            r = await client.post(ingest_path, body=body)
            ok = r.status == 202
            if ok:
                r = await client.post(flush_path)
                ok = r.status == 200
            ingest.append(clock() - t0)
            # A refused batch is counted as failed and not resent: no
            # back-off timer runs inside the timed loop.
            report.op(ok, f"as_batch/flush: {r.status} {r.text[:200]}")
            state.sent += 1

    async def reader(upto: int) -> None:
        bodies = state.query_bodies
        while len(query) < upto:
            t0 = clock()
            r = await client.post(query_path, body=bodies[len(query) % len(bodies)])
            query.append(clock() - t0)
            report.op(r.status == 200, f"query: {r.status} {r.text[:200]}")

    out: dict[str, Any] = {"ingest": ingest, "query": query, "wall": 0.0,
                           "snapshot": [], "restore": [], "blob": b""}
    parts = max(snapshots, 1)
    for part in range(1, parts + 1):
        report.sample_host()
        t0 = clock()
        await asyncio.gather(writer(ops * part // parts), reader(ops * part // parts))
        out["wall"] += clock() - t0
        if snapshots:
            out["blob"] = await _snapshot_pair(state, report, out)
    return out


async def _snapshot_pair(state: State, report: Report, out: "dict[str, Any]") -> bytes:
    """One served ``/snapshot`` and one in-process restore of its blob."""
    from repro.api.wire import blob_from_wire

    gc.collect()
    t0 = time.perf_counter()
    r = await state.client.get(f"/v1/tenants/{TENANT}/snapshot")
    out["snapshot"].append(time.perf_counter() - t0)
    report.op(r.status == 200, f"snapshot: {r.status}")
    blob = blob_from_wire(r.json()["blob"])
    t0 = time.perf_counter()
    state.repro.GraphSketchEngine.restore(blob)
    out["restore"].append(time.perf_counter() - t0)
    report.op(True, "restore")
    return blob


async def check(state: State, report: Report, blob: bytes) -> None:
    """The served snapshot and answers equal an in-process engine fed the
    same updates in the same order."""
    repro = state.repro
    try:
        sent = state.warmup + [state.cycle[i % len(state.cycle)] for i in range(state.sent)]
        spec = repro.SketchSpec.of("spanning_forest", N, seed=SKETCH_SEED)
        engine = repro.GraphSketchEngine.for_spec(spec)
        # Chunks of a fixed size keep this check's memory independent
        # of how many batches the run managed to send.
        for i in range(0, len(sent), CHECK_CHUNK):
            chunk = sent[i:i + CHECK_CHUNK]
            engine.ingest_batch(repro.StreamBatch(
                N, *(np.concatenate([b[k] for b in chunk]) for k in range(3))))
        report.check(engine.snapshot() == blob,
                     "served snapshot equals an in-process engine fed the same updates")
    except Exception as err:  # noqa: BLE001 - a broken check is a failed check
        report.check_raised("snapshot check", err)
        return
    for body in state.query_bodies[:CHECK_QUERIES]:
        try:
            r = await state.client.post(f"/v1/tenants/{TENANT}/query", body=body)
            served = without_telemetry(r.json()) if r.status == 200 else {"status": r.status}
            local = without_telemetry(engine.query(json.loads(body)).to_dict())
            report.check(canonical(served) == canonical(local),
                         f"served answer {body.decode()} equals the in-process engine")
        except Exception as err:  # noqa: BLE001 - a broken check is a failed check
            report.check_raised(f"answer check {body.decode()}", err)


async def _close(client: Any) -> None:
    await client.__aexit__(None, None, None)


async def _run(repro: Any, seed: int, seconds: float, traced: bool,
               report: Report) -> Any:
    state = State(repro, seed)
    if traced:
        return await _traced(state, report, seconds)
    setup_s, product = await median_setup_async(
        state.setup, SETUPS, lambda product: _close(product[1]))
    state.start(*product)
    try:
        await _untraced(state, report, seconds, setup_s)
    finally:
        await _close(state.client)
    return None


async def _untraced(state: State, report: Report, seconds: float, setup_s: float) -> None:
    ops = per_run(seconds, OPS_PER_SECOND)
    report.host = HostSpeed()
    gc.collect()
    samples = await _phase(state, report, ops, SNAPSHOTS)
    await check(state, report, samples["blob"])
    report.add("setup_s", setup_s, "s", f"median of {SETUPS}")
    updates = len(samples["ingest"]) * BATCH
    report.rate("ingest_tokens_per_s", updates, samples["wall"], f"{updates} updates")
    report.timings("ingest", samples["ingest"])
    report.timings("query", samples["query"])
    report.median_ms("snapshot_ms", samples["snapshot"])
    report.median_ms("restore_ms", samples["restore"])
    report.add("sketch_bytes", len(samples["blob"]), "bytes", "snapshot blob")


async def _traced(state: State, report: Report, seconds: float) -> Any:
    import spans
    from repro import kernels

    ops = per_run(seconds, TRACED_OPS_PER_SECOND)

    async def untraced_pass() -> float:
        state.start(*await state.setup())
        try:
            gc.collect()
            t0 = time.perf_counter()
            await _phase(state, report, ops)
            return time.perf_counter() - t0
        finally:
            await _close(state.client)

    # The same work runs untraced before and after the traced pass, so a
    # drift in the machine's speed cancels out of the overhead.
    untraced_before = await untraced_pass()
    state.start(*await state.setup())
    try:
        tracer = spans.install()
        try:
            queue = state.app.queue
            admitted, rejected = queue.admitted, queue.rejected
            before = kernels.kernel_stats()
            gc.collect()
            t0 = time.perf_counter()
            samples = await _phase(state, report, ops)
            t1 = time.perf_counter()
            after = kernels.kernel_stats()
        finally:
            tracer.uninstall()
        await check(state, report, await _snapshot_pair(state, report, samples))
    finally:
        await _close(state.client)
    program = {
        "ingest_units": len(samples["ingest"]),
        "untraced_s": (untraced_before + await untraced_pass()) / 2,
        "serve.admitted": queue.admitted - admitted,
        "serve.rejected": queue.rejected - rejected,
    }
    for name, (value, unit) in spans.layer_metrics(
            tracer.rec, (t0, t1), before, after, program).items():
        report.add(name, value, unit)
    return tracer


def run(repro: Any, seed: int, seconds: float, traced: bool) -> "tuple[Report, Any]":
    """One run; returns the report and, when traced, the tracer."""
    report = Report("serve-forest")
    tracer = asyncio.run(_run(repro, seed, seconds, traced, report))
    return report, tracer
