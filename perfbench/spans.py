"""Outside-in layer tracing for the traced benchmark run.

A :class:`Recorder` keeps spans in memory — name, start, end, parent
span and operation id, in flat arrays so a long run stays small — and
writes them out when the run ends.  :func:`install` wraps the public
entry points of each layer *where their callers look them up*: a
function imported by name into another module is replaced in that
module, a method on its class.  Nothing is installed in an untraced
run, and :meth:`Tracer.uninstall` puts every original back.

A span's *self time* is its duration minus the part of it its child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import gzip
import itertools
import json
import statistics
import time
import types
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar("span", default=-1)
_OP: "contextvars.ContextVar[int]" = contextvars.ContextVar("op", default=0)
#: When the serve handler that started the current operation was entered.
_ENTRY: "contextvars.ContextVar[float]" = contextvars.ContextVar("entry", default=-1.0)


class Recorder:
    """Append-only span store plus a few named samples and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("q")
        self._ops = itertools.count(1)
        #: Named latency samples that are not spans (serve waits).
        self.samples: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_op(self) -> int:
        return next(self._ops)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(_CURRENT.get())
        self.op.append(_OP.get())
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> "list[float]":
        """Per span: duration minus the union of its children's intervals."""
        count = len(self.start)
        children: dict[int, list[int]] = {}
        for idx in range(count):
            parent = self.parent[idx]
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        out = []
        for idx in range(count):
            s, e = self.start[idx], self.end[idx]
            covered = 0.0
            reach = s
            for c in sorted(children.get(idx, ()), key=lambda c: self.start[c]):
                cs, ce = max(self.start[c], reach), min(self.end[c], e)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append(max(e - s - covered, 0.0))
        return out

    def covered(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1)`` covered by at least one root span."""
        roots = sorted(
            (max(self.start[i], t0), min(self.end[i], t1))
            for i in range(len(self.start)) if self.parent[i] < 0
        )
        total, reach = 0.0, t0
        for s, e in roots:
            s = max(s, reach)
            if e > s:
                total += e - s
                reach = e
        return total

    def write(self, path: Path, meta: "dict[str, Any]") -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
                for i in range(len(self.start))
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# -- wrappers --------------------------------------------------------------------


def _sync(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        # A span with no parent starts an operation of its own.
        op_token = _OP.set(rec.new_op()) if _CURRENT.get() < 0 else None
        idx = rec.open(nid)
        token = _CURRENT.set(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            rec.close(idx)
            if op_token is not None:
                _OP.reset(op_token)

    return wrapper


def _async(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = rec.open(nid)
        token = _CURRENT.set(idx)
        try:
            return await fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            rec.close(idx)

    return wrapper


def _entry(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark where a serve handler starts: the wait for the engine is
    measured from here.  No span — the handler's own time stays in its
    request's self time."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = _ENTRY.set(time.perf_counter())
        try:
            return await fn(*args, **kwargs)
        finally:
            _ENTRY.reset(token)

    return wrapper


class _Proxy(types.SimpleNamespace):
    """Stand-in for a module global (``zlib``, ``os``) that forwards
    every attribute except the wrapped ones."""

    def __init__(self, target: Any, **wrapped: Any) -> None:
        super().__init__(**wrapped)
        self._target = target

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._target, attr)


class Tracer:
    """Installs and removes the wrappers; owns the recorder."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, name: str) -> None:
        self._set(module, attr, _sync(self.rec, name, getattr(module, attr)))

    def method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(_sync(self.rec, name, raw.__func__)))
        elif asyncio.iscoroutinefunction(raw):
            self._set(cls, attr, _async(self.rec, name, raw))
        else:
            self._set(cls, attr, _sync(self.rec, name, raw))

    def proxy(self, module: Any, attr: str, **wrapped: str) -> None:
        target = getattr(module, attr)
        self._set(module, attr, _Proxy(target, **{
            fn: _sync(self.rec, name, getattr(target, fn))
            for fn, name in wrapped.items()
        }))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


#: The codec entry points of ``sketch.serialize`` and their span names;
#: each is patched in every module that imported it by name.
_SERIALIZE = {
    "dump_sketch": "sketch.serialize.dump",
    "load_sketch": "sketch.serialize.load",
    "merge_sketch_bytes": "sketch.serialize.merge_bytes",
    "subtract_sketch_bytes": "sketch.serialize.subtract_bytes",
    "peek_sketch_meta": "sketch.serialize.peek_meta",
}


def install() -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.api.engine as engine_mod
    import repro.api.wire as wire_mod
    import repro.core.sparsify_simple as sparsify_mod
    import repro.distributed.coordinator as coord_mod
    import repro.hashing.field as field_mod
    import repro.kernels as kernels_mod
    import repro.kernels.reference as reference_mod
    import repro.serve.app as app_mod
    import repro.sketch.bank as bank_mod
    import repro.sketch.serialize as serialize_mod
    import repro.temporal.epochs as epochs_mod
    import repro.temporal.query as query_mod
    import repro.temporal.store as store_mod
    from repro.api.engine import GraphSketchEngine
    from repro.core.forest import SpanningForestSketch
    from repro.core.sparsify_simple import SimpleSparsification
    from repro.graphs.maxflow import MaxFlow
    from repro.serve.app import ServeApp
    from repro.serve.queue import IngestQueue
    from repro.serve.tenants import Tenant
    from repro.sketch.arena import SketchArena
    from repro.streams import StreamBatch
    from repro.temporal.epochs import EpochManager
    from repro.temporal.store import EpochStore

    tracer = Tracer()
    rec = tracer.rec

    # serve: the whole request, its handler, the drain, the tenant calls.
    _install_serve(tracer, ServeApp, IngestQueue, Tenant)
    tracer.function(engine_mod, "query_from_dict", "api.wire.decode")
    tracer.function(app_mod, "parse_columns", "api.wire.decode")
    tracer.function(wire_mod, "result_to_dict", "api.wire.encode")
    tracer.method(StreamBatch, "from_updates", "streams.batch_build")

    # the library boundary
    for attr in ("ingest", "ingest_batch", "query", "snapshot", "restore",
                 "attach_store"):
        tracer.method(GraphSketchEngine, attr, f"api.engine.{attr}")

    # kernels: one span per call of any kernel handle
    original_call = kernels_mod.Kernel.__call__
    kernel_ids: dict[str, int] = {}

    def kernel_call(self: Any, *args: Any, **kwargs: Any) -> Any:
        nid = kernel_ids.get(self.name)
        if nid is None:
            nid = kernel_ids[self.name] = rec.name_id(f"kernels.{self.name}")
        idx = rec.open(nid)
        token = _CURRENT.set(idx)
        try:
            return original_call(self, *args, **kwargs)
        finally:
            _CURRENT.reset(token)
            rec.close(idx)

    tracer._set(kernels_mod.Kernel, "__call__", kernel_call)
    for module in (reference_mod, bank_mod, field_mod):
        tracer.function(module, "powmod_array", "hashing.powmod_array")

    # graph post-processing
    tracer.method(SpanningForestSketch, "spanning_forest", "core.forest.extract")
    tracer.method(SimpleSparsification, "sparsifier", "core.sparsify_simple.query")
    tracer.function(sparsify_mod, "gomory_hu_tree", "graphs.gomory_hu")
    tracer.method(MaxFlow, "max_flow", "graphs.maxflow")

    # arena and codec
    tracer.method(SketchArena, "adopt", "sketch.arena.adopt")
    tracer.proxy(serialize_mod, "zlib", compress="sketch.serialize.deflate",
                 decompress="sketch.serialize.inflate")
    original_pack = serialize_mod._pack_raw

    def pack_raw(kind: str, meta: dict, payload: bytes, encoding: str = "raw") -> bytes:
        blob = original_pack(kind, meta, payload, encoding)
        if encoding in ("zlib", "sparse-zlib"):
            rec.count("sketch.serialize.dumps")
            rec.count("sketch.serialize.bytes_out", len(blob))
            if encoding == "sparse-zlib":
                rec.count("sketch.serialize.sparse_dumps")
        return blob

    tracer._set(serialize_mod, "_pack_raw", pack_raw)
    for module in (serialize_mod, engine_mod, coord_mod, epochs_mod, query_mod,
                   store_mod):
        for attr, name in _SERIALIZE.items():
            if hasattr(module, attr):
                tracer.function(module, attr, name)
    # distributed: partition, per-site consume, coordinator merge.  The
    # merge wraps the codec span installed above, so the codec work
    # shows as its child.
    tracer.function(coord_mod, "shard_assignment", "distributed.partition")
    tracer.function(coord_mod, "_consume_shard_epochs", "distributed.site_consume")
    tracer.function(coord_mod, "_consume_shard", "distributed.site_consume")
    tracer.function(coord_mod, "merge_sketch_bytes", "distributed.merge")

    # temporal: seals, window materialisation, the durable store
    tracer.method(EpochManager, "seal_epoch", "temporal.seal")
    tracer.function(engine_mod, "materialise_window", "temporal.window")
    tracer.method(EpochStore, "append_checkpoint", "temporal.store.append")
    tracer.proxy(store_mod, "os", fsync="temporal.store.fsync")
    return tracer


def _install_serve(tracer: Tracer, app_cls: type, queue_cls: type,
                   tenant_cls: type) -> None:
    rec = tracer.rec
    request_id = rec.name_id("serve.request")
    original_call = app_cls.__dict__["__call__"]

    async def call(self: Any, scope: Any, receive: Any, send: Any) -> None:
        if scope["type"] != "http":
            return await original_call(self, scope, receive, send)
        op_token = _OP.set(rec.new_op())
        idx = rec.open(request_id)
        token = _CURRENT.set(idx)
        try:
            return await original_call(self, scope, receive, send)
        finally:
            _CURRENT.reset(token)
            rec.close(idx)
            _OP.reset(op_token)

    tracer._set(app_cls, "__call__", call)
    for attr in ("_submit_batch_columnar", "_query"):
        tracer._set(app_cls, attr, _entry(app_cls.__dict__[attr]))

    # The drainer runs in its own task; carry the submitting request's
    # operation id and handler entry time over on the job.
    original_admit = queue_cls.__dict__["admit_nowait"]

    def admit_nowait(self: Any, job: Any) -> int:
        job.bench_origin = (_OP.get(), _ENTRY.get())
        return original_admit(self, job)

    tracer._set(queue_cls, "admit_nowait", admit_nowait)
    drain = _async(rec, "serve.drain", queue_cls.__dict__["_drain_one"])

    async def drain_one(self: Any, job: Any) -> None:
        op, entry = getattr(job, "bench_origin", (0, -1.0))
        op_token, entry_token = _OP.set(op), _ENTRY.set(entry)
        try:
            return await drain(self, job)
        finally:
            _ENTRY.reset(entry_token)
            _OP.reset(op_token)

    tracer._set(queue_cls, "_drain_one", drain_one)

    for attr, name, wait in (("apply_sync", "serve.tenant.apply", "serve.wait.ingest"),
                             ("query_sync", "serve.tenant.query", "serve.wait.query")):
        inner = _sync(rec, name, tenant_cls.__dict__[attr])

        def waited(self: Any, *args: Any, _inner: Any = inner, _wait: str = wait) -> Any:
            entry = _ENTRY.get()
            if entry >= 0:
                rec.sample(_wait, time.perf_counter() - entry)
            return _inner(self, *args)

        tracer._set(tenant_cls, attr, waited)


# -- per-layer metrics -----------------------------------------------------------

#: Layers in the order of the ingest/query path; a span belongs to the
#: longest layer name that prefixes it.
LAYERS = (
    "serve", "api.wire", "api.engine", "streams", "distributed", "hashing",
    "kernels", "sketch.arena", "sketch.serialize", "temporal", "temporal.store",
    "core", "graphs",
)
KERNELS = ("scatter_multi", "forest_scatter", "decode_all", "level_route",
           "arena_fold", "arena_fold_sparse", "arena_negate")


def layer_of(name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best


def kernel_totals(stats: "list[dict[str, Any]]") -> "dict[str, tuple[int, float]]":
    """``kernels.kernel_stats()`` rows summed per kernel over backends."""
    out: dict[str, tuple[int, float]] = {}
    for row in stats:
        calls, seconds = out.get(row["kernel"], (0, 0.0))
        out[row["kernel"]] = (calls + row["calls"], seconds + row["seconds"])
    return out


def _p50_tail(values: "list[float]") -> "tuple[float, float]":
    """Median and tail (0 when the sample cannot support one)."""
    from benchlib import tail_value

    if not values:
        return 0.0, 0.0
    tail = tail_value(values)
    return statistics.median(values), (tail if tail is not None else 0.0)


def layer_metrics(
    rec: Recorder,
    phase: "tuple[float, float]",
    kernels_before: "list[dict[str, Any]]",
    kernels_after: "list[dict[str, Any]]",
    program: "dict[str, float]",
) -> "dict[str, tuple[float, str]]":
    """Every per-layer metric of one traced phase, as name -> (value, unit).

    ``program`` carries what the workload read from the program's own
    counters (queue admissions, store loads, shipped bytes) and the
    denominators (``ingest_units``, ``queries``) and the untraced wall
    time of the same work (``untraced_s``).
    """
    totals: dict[str, list[float]] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    request_self: list[float] = []
    selfs = rec.self_times()
    for idx in range(len(rec.start)):
        name = rec.names[rec.name[idx]]
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += rec.end[idx] - rec.start[idx]
        layer = layer_of(name)
        if layer:
            self_by_layer[layer] += selfs[idx]
        if name == "serve.request":
            request_self.append(selfs[idx] * 1e3)

    def calls(name: str) -> int:
        return int(totals.get(name, (0, 0.0))[0])

    def seconds(name: str) -> float:
        return float(totals.get(name, (0, 0.0))[1])

    out: dict[str, tuple[float, str]] = {}
    p50, tail = _p50_tail(request_self)
    out["serve.request_self_ms.p50"] = (p50, "ms")
    out["serve.request_self_ms.tail"] = (tail, "ms")
    waits = [w * 1e3 for key in ("serve.wait.ingest", "serve.wait.query")
             for w in rec.samples.get(key, [])]
    p50, tail = _p50_tail(waits)
    out["serve.wait_ms.p50"] = (p50, "ms")
    out["serve.wait_ms.tail"] = (tail, "ms")
    out["serve.admitted"] = (program.get("serve.admitted", 0), "count")
    out["serve.rejected"] = (program.get("serve.rejected", 0), "count")
    out["api.wire.decode_s"] = (seconds("api.wire.decode"), "s")
    out["api.wire.encode_s"] = (seconds("api.wire.encode"), "s")
    out["streams.batch_build_s"] = (seconds("streams.batch_build"), "s")
    for op in ("ingest", "ingest_batch", "query", "snapshot", "restore"):
        out[f"api.engine.{op}_s"] = (seconds(f"api.engine.{op}"), "s")

    before, after = kernel_totals(kernels_before), kernel_totals(kernels_after)
    for kernel in KERNELS:
        c0, s0 = before.get(kernel, (0, 0.0))
        c1, s1 = after.get(kernel, (0, 0.0))
        out[f"kernels.{kernel}.calls"] = (c1 - c0, "count")
        out[f"kernels.{kernel}.s"] = (s1 - s0, "s")
    units = max(program.get("ingest_units", 0), 1)
    out["kernels.forest_scatter.calls_per_batch"] = (
        out["kernels.forest_scatter.calls"][0] / units, "count")
    out["hashing.powmod_array.calls"] = (calls("hashing.powmod_array"), "count")
    out["hashing.powmod_array.s"] = (seconds("hashing.powmod_array"), "s")

    out["core.forest.extract_s"] = (seconds("core.forest.extract"), "s")
    out["core.sparsify_simple.query_s"] = (seconds("core.sparsify_simple.query"), "s")
    for graph in ("gomory_hu", "maxflow"):
        out[f"graphs.{graph}.calls"] = (calls(f"graphs.{graph}"), "count")
        out[f"graphs.{graph}.s"] = (seconds(f"graphs.{graph}"), "s")

    out["sketch.arena.adopt.calls"] = (calls("sketch.arena.adopt"), "count")
    out["sketch.arena.adopt.s"] = (seconds("sketch.arena.adopt"), "s")
    for op in ("dump", "load", "merge_bytes", "subtract_bytes", "peek_meta",
               "deflate", "inflate"):
        out[f"sketch.serialize.{op}_s"] = (seconds(f"sketch.serialize.{op}"), "s")
    out["sketch.serialize.dump.calls"] = (calls("sketch.serialize.dump"), "count")
    out["sketch.serialize.bytes_out"] = (
        rec.counters.get("sketch.serialize.bytes_out", 0), "bytes")
    dumps = rec.counters.get("sketch.serialize.dumps", 0)
    out["sketch.serialize.sparse_share"] = (
        rec.counters.get("sketch.serialize.sparse_dumps", 0) / dumps if dumps else 0.0,
        "ratio")

    out["distributed.partition_s"] = (seconds("distributed.partition"), "s")
    out["distributed.site_consume_s"] = (seconds("distributed.site_consume"), "s")
    out["distributed.merge_s"] = (seconds("distributed.merge"), "s")
    out["distributed.shipped_bytes"] = (program.get("distributed.shipped_bytes", 0), "bytes")
    out["temporal.seal.calls"] = (calls("temporal.seal"), "count")
    out["temporal.seal_s"] = (seconds("temporal.seal"), "s")
    out["temporal.window_s"] = (seconds("temporal.window"), "s")
    out["temporal.store.append_s"] = (seconds("temporal.store.append"), "s")
    out["temporal.store.fsync_s"] = (seconds("temporal.store.fsync"), "s")
    out["temporal.store.disk_loads_per_query"] = (
        program.get("temporal.store.disk_loads_per_query", 0.0), "count")
    out["temporal.store.resident_bytes"] = (
        program.get("temporal.store.resident_bytes", 0), "bytes")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    t0, t1 = phase
    wall = t1 - t0
    out["trace.phase_s"] = (wall, "s")
    out["trace.overhead_pct"] = (100.0 * (wall / program["untraced_s"] - 1.0), "%")
    out["trace.unattributed_share"] = (1.0 - rec.covered(t0, t1) / wall, "ratio")
    out["trace.spans"] = (len(rec.start), "count")
    return out
