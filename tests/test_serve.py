"""The ingestion/query service: wire contract, concurrency, parity.

Everything runs in-process through the bundled ASGI test client — no
sockets, no server.  The heavyweight guarantees pinned here:

* **Parity**: a served answer is byte-identical (canonical JSON, minus
  telemetry) to the in-process ``engine.query()`` answer for every
  serialisable kind and every capability it declares.
* **Backpressure**: a full ingest queue rejects batch submissions with
  429 + ``Retry-After`` and accurate counters.
* **Idempotency**: replaying a client batch id returns the original
  admission receipt and ingests nothing.
* **Races**: concurrent ingest and query interleave safely (the tenant
  lock serialises engine state).
* **Shutdown**: lifespan shutdown drains every admitted job before
  closing engines.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import GraphSketchEngine, SketchSpec
from repro.api.wire import blob_from_wire
from repro.serve import ServeConfig, create_app
from repro.serve.testing import AsgiClient
from repro.streams import EdgeUpdate, StreamBatch

N = 8

#: Spec declarations (wire form) per serialisable kind — parameters
#: mirror tests/test_wire.py so parity runs against known-good configs.
SPEC_PARAMS = {
    "spanning_forest": {},
    "edge_connectivity": {"k": 2},
    "mincut": {"epsilon": 0.5, "c_k": 0.4},
    "simple_sparsification": {"epsilon": 0.5, "c_k": 0.15},
    "sparsification": {"epsilon": 0.5, "c_k": 0.3, "c_rough": 0.05},
    "weighted_sparsification": {"max_weight": 2, "epsilon": 0.5, "c_k": 0.15},
    "subgraph_count": {"order": 3, "samplers": 6},
    "cut_edges": {"k": 16},
    "bipartiteness": {},
    "mst_weight": {"max_weight": 2},
}
SEEDS = {kind: 31 + i for i, kind in enumerate(sorted(SPEC_PARAMS))}

#: A small deterministic insert-only workload over the N-node universe.
WORKLOAD = [
    [u, v, 1]
    for u in range(N)
    for v in range(u + 1, N)
    if (u * 7 + v * 3) % 4 != 0
]

CANONICAL_QUERIES = {
    "connectivity": {"query": "connectivity", "args": {"u": 0, "v": N - 1}},
    "k-edge-connectivity": {"query": "k-edge-connectivity", "args": {}},
    "mincut": {"query": "mincut", "args": {}},
    "cut-query": {"query": "cut-query", "args": {"side": [0, 1]}},
    "sparsifier": {"query": "sparsifier", "args": {}},
    "subgraph-count": {"query": "subgraph-count", "args": {"pattern": "triangle"}},
    "properties": {"query": "properties", "args": {}},
}


def wire_query(capability: str) -> dict:
    return {"v": 1, "window": None, **CANONICAL_QUERIES[capability]}


def tenant_declaration(kind: str, name: str | None = None) -> dict:
    return {
        "name": name or kind,
        "spec": {
            "kind": kind, "n": N, "seed": SEEDS[kind],
            "params": SPEC_PARAMS[kind],
        },
    }


def reference_engine(kind: str) -> GraphSketchEngine:
    """The in-process engine the served tenant must match exactly."""
    spec = SketchSpec.of(kind, N, seed=SEEDS[kind], **SPEC_PARAMS[kind])
    batch = StreamBatch.from_updates(
        N, [EdgeUpdate(u, v, d) for u, v, d in WORKLOAD]
    )
    return GraphSketchEngine.for_spec(spec).ingest_batch(batch)


def strip_telemetry(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k != "telemetry"},
        sort_keys=True,
    )


def run(coro) -> None:
    asyncio.run(coro)


class TestLifecycleAndRouting:
    def test_healthz_and_unknown_routes(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                assert (await client.get("/healthz")).json() == {"status": "ok"}
                r = await client.get("/nope")
                assert r.status == 404
                assert r.json()["error"]["code"] == "NOT_FOUND"
                r = await client.delete("/healthz")
                assert r.status == 404
                r = await client.request("PUT", "/v1/tenants")
                assert r.status == 405
                assert r.json()["error"]["code"] == "METHOD_NOT_ALLOWED"

        run(scenario())

    def test_not_accepting_before_startup(self):
        async def scenario():
            client = AsgiClient(create_app())  # no lifespan: never started
            r = await client.post(
                "/v1/tenants", json=tenant_declaration("spanning_forest")
            )
            assert r.status == 503
            assert r.json()["error"]["code"] == "SHUTTING_DOWN"

        run(scenario())


class TestTenantCrud:
    def test_create_list_get_delete(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                r = await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                assert r.status == 201
                info = r.json()
                assert info["capabilities"] == ["connectivity"]
                assert info["spec"]["kind"] == "spanning_forest"
                r = await client.get("/v1/tenants")
                assert r.json() == {"tenants": ["spanning_forest"]}
                r = await client.get("/v1/tenants/spanning_forest")
                assert r.status == 200
                r = await client.delete("/v1/tenants/spanning_forest")
                assert r.status == 200
                r = await client.get("/v1/tenants/spanning_forest")
                assert r.status == 404
                assert r.json()["error"]["code"] == "TENANT_UNKNOWN"

        run(scenario())

    def test_duplicate_name_conflicts(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                decl = tenant_declaration("spanning_forest")
                assert (await client.post("/v1/tenants", json=decl)).status == 201
                r = await client.post("/v1/tenants", json=decl)
                assert r.status == 409
                assert r.json()["error"]["code"] == "TENANT_EXISTS"

        run(scenario())

    @pytest.mark.parametrize("declaration,status,code", [
        ({"name": "x/y", "spec": {"kind": "spanning_forest", "n": N}},
         400, "WIRE_INVALID"),
        ({"name": "ok"}, 400, "WIRE_INVALID"),
        ({"name": "ok", "spec": {"kind": "page_rank", "n": N}},
         422, "NOT_SUPPORTED"),
        ({"name": "ok", "spec": {"kind": "spanning_forest", "n": N,
                                 "params": {"bogus": 1}}},
         400, "BAD_REQUEST"),
        ({"name": "ok", "spec": {"kind": "baswana_sen_spanner", "n": N,
                                 "params": {"k": 2}}},
         422, "NOT_SUPPORTED"),
        ({"name": "ok", "spec": {"kind": "spanning_forest", "n": N},
          "deployment": {"epochs": {"count": 4}}},
         422, "NOT_SUPPORTED"),
        ({"name": "ok", "spec": {"kind": "spanning_forest", "n": N},
          "deployment": {"sharded": {}, "epochs": {}}},
         422, "NOT_SUPPORTED"),
        ({"name": "ok", "spec": {"kind": "spanning_forest", "n": N},
          "deployment": {"sharded": {"strategy": "telepathy"}}},
         422, "NOT_SUPPORTED"),
    ])
    def test_refused_declarations(self, declaration, status, code):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                r = await client.post("/v1/tenants", json=declaration)
                assert r.status == status, r.text
                assert r.json()["error"]["code"] == code

        run(scenario())


class TestIngestAndParity:
    @pytest.mark.parametrize("kind", sorted(SPEC_PARAMS))
    def test_served_answers_match_in_process_engine(self, kind):
        """The parity contract, all serialisable kinds × capabilities."""
        from repro.api.capabilities import capability_entry

        async def scenario():
            reference = reference_engine(kind)
            async with AsgiClient(create_app()) as client:
                r = await client.post(
                    "/v1/tenants", json=tenant_declaration(kind)
                )
                assert r.status == 201, r.text
                r = await client.post(
                    f"/v1/tenants/{kind}/batches",
                    json={"updates": WORKLOAD},
                )
                assert r.status == 202, r.text
                await client.post(f"/v1/tenants/{kind}/flush")
                for capability in sorted(capability_entry(kind).queries):
                    served = await client.post(
                        f"/v1/tenants/{kind}/query",
                        json=wire_query(capability),
                    )
                    assert served.status == 200, served.text
                    local = reference.query(wire_query(capability))
                    assert strip_telemetry(served.json()) == \
                        strip_telemetry(local.to_dict()), (kind, capability)

        run(scenario())

    def test_columnar_as_batch_matches_batches(self):
        """``as_batch`` columnar ingest lands byte-identical to ``batches``.

        Same kind, same seed, same workload — one tenant fed the
        row-wise form, one the columnar form; their codec-v2 snapshots
        must match exactly, which pins every cell of the sketch state.
        """
        async def scenario():
            kind = "spanning_forest"
            columns = {
                "lo": [u for u, _, _ in WORKLOAD],
                "hi": [v for _, v, _ in WORKLOAD],
                "delta": [d for _, _, d in WORKLOAD],
            }
            async with AsgiClient(create_app()) as client:
                for name in ("rows", "cols"):
                    decl = tenant_declaration(kind, name=name)
                    assert (await client.post(
                        "/v1/tenants", json=decl)).status == 201
                r = await client.post("/v1/tenants/rows/batches",
                                      json={"updates": WORKLOAD})
                assert r.status == 202, r.text
                r = await client.post("/v1/tenants/cols/as_batch",
                                      json=columns)
                assert r.status == 202, r.text
                # Same receipt shape and update count as the row form.
                assert r.json()["updates"] == len(WORKLOAD)
                snaps = []
                for name in ("rows", "cols"):
                    await client.post(f"/v1/tenants/{name}/flush")
                    r = await client.get(f"/v1/tenants/{name}/snapshot")
                    assert r.status == 200
                    snaps.append(r.json()["blob"])
                assert snaps[0] == snaps[1]

        run(scenario())

    def test_columnar_default_delta_and_idempotency(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                # Omitted delta column means unit insertions.
                body = {"lo": [0, 1], "hi": [1, 2], "batch_id": "b-1"}
                r = await client.post(
                    "/v1/tenants/spanning_forest/as_batch", json=body
                )
                assert r.status == 202 and r.json()["updates"] == 2
                receipt = r.json()
                # Replay returns the original receipt, ingests nothing.
                r = await client.post(
                    "/v1/tenants/spanning_forest/as_batch", json=body
                )
                assert r.status == 200
                assert r.json() == {**receipt, "replayed": True}
                info = (await client.get(
                    "/v1/tenants/spanning_forest")).json()
                assert info["batches_deduplicated"] == 1

        run(scenario())

    @pytest.mark.parametrize("body,code", [
        ({"lo": [], "hi": []}, "BAD_REQUEST"),
        ({"lo": [0], "hi": [1, 2]}, "WIRE_INVALID"),            # ragged
        ({"lo": [0], "hi": [1], "delta": []}, "WIRE_INVALID"),  # ragged delta
        ({"lo": [0], "hi": ["x"]}, "WIRE_INVALID"),
        ({"lo": 3, "hi": [1]}, "WIRE_INVALID"),
        ({"lo": [0], "hi": [0]}, "STREAM_INVALID"),             # self-loop
        ({"lo": [0], "hi": [N]}, "STREAM_INVALID"),             # outside
    ])
    def test_rejected_columnar_batches(self, body, code):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                r = await client.post(
                    "/v1/tenants/spanning_forest/as_batch", json=body
                )
                assert r.status == 400, r.text
                assert r.json()["error"]["code"] == code

        run(scenario())

    def test_sharded_tenant_matches_local(self):
        async def scenario():
            reference = reference_engine("mincut")
            async with AsgiClient(create_app()) as client:
                decl = tenant_declaration("mincut", name="sharded-mincut")
                decl["deployment"] = {
                    "sharded": {"sites": 3, "strategy": "hash-edge", "seed": 0}
                }
                assert (await client.post("/v1/tenants", json=decl)).status == 201
                # Two separate batches: linearity merges the per-ingest
                # reports into the same state one stream would produce.
                half = len(WORKLOAD) // 2
                for part in (WORKLOAD[:half], WORKLOAD[half:]):
                    r = await client.post(
                        "/v1/tenants/sharded-mincut/batches",
                        json={"updates": part},
                    )
                    assert r.status == 202
                await client.post("/v1/tenants/sharded-mincut/flush")
                served = await client.post(
                    "/v1/tenants/sharded-mincut/query",
                    json=wire_query("mincut"),
                )
                local = reference.query(wire_query("mincut"))
                assert strip_telemetry(served.json()) == \
                    strip_telemetry(local.to_dict())

        run(scenario())

    def test_temporal_tenant_windows(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                decl = tenant_declaration("spanning_forest", name="tmp")
                decl["deployment"] = {"epochs": {}}
                assert (await client.post("/v1/tenants", json=decl)).status == 201
                half = len(WORKLOAD) // 2
                await client.post("/v1/tenants/tmp/batches",
                                  json={"updates": WORKLOAD[:half]})
                r = await client.post("/v1/tenants/tmp/seal")
                assert r.status == 200 and r.json()["epochs_sealed"] == 1
                await client.post("/v1/tenants/tmp/batches",
                                  json={"updates": WORKLOAD[half:]})
                r = await client.post("/v1/tenants/tmp/seal")
                assert r.json()["epochs_sealed"] == 2
                # Window [0, 1) sees only the first half.
                query = wire_query("connectivity")
                query["window"] = [0, 1]
                served = await client.post("/v1/tenants/tmp/query", json=query)
                assert served.status == 200
                assert served.json()["window"] == [0, 1]
                spec = SketchSpec.of(
                    "spanning_forest", N, seed=SEEDS["spanning_forest"]
                )
                reference = GraphSketchEngine.for_spec(spec).epochs()
                reference.ingest_batch(StreamBatch.from_updates(
                    N, [EdgeUpdate(u, v, d) for u, v, d in WORKLOAD[:half]]
                ))
                reference.seal_epoch()
                assert strip_telemetry(served.json()) == \
                    strip_telemetry(reference.query(query).to_dict())

        run(scenario())

    def test_seal_on_non_temporal_tenant_is_422(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                r = await client.post("/v1/tenants/spanning_forest/seal")
                assert r.status == 422
                assert r.json()["error"]["code"] == "NOT_SUPPORTED"

        run(scenario())

    def test_snapshot_restores_in_process(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                kind = "spanning_forest"
                await client.post("/v1/tenants", json=tenant_declaration(kind))
                await client.post(f"/v1/tenants/{kind}/batches",
                                  json={"updates": WORKLOAD})
                await client.post(f"/v1/tenants/{kind}/flush")
                r = await client.get(f"/v1/tenants/{kind}/snapshot")
                assert r.status == 200 and r.json()["codec"] == "v2"
                blob = blob_from_wire(r.json()["blob"])
            assert blob == reference_engine(kind).snapshot()
            restored = GraphSketchEngine.restore(blob)
            assert restored.query(wire_query("connectivity")).connected \
                == reference_engine(kind).query(
                    wire_query("connectivity")).connected

        run(scenario())

    @pytest.mark.parametrize("body,code", [
        ({"updates": []}, "BAD_REQUEST"),
        ({"updates": [[0, 0]]}, "STREAM_INVALID"),      # self-loop
        ({"updates": [[0, N]]}, "STREAM_INVALID"),      # outside universe
        ({"updates": [[0, 1, 0]]}, "STREAM_INVALID"),   # zero delta
        ({"updates": [["a", 1]]}, "WIRE_INVALID"),
        ({"updates": "nope"}, "WIRE_INVALID"),
        ({"batch_id": 7, "updates": [[0, 1]]}, "BAD_REQUEST"),
    ])
    def test_rejected_batches(self, body, code):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                r = await client.post(
                    "/v1/tenants/spanning_forest/batches", json=body
                )
                assert r.status == 400, r.text
                assert r.json()["error"]["code"] == code

        run(scenario())

    def test_query_wire_errors(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                await client.post("/v1/tenants/spanning_forest/batches",
                                  json={"updates": [[0, 1]]})
                await client.post("/v1/tenants/spanning_forest/flush")
                r = await client.post("/v1/tenants/spanning_forest/query",
                                      json={"query": "connectivity"})
                assert r.status == 400
                assert r.json()["error"]["code"] == "WIRE_INVALID"
                r = await client.post("/v1/tenants/spanning_forest/query",
                                      json=wire_query("mincut"))
                assert r.status == 422
                assert r.json()["error"]["code"] == "NOT_SUPPORTED"
                r = await client.post("/v1/tenants/spanning_forest/query",
                                      body=b"{not json")
                assert r.status == 400
                assert r.json()["error"]["code"] == "BAD_REQUEST"

        run(scenario())


class TestIdempotency:
    def test_replay_returns_original_receipt_and_ingests_nothing(self):
        async def scenario():
            app = create_app()
            async with AsgiClient(app) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                first = await client.post(
                    "/v1/tenants/spanning_forest/batches",
                    json={"batch_id": "b-1", "updates": WORKLOAD},
                )
                assert first.status == 202
                assert first.json()["replayed"] is False
                await client.post("/v1/tenants/spanning_forest/flush")
                replay = await client.post(
                    "/v1/tenants/spanning_forest/batches",
                    json={"batch_id": "b-1", "updates": [[0, 1]]},
                )
                assert replay.status == 200
                assert replay.json() == {**first.json(), "replayed": True}
                await client.post("/v1/tenants/spanning_forest/flush")
                info = (await client.get("/v1/tenants/spanning_forest")).json()
                assert info["updates_ingested"] == len(WORKLOAD)
                assert info["batches_ingested"] == 1
                assert info["batches_deduplicated"] == 1

        run(scenario())

    def test_ttl_expiry_forgets_batch_ids(self):
        async def scenario():
            now = [0.0]
            app = create_app(
                ServeConfig(idempotency_ttl=10.0), clock=lambda: now[0]
            )
            async with AsgiClient(app) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                body = {"batch_id": "b", "updates": [[0, 1]]}
                assert (await client.post(
                    "/v1/tenants/spanning_forest/batches", json=body
                )).status == 202
                now[0] = 5.0   # still remembered
                assert (await client.post(
                    "/v1/tenants/spanning_forest/batches", json=body
                )).status == 200
                now[0] = 20.0  # expired: admitted as a fresh batch
                assert (await client.post(
                    "/v1/tenants/spanning_forest/batches", json=body
                )).status == 202

        run(scenario())

    def test_deleting_tenant_forgets_its_batch_ids(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                decl = tenant_declaration("spanning_forest")
                await client.post("/v1/tenants", json=decl)
                body = {"batch_id": "b", "updates": [[0, 1]]}
                await client.post("/v1/tenants/spanning_forest/batches",
                                  json=body)
                await client.post("/v1/tenants/spanning_forest/flush")
                await client.delete("/v1/tenants/spanning_forest")
                await client.post("/v1/tenants", json=decl)
                r = await client.post("/v1/tenants/spanning_forest/batches",
                                      json=body)
                assert r.status == 202  # fresh tenant, fresh id space

        run(scenario())


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        async def scenario():
            app = create_app(ServeConfig(queue_capacity=3,
                                         retry_after_seconds=7))
            async with AsgiClient(app) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                tenant = app.registry.get("spanning_forest")
                async with tenant.lock:  # stall the drainer mid-job
                    statuses = []
                    for i in range(6):
                        r = await client.post(
                            "/v1/tenants/spanning_forest/batches",
                            json={"updates": [[i % N, (i + 1) % N]]},
                        )
                        statuses.append(r.status)
                        if r.status == 429:
                            assert r.headers["retry-after"] == "7"
                            assert r.json()["error"]["code"] == "QUEUE_FULL"
                    # 3 queued (+ possibly 1 already in-flight at the
                    # drainer, stalled on the lock); the rest 429.
                    admitted = statuses.count(202)
                    assert admitted in (3, 4)
                    assert statuses.count(429) == 6 - admitted
                await client.post("/v1/tenants/spanning_forest/flush")
                info = (await client.get("/v1/tenants/spanning_forest")).json()
                assert info["batches_ingested"] == admitted
                metrics = (await client.get("/metrics")).text
                assert (
                    f"repro_serve_jobs_rejected_total {6 - admitted}"
                ) in metrics

        run(scenario())

    def test_streaming_waits_instead_of_rejecting(self):
        async def scenario():
            # Queue of 1 + chunk size 1: every line must wait for the
            # drainer, yet all lines land (flow control, not rejection).
            app = create_app(ServeConfig(queue_capacity=1,
                                         stream_chunk_updates=1))
            async with AsgiClient(app) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                lines = b"".join(
                    json.dumps([u, u + 1]).encode() + b"\n"
                    for u in range(N - 1)
                )
                r = await client.post("/v1/tenants/spanning_forest/stream",
                                      body=lines)
                assert r.status == 202
                assert r.json()["updates"] == N - 1
                await client.post("/v1/tenants/spanning_forest/flush")
                info = (await client.get("/v1/tenants/spanning_forest")).json()
                assert info["updates_ingested"] == N - 1

        run(scenario())


class TestStreaming:
    def test_chunked_ndjson_reassembles_lines(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                payload = b"".join(
                    json.dumps({"u": u, "v": u + 1}).encode() + b"\n"
                    for u in range(N - 1)
                )
                # Split mid-line: the handler must buffer across chunks.
                chunks = [payload[:7], payload[7:20], payload[20:]]
                r = await client.post("/v1/tenants/spanning_forest/stream",
                                      chunks=chunks)
                assert r.status == 202, r.text
                assert r.json()["updates"] == N - 1
                await client.post("/v1/tenants/spanning_forest/flush")
                served = await client.post(
                    "/v1/tenants/spanning_forest/query",
                    json=wire_query("connectivity"),
                )
                assert served.json()["body"]["connected"] is True

        run(scenario())

    def test_invalid_ndjson_line_is_400(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                r = await client.post("/v1/tenants/spanning_forest/stream",
                                      body=b'[0, 1]\nnot json\n')
                assert r.status == 400
                assert r.json()["error"]["code"] == "BAD_REQUEST"

        run(scenario())


class TestConcurrency:
    def test_ingest_while_query_races(self):
        """Interleaved submissions and queries never corrupt or error."""
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                edges = [(u, v) for u, v, _ in WORKLOAD]
                # Seed one drained batch so queries during the race
                # never hit the empty-engine refusal.
                first = edges[0]
                await client.post(
                    "/v1/tenants/spanning_forest/batches",
                    json={"updates": [list(first)]},
                )
                await client.post("/v1/tenants/spanning_forest/flush")
                edges = edges[1:]

                async def ingest() -> None:
                    for u, v in edges:
                        r = await client.post(
                            "/v1/tenants/spanning_forest/batches",
                            json={"updates": [[u, v]]},
                        )
                        assert r.status in (202, 429)

                async def query() -> None:
                    for _ in range(10):
                        r = await client.post(
                            "/v1/tenants/spanning_forest/query",
                            json=wire_query("connectivity"),
                        )
                        assert r.status == 200, r.text
                        body = r.json()["body"]
                        assert 1 <= body["components"] <= N

                await asyncio.gather(ingest(), query(), ingest(), query())
                await client.post("/v1/tenants/spanning_forest/flush")
                final = await client.post(
                    "/v1/tenants/spanning_forest/query",
                    json=wire_query("connectivity"),
                )
                # Both ingest tasks submitted the same inserts; doubled
                # multiplicities leave connectivity structure unchanged.
                reference = reference_engine("spanning_forest")
                assert final.json()["body"]["components"] == \
                    reference.query(wire_query("connectivity")).components

        run(scenario())

    def test_shutdown_drains_admitted_jobs(self):
        """Jobs admitted before shutdown land in the sketch, not the bin."""
        async def scenario():
            app = create_app(ServeConfig(queue_capacity=len(WORKLOAD) + 1))
            async with AsgiClient(app) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                tenant = app.registry.get("spanning_forest")
                for u, v, d in WORKLOAD:
                    r = await client.post(
                        "/v1/tenants/spanning_forest/batches",
                        json={"updates": [[u, v, d]]},
                    )
                    assert r.status == 202
                # Exit immediately: shutdown must drain, not drop.
            assert tenant.updates_ingested == len(WORKLOAD)
            assert tenant.pending == 0
            assert tenant.drain_errors == 0
            reference = reference_engine("spanning_forest")
            assert tenant.engine.query(wire_query("connectivity")).components \
                == reference.query(wire_query("connectivity")).components

        run(scenario())

    def test_drain_error_is_accounted_not_fatal(self):
        async def scenario():
            app = create_app()
            async with AsgiClient(app) as client:
                decl = tenant_declaration("spanning_forest", name="tmp")
                decl["deployment"] = {"epochs": {}}
                await client.post("/v1/tenants", json=decl)
                tenant = app.registry.get("tmp")
                # Sabotage: sealing an empty epoch raises inside the
                # drainer; the service must absorb it and keep going.
                r = await client.post("/v1/tenants/tmp/seal")
                assert r.status in (200, 422, 500)
                await client.post("/v1/tenants/tmp/batches",
                                  json={"updates": [[0, 1]]})
                await client.post("/v1/tenants/tmp/flush")
                assert tenant.updates_ingested == 1

        run(scenario())


class TestMetrics:
    def test_exposition_content(self):
        async def scenario():
            async with AsgiClient(create_app()) as client:
                await client.post(
                    "/v1/tenants", json=tenant_declaration("spanning_forest")
                )
                await client.post("/v1/tenants/spanning_forest/batches",
                                  json={"updates": WORKLOAD})
                await client.post("/v1/tenants/spanning_forest/flush")
                for _ in range(3):
                    await client.post("/v1/tenants/spanning_forest/query",
                                      json=wire_query("connectivity"))
                r = await client.get("/metrics")
                assert r.status == 200
                assert r.headers["content-type"].startswith("text/plain")
                text = r.text
                assert "# TYPE repro_serve_queue_depth gauge" in text
                assert "repro_serve_queue_depth 0" in text
                assert "repro_serve_tenants 1" in text
                assert (
                    "repro_serve_updates_ingested_total"
                    f'{{tenant="spanning_forest"}} {len(WORKLOAD)}'
                ) in text
                assert (
                    "repro_serve_queries_total"
                    '{capability="connectivity",tenant="spanning_forest"} 3'
                ) in text
                assert "repro_serve_query_seconds_total" in text

        run(scenario())
