"""Snapshot of the public API surface.

``repro.__all__`` and ``repro.api.__all__`` are pinned name for name:
an accidental removal, rename, or silent addition fails here before it
reaches a caller.  Growing the API deliberately means updating the
snapshot in the same change — which is the point.
"""

from __future__ import annotations

import importlib
import importlib.util

import pytest

import repro
import repro.api
import repro.errors


EXPECTED_API = frozenset({
    "CAPABILITIES",
    "CapabilityEntry",
    "ConnectivityQuery",
    "ConnectivityResult",
    "CutQuery",
    "CutQueryResult",
    "GraphSketchEngine",
    "KEdgeConnectivityQuery",
    "KEdgeConnectivityResult",
    "MinCutQuery",
    "MinCutQueryResult",
    "PropertiesQuery",
    "PropertiesResult",
    "Query",
    "QueryResult",
    "QueryTelemetry",
    "SketchSpec",
    "SpannerDistanceQuery",
    "SpannerDistanceResult",
    "SparsifierQuery",
    "SparsifierResult",
    "SubgraphCountQuery",
    "SubgraphCountResult",
    "WIRE_VERSION",
    "build_sketch",
    "capability_entry",
    "capability_of",
    "kind_of_sketch",
    "query_from_dict",
    "query_to_dict",
    "register_capability",
    "registered_kinds",
    "result_from_dict",
    "result_to_dict",
})

EXPECTED_SKETCH_CLASSES = frozenset({
    "BaswanaSenSpanner",
    "BipartitenessSketch",
    "CutEdgesSketch",
    "EdgeConnectivitySketch",
    "MinCutSketch",
    "MSTWeightSketch",
    "RecurseConnectSpanner",
    "SimpleSparsification",
    "Sparsification",
    "SpanningForestSketch",
    "SubgraphSketch",
    "WeightedSparsification",
})

EXPECTED_EXCEPTIONS = frozenset({
    "AdaptivityError",
    "EpochStoreError",
    "GraphError",
    "NotSupportedError",
    "RecoveryFailed",
    "ReproError",
    "SamplerFailed",
    "SketchCompatibilityError",
    "SketchFailure",
    "StoreCorruptionError",
    "StreamError",
    "WireFormatError",
})

EXPECTED_STREAM_MODEL = frozenset({
    "DynamicGraphStream",
    "EdgeUpdate",
    "HashSource",
    "StreamBatch",
})

EXPECTED_TEMPORAL_STORE = frozenset({
    "EpochStore",
    "RetentionPolicy",
})

EXPECTED_TOP_LEVEL = (
    EXPECTED_API
    | EXPECTED_SKETCH_CLASSES
    | EXPECTED_EXCEPTIONS
    | EXPECTED_STREAM_MODEL
    | EXPECTED_TEMPORAL_STORE
    | {"__version__", "error_code_table"}
)

EXPECTED_KINDS = (
    "baswana_sen_spanner",
    "bipartiteness",
    "cut_edges",
    "edge_connectivity",
    "mincut",
    "mst_weight",
    "recurse_connect_spanner",
    "simple_sparsification",
    "spanning_forest",
    "sparsification",
    "subgraph_count",
    "weighted_sparsification",
)

#: Entry points that once duplicated the single ingest path
#: (``consume_batch``) and the single query path
#: (``GraphSketchEngine.query``); none may come back.
REMOVED_NAMES = {
    "repro.api.dispatch": frozenset({"answer_query"}),
    "repro.distributed": frozenset({"sharded_consume"}),
    "repro.temporal": frozenset({"TemporalQueryEngine", "window_answer"}),
}

#: Modules that existed only to keep those entry points from spreading.
REMOVED_MODULES = ("repro.analysis.deprecation", "repro.api.deprecation")

EXPECTED_CAPABILITIES = (
    "connectivity",
    "k-edge-connectivity",
    "mincut",
    "cut-query",
    "sparsifier",
    "spanner-distance",
    "subgraph-count",
    "properties",
)


class TestTopLevelSurface:
    def test_all_matches_snapshot(self):
        assert frozenset(repro.__all__) == EXPECTED_TOP_LEVEL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing {name}"

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert frozenset(repro.api.__all__) == EXPECTED_API

    def test_every_exported_name_resolves(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)


class TestExceptionHierarchy:
    def test_every_public_exception_is_exported(self):
        """No exception class hides in repro.errors unexported."""
        public = {
            name for name, obj in vars(repro.errors).items()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and not name.startswith("_")
        }
        assert public == EXPECTED_EXCEPTIONS
        assert public <= set(repro.__all__)

    def test_all_derive_from_repro_error(self):
        for name in EXPECTED_EXCEPTIONS - {"ReproError"}:
            assert issubclass(getattr(repro, name), repro.ReproError)


class TestRegistrySnapshots:
    def test_registered_kinds(self):
        assert repro.registered_kinds() == EXPECTED_KINDS

    def test_capability_vocabulary(self):
        assert repro.CAPABILITIES == EXPECTED_CAPABILITIES

    def test_every_kind_declares_known_capabilities(self):
        for kind in repro.registered_kinds():
            entry = repro.capability_entry(kind)
            assert entry.queries, f"{kind} declares no capabilities"
            assert entry.queries <= set(EXPECTED_CAPABILITIES)


class TestSingleSurface:
    def test_registry_sketch_classes_have_no_consume(self):
        for kind in repro.registered_kinds():
            cls = repro.capability_entry(kind).cls
            assert not hasattr(cls, "consume"), (
                f"{cls.__name__}.consume is back; ingest is consume_batch"
            )

    @pytest.mark.parametrize("module", sorted(REMOVED_NAMES))
    def test_removed_names_stay_removed(self, module):
        mod = importlib.import_module(module)
        removed = REMOVED_NAMES[module]
        assert not removed & set(getattr(mod, "__all__", ()))
        assert not [name for name in removed if hasattr(mod, name)]

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_removed_modules_stay_removed(self, module):
        assert importlib.util.find_spec(module) is None
