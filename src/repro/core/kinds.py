"""The sketch-kind table: every registry sketch class under its stable name.

This is the one place a sketch kind is declared.  The serialisation
layer (:mod:`repro.sketch.serialize`) writes the name into every blob
header and rebuilds a blob's sketch as ``cls(n, source=HashSource(seed),
**params)`` — the same recipe :meth:`repro.api.SketchSpec.build` uses —
and the capability registry (:mod:`repro.api.capabilities`) registers
each class's declared ``CAPABILITIES`` under the same name.

The arena-backed kinds are the serialisable linear sketches: they ship
between sites, checkpoint into epochs, and snapshot.  The two adaptive
spanner builders are *drivers* holding no persistent linear state
between batches, so they neither serialise nor shard by bytes.
"""

from __future__ import annotations

from .cut_queries import CutEdgesSketch
from .edge_connect import EdgeConnectivitySketch
from .forest import SpanningForestSketch
from .mincut import MinCutSketch
from .properties import BipartitenessSketch, MSTWeightSketch
from .spanner_bs import BaswanaSenSpanner
from .spanner_recurse import RecurseConnectSpanner
from .sparsify import Sparsification
from .sparsify_simple import SimpleSparsification
from .subgraph_count import SubgraphSketch
from .weighted import WeightedSparsification

__all__ = ["SKETCH_KINDS"]

#: Kind name → sketch class, in registration order.
SKETCH_KINDS: dict[str, type] = {
    "spanning_forest": SpanningForestSketch,
    "edge_connectivity": EdgeConnectivitySketch,
    "mincut": MinCutSketch,
    "simple_sparsification": SimpleSparsification,
    "sparsification": Sparsification,
    "weighted_sparsification": WeightedSparsification,
    "subgraph_count": SubgraphSketch,
    "cut_edges": CutEdgesSketch,
    "bipartiteness": BipartitenessSketch,
    "mst_weight": MSTWeightSketch,
    "baswana_sen_spanner": BaswanaSenSpanner,
    "recurse_connect_spanner": RecurseConnectSpanner,
}
