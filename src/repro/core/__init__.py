"""The paper's core algorithms: sparsification, subgraphs, spanners."""

from .cut_queries import CutEdgesSketch
from .edge_connect import EdgeConnectivitySketch
from .forest import SpanningForestSketch
from .incidence import decode_incidence_sample, edge_domain, incidence_rows
from .mincut import MinCutResult, MinCutSketch, default_k
from .patterns import (
    CLIQUE_4,
    CYCLE_4,
    EMPTY_3,
    PATH_3,
    PATH_4,
    SINGLE_EDGE_3,
    STAR_4,
    TRIANGLE,
    Pattern,
    encoding_class,
    named_patterns,
)
from .properties import (
    BipartitenessSketch,
    MSTWeightSketch,
    is_k_connected_sketch,
)
from .spanner_bs import BaswanaSenSpanner, SpannerBuildReport
from .spanner_common import ClusterState, NeighborhoodSketch
from .spanner_recurse import RecurseConnectSpanner, recurse_connect_stretch_bound
from .sparsifier import CutQualityReport, Sparsifier, cut_approximation_report
from .sparsify import Sparsification, SparsificationDiagnostics
from .sparsify_simple import SimpleSparsification, default_sparsifier_k
from .subgraph_count import GammaEstimate, SubgraphSketch
from .weighted import WeightedSparsification, weight_class_of

__all__ = [
    "BaswanaSenSpanner",
    "BipartitenessSketch",
    "CutEdgesSketch",
    "MSTWeightSketch",
    "is_k_connected_sketch",
    "CLIQUE_4",
    "CYCLE_4",
    "ClusterState",
    "CutQualityReport",
    "EMPTY_3",
    "EdgeConnectivitySketch",
    "GammaEstimate",
    "MinCutResult",
    "MinCutSketch",
    "NeighborhoodSketch",
    "PATH_3",
    "PATH_4",
    "Pattern",
    "RecurseConnectSpanner",
    "SINGLE_EDGE_3",
    "STAR_4",
    "SpannerBuildReport",
    "SpanningForestSketch",
    "Sparsification",
    "SparsificationDiagnostics",
    "Sparsifier",
    "SimpleSparsification",
    "SubgraphSketch",
    "TRIANGLE",
    "WeightedSparsification",
    "cut_approximation_report",
    "decode_incidence_sample",
    "default_k",
    "default_sparsifier_k",
    "edge_domain",
    "encoding_class",
    "incidence_rows",
    "named_patterns",
    "recurse_connect_stretch_bound",
    "weight_class_of",
]
