"""Graph substrate: containers, operators, transforms, generators and splits."""

from .delta import GraphDelta, apply_delta
from .digraph import DirectedGraph, from_edge_list
from .generators import DSBMConfig, directed_sbm, heterophilous_digraph, homophilous_digraph
from .io import load_graph, save_graph
from .operators import (
    add_self_loops,
    directed_pattern_operators,
    magnetic_laplacian,
    normalized_adjacency,
    normalized_laplacian,
    num_patterns_for_order,
    personalized_pagerank_adjacency,
    row_normalized,
    symmetric_normalized_adjacency,
    SECOND_ORDER_PATTERN_NAMES,
)
from .splits import per_class_split, ratio_split, split_counts, validate_splits
from .transforms import (
    add_self_loops as add_graph_self_loops,
    largest_connected_component,
    remove_self_loops,
    row_normalize_features,
    sparsify_edges,
    sparsify_features,
    sparsify_labels,
    standardize_features,
    to_undirected,
)

__all__ = [
    "DirectedGraph",
    "GraphDelta",
    "apply_delta",
    "from_edge_list",
    "save_graph",
    "load_graph",
    "DSBMConfig",
    "directed_sbm",
    "homophilous_digraph",
    "heterophilous_digraph",
    "add_self_loops",
    "normalized_adjacency",
    "symmetric_normalized_adjacency",
    "normalized_laplacian",
    "row_normalized",
    "directed_pattern_operators",
    "num_patterns_for_order",
    "magnetic_laplacian",
    "personalized_pagerank_adjacency",
    "SECOND_ORDER_PATTERN_NAMES",
    "per_class_split",
    "ratio_split",
    "split_counts",
    "validate_splits",
    "to_undirected",
    "remove_self_loops",
    "add_graph_self_loops",
    "row_normalize_features",
    "standardize_features",
    "sparsify_features",
    "sparsify_edges",
    "sparsify_labels",
    "largest_connected_component",
]
