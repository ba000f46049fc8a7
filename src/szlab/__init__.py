"""szlab: exact Wiener/Szeged index computation and gap-bound verification.

The package computes W, Sz, Sz* and the per-edge distance partitions
exactly, exposes the pair-surplus machinery behind the lower bound
Sz - W >= 4n - 8 for connected bipartite graphs with m >= n, constructs the
equality family (a 4-cycle plus a hanging tree), and verifies the bound
exhaustively over isomorph-free enumerations.

Each name below is imported from its layer module on first use (PEP 562),
so importing the package, or one name from it, loads only the layers used.
"""

_LAYERS = {
    "canon": ("CanonicalForm", "canonical_code", "canonical_form"),
    "enumeration": ("EnumerationSpec", "VerificationReport", "generate", "verify_conjecture"),
    "errors": (
        "DisconnectedGraphError", "EdgeListFormatError", "EnumerationLimitError", "Graph6Error",
        "GraphConstructionError", "HypothesisError", "InvariantViolation", "SizeLimitError", "SzlabError",
    ),
    "extremal": ("ExtremalGraph", "extremal_family", "is_extremal_form", "rooted_tree_count", "rooted_trees"),
    "formats": ("parse_edge_list", "parse_graph6", "to_graph6"),
    "graphs": (
        "BlockDecomposition", "DistanceMatrix", "Graph", "all_pairs_distances", "bfs_forest", "block_decomposition",
        "complete_bipartite", "connected_and_bipartite", "cycle_graph", "shortest_cycle", "star_graph",
    ),
    "invariants": ("EdgePartition", "InvariantReport", "compute_invariants", "edge_partitions", "gap", "wiener"),
    "proofs": ("GapDecomposition", "SurplusMap", "gap_decomposition", "surplus_map"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    # Cached in the package namespace, so later reads skip this hook.
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
