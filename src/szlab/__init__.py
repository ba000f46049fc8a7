"""szlab: exact Wiener/Szeged index computation and gap-bound verification.

The package computes W, Sz, Sz* and the per-edge distance partitions
exactly, exposes the pair-surplus machinery behind the lower bound
Sz - W >= 4n - 8 for connected bipartite graphs with m >= n, constructs the
equality family (a 4-cycle plus a hanging tree), and verifies the bound
exhaustively over isomorph-free enumerations.
"""

from .canon import CanonicalForm, canonical_code, canonical_form
from .enumeration import (
    EnumerationSpec,
    VerificationReport,
    generate,
    verify_conjecture,
)
from .errors import (
    DisconnectedGraphError,
    EdgeListFormatError,
    EnumerationLimitError,
    Graph6Error,
    GraphConstructionError,
    HypothesisError,
    InvariantViolation,
    SizeLimitError,
    SzlabError,
)
from .extremal import (
    ExtremalGraph,
    extremal_family,
    is_extremal_form,
    rooted_tree_count,
    rooted_trees,
)
from .formats import parse_edge_list, parse_graph6, to_graph6
from .graphs import (
    BlockDecomposition,
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    bfs_forest,
    block_decomposition,
    complete_bipartite,
    connected_and_bipartite,
    cycle_graph,
    shortest_cycle,
    star_graph,
)
from .invariants import (
    EdgePartition,
    InvariantReport,
    compute_invariants,
    edge_partitions,
    gap,
    wiener,
)
from .proofs import GapDecomposition, SurplusMap, gap_decomposition, surplus_map

__version__ = "0.1.0"
