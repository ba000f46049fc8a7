"""The result records are immutable NamedTuples with the fields, in the order, they always had."""

from itertools import combinations

import pytest

from szlab.enumeration import EnumerationSpec, verify_conjecture
from szlab.extremal import extremal_family, rooted_trees
from szlab.graphs import bfs_forest, block_decomposition
from szlab.invariants import compute_invariants
from szlab.proofs import gap_decomposition, surplus_map

FIELDS = {
    "BlockDecomposition": ("blocks", "cut_vertices"),
    "InvariantReport": ("n", "m", "wiener", "szeged", "revised_szeged_times4", "gap", "per_edge"),
    "SurplusMap": ("n", "surpluses", "total", "dist", "edges", "sides"),
    "GapDecomposition": (
        "graph",
        "blocks",
        "root_block",
        "within_block",
        "cross_root",
        "cross_other",
        "total",
        "surplus",
        "home",
        "gate",
        "cross_pair_floor_ok",
        "cross_witness_ok",
    ),
    "ExtremalGraph": ("graph", "canonical"),
    "EnumerationSpec": ("n", "min_edges", "connected"),
    "EqualityEntry": ("canonical", "graph6"),
    "VerificationReport": (
        "n",
        "graphs_checked",
        "rejected",
        "min_gap",
        "bound",
        "violations",
        "equality_graphs",
        "extremal_match",
    ),
}


@pytest.fixture
def records(c4, c4_pendant):
    (report,) = verify_conjecture([c4])
    found = [
        block_decomposition(c4_pendant, bfs_forest(c4_pendant)[1]),
        compute_invariants(c4),
        surplus_map(c4),
        gap_decomposition(c4_pendant),
        extremal_family(5)[0],
        EnumerationSpec(4),
        report.equality_graphs[0],
        report,
    ]
    return {type(r).__name__: r for r in found}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_and_immutability(records, name):
    rec = records[name]
    assert rec._fields == FIELDS[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.added = None


def test_enumeration_spec_defaults_and_checks():
    assert EnumerationSpec(4) == EnumerationSpec(n=4, min_edges=None, connected=True)
    assert EnumerationSpec(4).effective_min_edges == 4
    with pytest.raises(ValueError, match="n must be >= 1"):
        EnumerationSpec(n=0)
    with pytest.raises(ValueError, match="min_edges must be >= 0"):
        EnumerationSpec(n=4, min_edges=-1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        EnumerationSpec(4)._replace(n=0)


def test_surplus_map_carries_its_side_masks(c4_pendant):
    # The masks the surpluses were read off, over the graph's own sorted edges.
    smap = surplus_map(c4_pendant)
    assert smap.edges is c4_pendant.edges
    assert len(smap.sides) == c4_pendant.n
    row = smap.dist.row
    pairs = combinations(range(c4_pendant.n), 2)
    assert [smap.separating(x, y).bit_count() - row(x)[y] for x, y in pairs] == smap.surpluses
