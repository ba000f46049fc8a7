import pytest

from szlab.canon import canonical_code
from szlab.errors import GraphConstructionError, InvariantViolation
from szlab.extremal import (
    extremal_family,
    family_row,
    is_extremal_form,
    rooted_tree_count,
    rooted_trees,
)
from szlab.graphs import Graph, connected_and_bipartite, cycle_graph
from szlab.invariants import gap

from .oracles import rooted_tree_classes_brute


def test_rooted_tree_counts_small():
    assert len(rooted_trees(1)) == 1
    assert len(rooted_trees(2)) == 1
    assert len(rooted_trees(4)) == 4


def test_rooted_tree_counts_match_brute_force():
    # labeled trees x all roots, deduplicated by recursive subtree encoding
    for k in range(1, 7):
        assert len(rooted_trees(k)) == rooted_tree_classes_brute(k)
    # published continuation of the sequence
    assert [len(rooted_trees(k)) for k in (7, 8, 9)] == [48, 115, 286]


def test_rooted_tree_count_matches_generation():
    # The Cayley/Otter recurrence that decides extremal_match, against the generator.
    assert [rooted_tree_count(k) for k in range(1, 14)] == [len(rooted_trees(k)) for k in range(1, 14)]
    assert rooted_tree_count(13) == 12486


def test_rooted_trees_are_valid_and_distinct():
    for k in range(1, 8):
        seen = set()
        for t in rooted_trees(k):
            assert len(t) == k and t[0] is None
            assert all(p < i for i, p in enumerate(t) if p is not None)
            g = Graph(k, [(p, i) for i, p in enumerate(t) if p is not None])
            assert g.m == k - 1 and connected_and_bipartite(g)[0]
            seen.add(t)
        assert len(seen) == len(rooted_trees(k))


def test_rooted_trees_rejects_zero():
    # And every k below 1, in the count too, where a[k] would index from the end of its list.
    for k in range(-3, 1):
        for fn in (rooted_trees, rooted_tree_count):
            with pytest.raises(GraphConstructionError, match=f"need k >= 1, got {k}$"):
                fn(k)


def test_family_small_n():
    assert len(extremal_family(4)) == 1
    assert canonical_code(extremal_family(4)[0].graph) == canonical_code(cycle_graph(4))
    assert len(extremal_family(5)) == 1
    assert len(extremal_family(6)) == 2
    with pytest.raises(GraphConstructionError):
        extremal_family(3)


def test_family_members_are_well_formed():
    for n in range(4, 11):
        members = extremal_family(n)
        assert len(members) == len(rooted_trees(n - 3))
        codes = set()
        for member in members:
            g = member.graph
            assert g.n == n and g.m == n
            assert connected_and_bipartite(g) == (True, True)
            assert is_extremal_form(g)
            codes.add(canonical_code(g))
        assert len(codes) == len(members)


def test_is_extremal_form_examples(c4_pendant, c6, c4_two_pendants):
    assert is_extremal_form(c4_pendant)
    assert not is_extremal_form(c6)  # girth 6
    assert gap(c6) == 27 > 4 * 6 - 8
    # pendants at two different cycle vertices: two cycle cut vertices
    assert not is_extremal_form(c4_two_pendants)
    assert gap(c4_two_pendants) > 4 * 6 - 8


def test_is_extremal_form_matches_family_codes(enumerated):
    # m = n: exactly the classes extremal_family(n) lists have the form.
    for n in range(4, 9):
        family_codes = {m.canonical for m in extremal_family(n)}
        for g in enumerated[n]:
            if g.m == n:
                assert is_extremal_form(g) == (canonical_code(g).decode("ascii") in family_codes)


def test_is_extremal_form_rejects_other_unicyclic_shapes():
    c3_tail = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    c5_pendant = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    two_c4 = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    for g in (c3_tail, c5_pendant, two_c4):
        assert g.m == g.n and not is_extremal_form(g)


def test_is_extremal_form_agrees_with_gap_on_enumeration(enumerated):
    # the recognizer picks out exactly the equality graphs
    for n in range(4, 9):
        for g in enumerated[n]:
            if g.m < n:
                continue
            assert is_extremal_form(g) == (gap(g) == 4 * n - 8)


def test_family_matches_enumerated_equality_set(enumerated):
    for n in range(4, 9):
        family_codes = {canonical_code(m.graph) for m in extremal_family(n)}
        enumerated_codes = {
            canonical_code(g)
            for g in enumerated[n]
            if g.m >= n and is_extremal_form(g)
        }
        assert family_codes == enumerated_codes


def test_verify_extremal_gaps():
    rows = [family_row(n) for n in range(4, 13)]
    assert [r["n"] for r in rows] == list(range(4, 13))
    assert all(r["all_gaps_equal_4n_minus_8"] for r in rows)
    by_n = {r["n"]: r["count"] for r in rows}
    assert by_n[4] == 1 and by_n[5] == 1 and by_n[6] == 2 and by_n[12] == 286
    # spot values confirmed by brute force in test_invariants: 8, 12, and 40
    assert gap(extremal_family(4)[0].graph) == 8
    assert gap(extremal_family(5)[0].graph) == 12
    for member in extremal_family(12):
        assert gap(member.graph) == 40


def test_member_carries_its_canonical_code():
    for n in range(4, 10):
        for member in extremal_family(n):
            assert member.canonical == canonical_code(member.graph).decode("ascii")


def test_family_rejects_isomorphic_members(monkeypatch):
    # A generator that yields one rooted tree twice must be caught by an
    # explicit check (it also holds under python -O).
    import szlab.extremal as extremal

    trees = rooted_trees(3)
    monkeypatch.setattr(extremal, "rooted_trees", lambda k: trees + trees[:1])
    with pytest.raises(InvariantViolation, match="isomorphic members"):
        extremal_family(6)
