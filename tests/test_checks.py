"""Failure injection: corrupted partitions, surpluses, gaps or structure raise InvariantViolation.

The mathematical checks are explicit raises, not `assert`, so they must
fire under `python -O` as well; the last test reruns this module that way.
These tests therefore check with `pytest.raises` and `pytest.fail` only.
"""

import ast
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from szlab import extremal, graphs, invariants, proofs
from szlab.errors import InvariantViolation
from szlab.extremal import family_row
from szlab.graphs import Graph, all_pairs_distances, block_decomposition, cycle_graph
from szlab.invariants import compute_invariants
from szlab.proofs import gap_decomposition, surplus_map

ROOT = Path(__file__).resolve().parent.parent


def _shifted_partitions(monkeypatch, module, **delta):
    real = invariants.edge_partitions

    def corrupted(g, dist):
        return tuple(
            p._replace(**{k: getattr(p, k) + v for k, v in delta.items()}) for p in real(g, dist)
        )

    monkeypatch.setattr(module, "edge_partitions", corrupted)


def _with_surpluses(monkeypatch, changes: dict, total_shift: int = 0):
    """Shift each given pair of the graph's labels in every surplus map holding it: the
    graph's own, and its block's, whose vertex tuple maps the block's labels to the graph's."""
    real_map, real_blocks = proofs.surplus_map, proofs._block_graphs
    seen = []  # (block graph, vertex tuple), held so that each block is matched by identity

    def blocks(*args):
        for verts, block in real_blocks(*args):
            seen.append((block, verts))
            yield verts, block

    def corrupted(g):
        smap = real_map(g)
        verts = next((verts for block, verts in seen if block is g), range(g.n))
        surpluses = list(smap.surpluses)
        pairs = list(combinations(verts, 2))
        for pair, delta in changes.items():
            if pair in pairs:
                surpluses[pairs.index(pair)] += delta
        return smap._replace(surpluses=surpluses, total=sum(surpluses) + total_shift)

    monkeypatch.setattr(proofs, "_block_graphs", blocks)
    monkeypatch.setattr(proofs, "surplus_map", corrupted)


def test_surplus_map_rejects_corrupted_partition(monkeypatch, c4_pendant):
    _shifted_partitions(monkeypatch, proofs, n_u=1)
    with pytest.raises(InvariantViolation, match="Sz - W"):
        surplus_map(c4_pendant)


def test_compute_invariants_rejects_equidistant_vertex_on_bipartite(monkeypatch, c4):
    _shifted_partitions(monkeypatch, invariants, n_0=1)
    with pytest.raises(InvariantViolation, match="equidistant"):
        compute_invariants(c4)


def test_gap_decomposition_rejects_corrupted_total(monkeypatch, c4_pendant):
    _with_surpluses(monkeypatch, {}, total_shift=1)
    with pytest.raises(InvariantViolation, match="reconcile"):
        gap_decomposition(c4_pendant)


def test_gap_decomposition_rejects_within_block_deficit(monkeypatch, c4_pendant):
    # (0, 2) is an antipodal pair of the 4-cycle block.
    _with_surpluses(monkeypatch, {(0, 2): -8})
    with pytest.raises(InvariantViolation, match="within surplus"):
        gap_decomposition(c4_pendant)


def test_gap_decomposition_rejects_cross_block_deficit(monkeypatch, c4_pendant):
    # (2, 4) joins the pendant vertex to the far side of the cycle block.
    _with_surpluses(monkeypatch, {(2, 4): -2})
    with pytest.raises(InvariantViolation, match="cross surplus"):
        gap_decomposition(c4_pendant)


def test_gap_decomposition_rejects_pair_in_two_blocks(monkeypatch, c4_pendant):
    # Vertex 1 forced into the bridge block 0-4 as well: (0, 1) shares both blocks.
    real = proofs.block_decomposition

    def corrupted(g, depth):
        decomp = real(g, depth)
        return decomp._replace(blocks=(decomp.blocks[0], decomp.blocks[1] | {1}))

    monkeypatch.setattr(proofs, "block_decomposition", corrupted)
    with pytest.raises(InvariantViolation, match="^a pair shares two blocks$"):
        gap_decomposition(c4_pendant)


# Two 4-cycles sharing vertex 0: block 1 (0-4-5-6) is entered through its root
# gate 0, and its cross surplus 24 is well above the floor 4 * 3.
TWO_C4 = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)])


def test_gap_decomposition_rejects_zero_surplus_in_other_block(monkeypatch):
    # Two 4-cycles sharing vertex 0; block 1 (0-4-5-6) is not the designated one.
    # Moving a unit from (4, 5) to (4, 6) keeps block 1's sum, so no floor fires.
    g = TWO_C4
    assert gap_decomposition(g).root_block == 0
    assert surplus_map(g).surplus(4, 5) == 1  # the least surplus 1 itself passes
    _with_surpluses(monkeypatch, {(4, 5): -1, (4, 6): 1})
    with pytest.raises(InvariantViolation, match=r"^block 1: pair \(4, 5\) has surplus 0, below 1$"):
        gap_decomposition(g)
    # Of two pairs tied at the least surplus, the first in pair order is named.
    monkeypatch.undo()
    _with_surpluses(monkeypatch, {(4, 5): -1, (5, 6): -1, (4, 6): 2})
    with pytest.raises(InvariantViolation, match=r"^block 1: pair \(4, 5\) has surplus 0, below 1$"):
        gap_decomposition(g)


# Boundary checks: each threshold below is met exactly and passes, and one
# unit below it raises or flips a flag.  In c4_pendant (4-cycle 0-1-2-3,
# bridge 0-4) block 0 is the designated cycle and block 1 the bridge.


def test_within_floor_holds_at_4n_minus_8_and_fails_one_below(monkeypatch, c4_pendant):
    assert gap_decomposition(c4_pendant).within_block[0] == 4 * 4 - 8
    _with_surpluses(monkeypatch, {(0, 1): -1})
    with pytest.raises(InvariantViolation, match=r"^block 0: within surplus below 4n_i - 8$"):
        gap_decomposition(c4_pendant)


def test_cross_floor_holds_at_n1_times_ni_minus_1_and_fails_one_below(monkeypatch, c4_pendant):
    assert gap_decomposition(c4_pendant).cross_root == {1: 4 * (2 - 1)}
    _with_surpluses(monkeypatch, {(1, 4): -1, (0, 2): 1})
    with pytest.raises(InvariantViolation, match=r"^block 1: cross surplus below n_1\(n_i - 1\)$"):
        gap_decomposition(c4_pendant)


def test_cross_pair_floor_flag_holds_at_1_and_flips_one_below(monkeypatch):
    assert surplus_map(TWO_C4).surplus(1, 4) == 2
    _with_surpluses(monkeypatch, {(1, 4): -1})
    assert gap_decomposition(TWO_C4).cross_pair_floor_ok
    monkeypatch.undo()
    _with_surpluses(monkeypatch, {(1, 4): -2})
    d = gap_decomposition(TWO_C4)
    assert not d.cross_pair_floor_ok and d.cross_witness_ok


def test_cross_witness_flag_holds_at_2_and_flips_one_below(monkeypatch):
    # Vertex 4's partners off the gate, 1, 2 and 3, have surpluses 2, 3 and 2.
    assert [surplus_map(TWO_C4).surplus(r, 4) for r in (1, 2, 3)] == [2, 3, 2]
    _with_surpluses(monkeypatch, {(2, 4): -1})
    assert gap_decomposition(TWO_C4).cross_witness_ok
    monkeypatch.undo()
    _with_surpluses(monkeypatch, {(1, 4): -1, (2, 4): -2, (3, 4): -1})
    d = gap_decomposition(TWO_C4)
    assert not d.cross_witness_ok and d.cross_pair_floor_ok


def test_cross_other_holds_at_0_and_fails_one_below(monkeypatch, c4_tail3):
    # (4, 6) on the tail 0-4-5-6 shares no block and has no end in the cycle.
    d = gap_decomposition(c4_tail3)
    assert d.cross_other == 0 and d.surplus.surplus(4, 6) == 0
    _with_surpluses(monkeypatch, {(4, 6): -1, (0, 2): 1})
    with pytest.raises(InvariantViolation, match="^negative cross-other surplus$"):
        gap_decomposition(c4_tail3)


def test_antipodal_check_rejects_missed_cycle_edge(monkeypatch, c4):
    real = proofs.SurplusMap.separating

    def missing(smap, x, y):
        return real(smap, x, y) & ~(1 << smap.edges.index((0, 1)))

    monkeypatch.setattr(proofs.SurplusMap, "separating", missing)
    message = r"^block 0: cycle edges \[\(0, 1\)\] do not separate antipodal pair \(0, 2\)$"
    with pytest.raises(InvariantViolation, match=message):
        gap_decomposition(c4)


def test_antipodal_check_rejects_odd_cycle(monkeypatch, c4):
    monkeypatch.setattr(proofs, "shortest_cycle", lambda g, rows: (0, 1, 2))
    with pytest.raises(InvariantViolation, match="^block 0: odd shortest cycle"):
        gap_decomposition(c4)


def test_antipodal_check_rejects_surplus_below_half_cycle(monkeypatch):
    # C6's floors have slack, so only the antipodal pair (0, 3), down from 3 to 2, fails.
    _with_surpluses(monkeypatch, {(0, 3): -1})
    with pytest.raises(InvariantViolation, match=r"^block 0: antipodal pair \(0, 3\) surplus below p/2$"):
        gap_decomposition(cycle_graph(6))


def test_antipodal_check_reaches_the_last_pair(monkeypatch):
    # C8's cycle is 0..7, so (3, 7) is the last antipodal pair checked; its surplus 4 = p/2 passes.
    assert surplus_map(cycle_graph(8)).surplus(3, 7) == 4
    gap_decomposition(cycle_graph(8))
    _with_surpluses(monkeypatch, {(3, 7): -1})
    with pytest.raises(InvariantViolation, match=r"^block 0: antipodal pair \(3, 7\) surplus below p/2$"):
        gap_decomposition(cycle_graph(8))


def test_antipodal_check_names_a_relabelled_blocks_vertices(monkeypatch):
    # Block 1 of TWO_C4, 0-4-5-6, is checked as the 4-cycle 0-1-2-3 of its own
    # labels.  Moving a unit from its antipodal pair (4, 6) to (4, 5) keeps the
    # within sum and every pair >= 1, so only the antipodal floor p/2 = 2 fails.
    _with_surpluses(monkeypatch, {(4, 6): -1, (4, 5): 1})
    with pytest.raises(InvariantViolation, match=r"^block 1: antipodal pair \(4, 6\) surplus below p/2$"):
        gap_decomposition(TWO_C4)
    # A 6-cycle with the 4-cycle 0-6-7-8 on vertex 0: the block's local edge (0, 3) is (0, 8).
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (6, 7), (7, 8), (0, 8)])
    real = proofs.SurplusMap.separating

    def missing(smap, x, y):
        # Only block 1's map, the one with 4 vertices, misses its edge (0, 3).
        drop = 1 << smap.edges.index((0, 3)) if smap.n == 4 else 0
        return real(smap, x, y) & ~drop

    monkeypatch.setattr(proofs.SurplusMap, "separating", missing)
    message = r"^block 1: cycle edges \[\(0, 8\)\] do not separate antipodal pair \(0, 7\)$"
    with pytest.raises(InvariantViolation, match=message):
        gap_decomposition(g)


def test_block_map_total_must_equal_the_within_sum(monkeypatch):
    # The first block map after the graph's own, block 0's (within sum 8), passes
    # as built and fails one unit off either way.
    real = proofs.surplus_map
    assert gap_decomposition(TWO_C4).within_block == (8, 8)
    for shift in (1, -1):
        maps = []

        def shifted(g):
            maps.append(real(g))
            return maps[-1]._replace(total=maps[-1].total + shift) if len(maps) > 1 else maps[-1]

        monkeypatch.setattr(proofs, "surplus_map", shifted)
        with pytest.raises(InvariantViolation, match="^block 0: within surplus differs from the block's own Sz - W$"):
            gap_decomposition(TWO_C4)


def test_extremal_gaps_reject_corrupted_gap(monkeypatch):
    monkeypatch.setattr(extremal, "gap", lambda g: 4 * g.n - 9)
    with pytest.raises(InvariantViolation, match="4n - 8"):
        family_row(5)


def test_block_decomposition_rejects_missed_vertices():
    # Given each component's own BFS depths, the disconnected graph looks
    # connected; the classes then miss the link between the two trees.
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(InvariantViolation, match="n \\+ k - 1"):
        block_decomposition(g, graphs.bfs_forest(g)[1])


def test_shortest_cycle_rejects_descents_that_meet_early():
    # A 4-cycle 1-2-4-3 with vertex 0 hanging off 1.  Rows that are not g's
    # distances, every source but 0 reaching nothing, leave source 0's closing
    # at vertex 4 with lower neighbors 2 and 3 the best, whose descents to 0
    # meet at 1: a closed walk of length 6, not a cycle.
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    rows = [all_pairs_distances(g).row(0)] + [[-1] * 5] * 4
    with pytest.raises(InvariantViolation, match="^the descents of a closing of length 6 meet before its source$"):
        graphs.shortest_cycle(g, rows)


def test_package_has_no_bare_asserts():
    # `python -O` strips assert statements, so no check in the package may be one.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "szlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    if offenders:
        pytest.fail(f"bare assert in src/szlab: {', '.join(offenders)}")


def test_checks_survive_python_O(request):
    # Every other test this module collects must pass in the rerun.
    expected = sum(isinstance(item, pytest.Item) for item in request.node.parent.collect()) - 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "not python_O", str(Path(__file__))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = re.match(r"(\d+) passed, 1 deselected\b", proc.stdout.splitlines()[-1])
    assert summary and int(summary[1]) == expected, proc.stdout
