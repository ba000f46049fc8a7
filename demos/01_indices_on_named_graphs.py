#!/usr/bin/env python3
"""Compute W, Sz and Sz* on a handful of named graphs.

The interesting quantity throughout is the gap Sz - W: it vanishes on trees,
equals 4n - 8 on the 4-cycle, and is strictly larger on every other connected
bipartite graph with at least as many edges as vertices.
"""

from szlab import Graph, complete_bipartite, compute_invariants, cycle_graph, star_graph

named = {
    "path P5": Graph(5, [(i, i + 1) for i in range(4)]),
    "star K_{1,4}": star_graph(4),
    "cycle C4": cycle_graph(4),
    "cycle C5": cycle_graph(5),
    "cycle C6": cycle_graph(6),
    "complete bipartite K_{2,3}": complete_bipartite(2, 3),
}

print(f"{'graph':<28} {'n':>3} {'m':>3} {'W':>5} {'Sz':>5} {'Sz*':>7} {'gap':>5}")
for name, g in named.items():
    rep = compute_invariants(g)
    print(
        f"{name:<28} {rep.n:>3} {rep.m:>3} {rep.wiener:>5} {rep.szeged:>5} "
        f"{str(rep.revised_szeged):>7} {rep.gap:>5}"
    )

print()
print("Per-edge partition of C5 (note the equidistant vertex on odd cycles):")
rep = compute_invariants(cycle_graph(5))
for p in rep.per_edge:
    print(f"  edge ({p.u},{p.v}): n_u={p.n_u} n_v={p.n_v} n_0={p.n_0}")
print(f"Sz*(C5) = {rep.revised_szeged} exactly (denominator divides 4).")
