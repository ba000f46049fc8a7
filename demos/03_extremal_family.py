#!/usr/bin/env python3
"""The equality family: a 4-cycle and a tree sharing one vertex.

For each n the family has one member per rooted tree on n - 3 vertices, and
every member attains Sz - W = 4n - 8 exactly.  Nothing else does: pendants
on two different cycle vertices, or a longer girth cycle, already push the
gap strictly above the bound.
"""

from szlab import (
    Graph,
    bfs_forest,
    extremal_family,
    gap,
    is_extremal_form,
    rooted_trees,
    to_graph6,
)

for n in range(4, 9):
    members = extremal_family(n)
    print(f"n={n}: {len(members)} member(s) "
          f"(= rooted trees on {n - 3} vertices: {len(rooted_trees(n - 3))})")
    for member in members:
        g = member.graph
        print(f"  {to_graph6(g):<10} gap = {gap(g)} = 4*{n} - 8")

print()
print("near misses that fail the shape test:")
two_pendants = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
print(f"  pendants on two cycle vertices: extremal form? {is_extremal_form(two_pendants, bfs_forest(two_pendants))}, "
      f"gap = {gap(two_pendants)} > {4 * 6 - 8}")
from szlab import cycle_graph

c6 = cycle_graph(6)
print(f"  six-cycle (girth 6): extremal form? {is_extremal_form(c6, bfs_forest(c6))}, "
      f"gap = {gap(c6)} > {4 * 6 - 8}")
