#!/usr/bin/env python3
"""Where does the gap Sz - W come from?  Pair surpluses, block by block.

Each unordered vertex pair {x, y} contributes
    surplus(x, y) = #(edges separating x from y) - d(x, y) >= 0,
and the surpluses sum exactly to Sz - W.  On a connected bipartite graph
with m >= n the pairs split into three groups tied to the block structure,
each with its own provable floor; this script prints the whole accounting
for a 4-cycle carrying a three-vertex tail.
"""

from itertools import combinations

from szlab import Graph, gap_decomposition, surplus_map

# 4-cycle 0-1-2-3 with the path 0-4-5-6 hanging off vertex 0 (n = m = 7).
g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6)])

smap = surplus_map(g)
print("pair surpluses (only nonzero shown):")
# The surpluses are listed in pair order (0, 1), (0, 2), ..., (5, 6).
for (x, y), s in zip(combinations(range(g.n), 2), smap.surpluses):
    if s:
        print(f"  s({x},{y}) = {s}")
print(f"total = {smap.total} = Sz - W, and 4n - 8 = {4 * g.n - 8}")
print()

d = gap_decomposition(g)
sizes = d.blocks.block_sizes
print(f"blocks: {[sorted(b) for b in d.blocks.blocks]}")
print(f"cut vertices: {sorted(d.blocks.cut_vertices)}")
print(f"designated block: #{d.root_block} (size {sizes[d.root_block]})")
print()
print("category subtotals and their floors:")
for i in range(d.blocks.k):
    floor = 4 * sizes[i] - 8 if sizes[i] >= 4 else 0
    print(f"  within block {i} (size {sizes[i]}): {d.within_block[i]}  (floor {floor})")
for i, sub in sorted(d.cross_root.items()):
    floor = sizes[d.root_block] * (sizes[i] - 1)
    print(f"  designated block x block {i}: {sub}  (floor {floor})")
print(f"  all other cross pairs: {d.cross_other}  (floor 0)")
print()
print(f"grand total {d.total} >= {d.bound}; every floor is tight on this graph,")
print("which is exactly what makes it an equality case of the bound.")
