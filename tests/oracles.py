"""Independent brute-force recomputations used as test oracles.

Nothing here shares an algorithm with the package: distances come from
Floyd-Warshall instead of BFS, isomorphism from permutation backtracking
instead of canonical codes, girth from per-edge deletion, blocks and pair
categories from separating vertices and Floyd-Warshall distances to the whole
designated block instead of fundamental cycles and block gates read off one
BFS row, 2-colorings by trying every coloring instead of BFS-depth parity,
rooted-tree counting from labeled Prufer trees deduplicated by recursive
subtree encoding, automorphism counts by trying every permutation, labeled bipartite
counts from a generating function, W and Sz of a Cartesian product from its
factors' values by the product identities instead of the product's distances.  Keep it that way; the tests rely on the
two routes being independent.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

from szlab.errors import Graph6Error
from szlab.graphs import Graph

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    d = [[0 if i == j else INF for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik is INF:
                continue
            di = d[i]
            for j in range(g.n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def wiener_brute(g: Graph) -> int:
    d = floyd_warshall(g)
    total = 0
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert d[x][y] is not INF
            total += int(d[x][y])
    return total


def edge_partition_brute(g: Graph, e: tuple[int, int]) -> tuple[int, int, int]:
    d = floyd_warshall(g)
    u, v = e
    n_u = sum(1 for w in range(g.n) if d[u][w] < d[v][w])
    n_v = sum(1 for w in range(g.n) if d[v][w] < d[u][w])
    return n_u, n_v, g.n - n_u - n_v


def szeged_brute(g: Graph) -> int:
    total = 0
    for e in g.edges:
        n_u, n_v, _ = edge_partition_brute(g, e)
        total += n_u * n_v
    return total


def revised_szeged_times4_brute(g: Graph) -> int:
    total = 0
    for e in g.edges:
        n_u, n_v, n_0 = edge_partition_brute(g, e)
        total += (2 * n_u + n_0) * (2 * n_v + n_0)
    return total


def gap_brute(g: Graph) -> int:
    return szeged_brute(g) - wiener_brute(g)


def cartesian_product(*factors: Graph) -> Graph:
    """G_1 □ G_2 □ ...: vertex (a, b) of G □ H is a * |H| + b, adjacent when one coordinate is
    equal and the other adjacent in its factor."""
    g = Graph(1, [])
    for h in factors:
        edges = [(a * h.n + b, a * h.n + c) for a in range(g.n) for b, c in h.edges]
        edges += [(a * h.n + b, c * h.n + b) for a, c in g.edges for b in range(h.n)]
        g = Graph(g.n * h.n, edges)
    return g


def product_values(*factors: Graph) -> tuple[int, int, int]:
    """(n, W, Sz) of the Cartesian product of connected factors from each factor's brute values,
    by W(G □ H) = |H|^2 W(G) + |G|^2 W(H) (Yeh and Gutman, 1994) and Sz(G □ H) = |H|^3 Sz(G)
    + |G|^3 Sz(H) (Klavzar, Rajapakse and Gutman, 1996); no distance of the product is computed."""
    n, w, sz = 1, 0, 0  # the one-vertex graph, the product's unit
    for h in factors:
        n, w, sz = n * h.n, h.n**2 * w + n**2 * wiener_brute(h), h.n**3 * sz + n**3 * szeged_brute(h)
    return n, w, sz


def mu_brute(g: Graph, x: int, y: int, e: tuple[int, int], d=None) -> int:
    if d is None:
        d = floyd_warshall(g)
    u, v = e
    if d[x][u] < d[x][v] and d[y][v] < d[y][u]:
        return 1
    if d[x][v] < d[x][u] and d[y][u] < d[y][v]:
        return 1
    return 0


def mu_pair_sum_brute(g: Graph, x: int, y: int, d=None) -> int:
    if d is None:
        d = floyd_warshall(g)
    return sum(mu_brute(g, x, y, e, d) for e in g.edges)


def surplus_brute(g: Graph, x: int, y: int, d=None) -> int:
    if d is None:
        d = floyd_warshall(g)
    return mu_pair_sum_brute(g, x, y, d) - int(d[x][y])


def side_masks_brute(g: Graph, d) -> list[tuple[int, int]]:
    """(A_x, B_x) for every x: bit i of A_x iff d(x, u_i) < d(x, v_i), of B_x iff d(x, v_i) < d(x, u_i)."""
    return [
        (
            sum(1 << i for i, (u, v) in enumerate(g.edges) if d[x][u] < d[x][v]),
            sum(1 << i for i, (u, v) in enumerate(g.edges) if d[x][v] < d[x][u]),
        )
        for x in range(g.n)
    ]


def pair_contribution_total_brute(g: Graph) -> int:
    d = floyd_warshall(g)
    return sum(mu_pair_sum_brute(g, x, y, d) for x, y in combinations(range(g.n), 2))


def _components_without(g: Graph, z: int) -> list[int]:
    """A component label for every vertex of g - z (z itself gets -1), by flood fill."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * g.n
    for s in range(g.n):
        if s == z or label[s] != -1:
            continue
        label[s] = s
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w != z and label[w] == -1:
                    label[w] = s
                    stack.append(w)
    return label


def pair_categories_brute(g: Graph, root_block: int) -> dict[tuple[int, int], tuple]:
    """Every pair's gap-decomposition category on a connected graph, from separating vertices.

    x and y share a block iff they are adjacent or no third vertex separates
    them; the block of such a pair is {x, y} and every w sharing a block with
    both.  Blocks are numbered in order of their sorted vertex lists, and
    `root_block` (the package's choice) names the designated one.  A vertex's
    home is the designated block for its own vertices, and otherwise its one
    block holding a vertex nearer the designated block than itself.
    """
    n = g.n
    apart = [_components_without(g, z) for z in range(n)]
    share = [[False] * n for _ in range(n)]
    for x, y in combinations(range(n), 2):
        share[x][y] = share[y][x] = g.has_edge(x, y) or all(
            apart[z][x] == apart[z][y] for z in range(n) if z not in (x, y)
        )
    block_of = {
        (x, y): tuple(w for w in range(n) if w in (x, y) or (share[w][x] and share[w][y]))
        for x, y in combinations(range(n), 2)
        if share[x][y]
    }
    blocks = sorted(set(block_of.values()))
    index = {b: i for i, b in enumerate(blocks)}
    root = set(blocks[root_block])
    d = floyd_warshall(g)
    to_root = [min(d[v][r] for r in root) for v in range(n)]
    home = [
        root_block
        if v in root
        else next(i for i, b in enumerate(blocks) if v in b and min(to_root[w] for w in b) < to_root[v])
        for v in range(n)
    ]
    categories = {}
    for x, y in combinations(range(n), 2):
        if share[x][y]:
            categories[x, y] = ("within", index[block_of[x, y]])
        elif x in root or y in root:
            categories[x, y] = ("cross_root", home[y] if x in root else home[x])
        else:
            categories[x, y] = ("cross_other", (home[x], home[y]))
    return categories


def girth_brute(g: Graph) -> int | None:
    # Shortest cycle through edge (u, v) = 1 + d(u, v) in the graph without it.
    best = None
    for e in g.edges:
        rest = Graph(g.n, [f for f in g.edges if f != e])
        d = floyd_warshall(rest)
        u, v = e
        if d[u][v] is not INF:
            cand = int(d[u][v]) + 1
            if best is None or cand < best:
                best = cand
    return best


def two_colorings(g: Graph) -> list[tuple[int, ...]]:
    """Every proper 2-coloring (color of vertex v at index v), in lexicographic order.

    The first one, if any, gives color 0 to the smallest vertex of every
    component: flipping a component that breaks this yields a smaller one.
    """
    return [c for c in product((0, 1), repeat=g.n) if all(c[u] != c[v] for u, v in g.edges)]


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking over degree-compatible vertex assignments."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in g.vertices()) != sorted(h.degree(v) for v in h.vertices()):
        return False
    n = g.n
    image = [-1] * n
    used = [False] * n

    def assign(v: int) -> bool:
        if v == n:
            return True
        for t in range(n):
            if used[t] or g.degree(v) != h.degree(t):
                continue
            ok = True
            for w in range(v):
                if g.has_edge(v, w) != h.has_edge(image[w], t):
                    ok = False
                    break
            if ok:
                image[v] = t
                used[t] = True
                if assign(v + 1):
                    return True
                used[t] = False
        return False

    return assign(0)


def pair_positions(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def mask_to_graph(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    return Graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def graph_to_mask(g: Graph, pairs: list[tuple[int, int]]) -> int:
    index = {p: k for k, p in enumerate(pairs)}
    mask = 0
    for e in g.edges:
        mask |= 1 << index[e]
    return mask


def permute_mask(mask: int, table: list[int]) -> int:
    out = 0
    k = 0
    while mask:
        if mask & 1:
            out |= 1 << table[k]
        mask >>= 1
        k += 1
    return out


def permutation_tables(n: int) -> list[list[int]]:
    """For each vertex permutation, the induced map on pair-bit positions."""
    pairs = pair_positions(n)
    index = {p: k for k, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(n)):
        table = []
        for i, j in pairs:
            a, b = perm[i], perm[j]
            table.append(index[(a, b) if a < b else (b, a)])
        tables.append(table)
    return tables


def automorphism_count_brute(g: Graph, tables: list[list[int]]) -> int:
    """|Aut(g)|: the permutations (as `permutation_tables(g.n)`) whose pair map keeps every edge an edge."""
    mask = graph_to_mask(g, pair_positions(g.n))
    edges = [k for k in range(mask.bit_length()) if mask >> k & 1]
    return sum(all(mask >> t[k] & 1 for k in edges) for t in tables)


def labeled_bipartite_counts(n_max: int) -> tuple[list[int], list[int]]:
    """Labeled bipartite graphs on n = 0..n_max vertices: (all, connected).

    b(n) = sum_k C(n, k) 2^(k(n-k)) counts the graphs on n labeled vertices
    together with a proper 2-coloring.  A bipartite graph with c components
    has 2^c of them, so B(x) = sum_n b(n) x^n / n! equals exp(2 C(x)), where
    C is the exponential generating function of the connected ones: C is
    log(B) / 2 and all bipartite graphs have exp(C) = sqrt(B) (Harary &
    Palmer, Graphical Enumeration, 1973; OEIS A047864, A001832).  Exact
    power series arithmetic over Fraction.
    """
    b = [
        Fraction(sum(comb(n, k) * 2 ** (k * (n - k)) for k in range(n + 1)), factorial(n))
        for n in range(n_max + 1)
    ]
    log = [Fraction(0)] * (n_max + 1)  # from B' = log(B)' B
    root = [Fraction(1)] + [Fraction(0)] * n_max  # from root^2 = B
    for n in range(1, n_max + 1):
        log[n] = b[n] - sum((k * log[k] * b[n - k] for k in range(1, n)), Fraction(0)) / n
        root[n] = (b[n] - sum((root[k] * root[n - k] for k in range(1, n)), Fraction(0))) / 2
    every = [root[n] * factorial(n) for n in range(n_max + 1)]
    connected = [log[n] * factorial(n) / 2 for n in range(n_max + 1)]
    assert all(c.denominator == 1 for c in every + connected)
    return [int(c) for c in every], [int(c) for c in connected]


def labeled_orbits(n: int) -> list[set[int]]:
    """Isomorphism classes of all labeled graphs on n vertices, as mask orbits.

    Pure permutation brute force; the orbits partition the whole labeled
    space, which the caller can verify.
    """
    tables = permutation_tables(n)
    total = 1 << (n * (n - 1) // 2)
    assigned = [False] * total
    orbits = []
    for mask in range(total):
        if assigned[mask]:
            continue
        orbit = {permute_mask(mask, t) for t in tables}
        for member in orbit:
            assert not assigned[member], "orbits overlapped"
            assigned[member] = True
        orbits.append(orbit)
    return orbits


def brute_force_classes(
    n: int, min_edges: int, connected: bool = True, bipartite: bool = True
) -> list[Graph]:
    """Representatives of all isomorphism classes passing the filters.

    Enumerates every labeled graph, keeps those whose degree sequence is
    non-decreasing in the labels (every class has such a labeling), then
    deduplicates by permutation-isomorphism search within invariant buckets.
    """
    pairs = pair_positions(n)
    t = len(pairs)
    rowbits = [0] * n
    for k, (i, j) in enumerate(pairs):
        rowbits[i] |= 1 << k
        rowbits[j] |= 1 << k
    buckets: dict[tuple, list[Graph]] = {}
    for mask in range(1 << t):
        if mask.bit_count() < min_edges:
            continue
        degs = [(mask & rowbits[v]).bit_count() for v in range(n)]
        if any(a > b for a, b in zip(degs, degs[1:])):
            continue
        adj = [[] for _ in range(n)]
        for k in range(t):
            if mask >> k & 1:
                i, j = pairs[k]
                adj[i].append(j)
                adj[j].append(i)
        color = [-1] * n
        is_bip = True
        components = 0
        for root in range(n):
            if color[root] != -1:
                continue
            components += 1
            color[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if color[w] == -1:
                        color[w] = color[v] ^ 1
                        stack.append(w)
                    elif color[w] == color[v]:
                        is_bip = False
        if connected and components != 1:
            continue
        if bipartite and not is_bip:
            continue
        g = mask_to_graph(n, mask, pairs)
        dist = floyd_warshall(g)
        profile = tuple(sorted(tuple(sorted(row)) for row in dist))
        key = (tuple(degs), profile)
        bucket = buckets.setdefault(key, [])
        if not any(brute_isomorphic(g, rep) for rep in bucket):
            bucket.append(g)
    reps = [g for bucket in buckets.values() for g in bucket]
    reps.sort(key=lambda g: (g.m, g.edges))
    return reps


# Rooted-tree oracle: labeled trees from Prufer sequences, each vertex tried
# as root, deduplicated by recursive sorted-subtree encoding.


def prufer_to_edges(seq: list[int], k: int) -> list[tuple[int, int]]:
    degree = [1] * k
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for leaf in range(k):
            if degree[leaf] == 1:
                edges.append((leaf, x))
                degree[leaf] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(k) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def all_labeled_trees(k: int) -> list[list[tuple[int, int]]]:
    if k == 1:
        return [[]]
    if k == 2:
        return [[(0, 1)]]
    out = []
    seq = [0] * (k - 2)
    while True:
        out.append(prufer_to_edges(seq, k))
        i = k - 3
        while i >= 0 and seq[i] == k - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return out
        seq[i] += 1


def rooted_encoding(adj: list[list[int]], root: int) -> str:
    def enc(v: int, parent: int) -> str:
        children = sorted(enc(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(children) + ")"

    return enc(root, -1)


def rooted_tree_classes_brute(k: int) -> int:
    codes = set()
    for edges in all_labeled_trees(k):
        adj = [[] for _ in range(k)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for root in range(k):
            codes.add(rooted_encoding(adj, root))
    return len(codes)


def random_tree(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(n, prufer_to_edges(seq, n))


def parse_graph6_bytewise(text: str) -> Graph:
    """graph6 decoding one byte at a time: a range test and a six-bit f-string per byte."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 record")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("graph6 record contains non-ASCII characters") from exc
    if any(b < 63 or b > 126 for b in data):
        raise Graph6Error("graph6 record contains bytes outside 63..126")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise Graph6Error("malformed graph6 size header")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(f"graph6 bit region has {len(body)} bytes, expected {nbytes} for n={n}")
    bits = "".join(f"{b - 63:06b}" for b in body)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits in final graph6 byte")
    return Graph(n, [(i, j) for j in range(1, n) for i in range(j) if bits[j * (j - 1) // 2 + i] == "1"])
