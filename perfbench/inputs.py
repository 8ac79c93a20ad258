"""Seeded input generators for the benchmark, in plain standard-library Python.

Graphs are produced as ``(n, edges)`` pairs with 0-based endpoints; the
workloads hand them to the program as ``certdom.Graph`` objects or graph6
files, so no generator here calls into the package under test.  Every
generator takes its ``random.Random`` from the caller, which keeps a given
seed string mapped to the same graph on every machine.
"""

from __future__ import annotations

import random
from itertools import combinations

Edges = list[tuple[int, int]]


def is_connected(n: int, edges: Edges) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = frontier = 1 if n else 0
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def connected_gnp(n: int, p: float, rng: random.Random) -> Edges:
    """G(n, p), redrawn from the same generator until it is connected."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = [e for e in pairs if rng.random() < p]
        if is_connected(n, edges):
            return edges


def random_recursive_tree(n: int, rng: random.Random) -> Edges:
    """Each vertex v >= 1 attaches to a uniformly random earlier vertex."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def tree_plus_edges(n: int, extra: int, rng: random.Random) -> Edges:
    """A random recursive tree plus ``extra`` distinct random chords."""
    edges = set(random_recursive_tree(n, rng))
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def tree_corona(n: int, rng: random.Random) -> Edges:
    """Corona of a random recursive tree on n/2 vertices: one pendant per base
    vertex, pendant of base vertex b numbered n/2 + b."""
    half = n // 2
    return random_recursive_tree(half, rng) + [(b, half + b) for b in range(half)]


def small_tree_forest(n: int, rng: random.Random, lo: int = 5, hi: int = 20) -> Edges:
    """Disjoint random recursive trees of lo..hi vertices covering n vertices."""
    edges: Edges = []
    base = 0
    while base < n:
        k = min(n - base, rng.randint(lo, hi))
        edges += [(base + u, base + v) for u, v in random_recursive_tree(k, rng)]
        base += k
    return edges


SPARSE_KINDS = {
    "rrt": random_recursive_tree,
    "treeplus": lambda n, rng: tree_plus_edges(n, max(2, n // 100), rng),
    "corona": tree_corona,
    "forest": small_tree_forest,
}


def labeled_graph_masks(n: int) -> range:
    """Edge masks of every labeled graph of order n, in the order the
    package's labeled enumeration uses: bit k is the k-th pair (i, j) in
    lexicographic order."""
    return range(1 << (n * (n - 1) // 2))


def mask_rows(n: int, mask: int) -> list[int]:
    pairs = list(combinations(range(n), 2))
    rows = [0] * n
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = pairs[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edges_rows(n: int, edges: Edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def graph6(n: int, rows: list[int]) -> str:
    """graph6 record of a labeled graph with n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("the benchmark encodes graphs of at most 62 vertices")
    out = [chr(n + 63)]
    acc = filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (rows[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(chr(acc + 63))
                acc = filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)
