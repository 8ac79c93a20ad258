"""Immutable bitset-backed simple graphs plus the I/O formats used by the CLI.

Vertices are 0-based integers.  Adjacency is stored as one Python int per
vertex (bit v of ``adj[u]`` set iff uv is an edge), which makes neighbourhood
algebra a handful of machine-word operations even for the multi-word widths
the exact solver targets: it proves dense random graphs up to n = 60 and
sparse ones, such as trees, up to n = 800.

The module also carries the degree/leaf/support vocabulary used throughout
the package: ``leaf_profile`` computes leaves, weak and strong supports and
the leaves on strong supports once per graph, and every other leaf or
support query reads from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class GraphParseError(ValueError):
    """Raised for malformed graph6 or edge-list input."""


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class VertexSet:
    """A set of vertices of an n-vertex graph, stored as a bitmask.

    Instances are tied to a vertex count so that complement is well defined.
    Set algebra via ``|``, ``&``, ``-`` and ``^`` requires both operands to
    share the same ``n``.
    """

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask has bits outside [0, {self.n})")

    @classmethod
    def of(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        vs = list(vertices)
        for v in vs:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range [0, {n})")
        return cls(n, _mask_of(vs))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets belong to different graphs")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask ^ other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, {{{', '.join(map(str, self))}}})"


class Graph:
    """Immutable simple undirected graph over vertices 0..n-1.

    ``adj[v]`` is the open-neighbourhood bitmask of v.  The public
    constructor checks symmetry, irreflexivity, and that all bits lie inside
    [0, n).  Graphs derived from an already-valid graph (edge and vertex
    edits, complement, induced subgraphs) skip that check, and
    ``components`` and ``leaf_profile`` are memoized per graph.
    """

    __slots__ = ("n", "adj", "_full", "_comps", "_leaves")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row < 0 or row & ~full:
                raise ValueError(f"adjacency of vertex {v} has bits outside [0, {n})")
            if row >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v, row in enumerate(adj):
            for u in _bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric on pair ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_comps", None)
        object.__setattr__(self, "_leaves", None)

    @classmethod
    def _derived(cls, n: int, rows: Iterable[int]) -> "Graph":
        """Unvalidated constructor for rows built from an already-valid graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(rows))
        object.__setattr__(g, "_full", (1 << n) - 1)
        object.__setattr__(g, "_comps", None)
        object.__setattr__(g, "_leaves", None)
        return g

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph instances are immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @property
    def full_mask(self) -> int:
        return self._full

    def degree(self, v: int) -> int:
        self._check_vertices(v)
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def closed(self, v: int) -> int:
        """Closed-neighbourhood bitmask N[v]."""
        self._check_vertices(v)
        return self.adj[v] | (1 << v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertices(v)
        return tuple(_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        # the range test inline, as callers probe every vertex pair
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._check_vertices(u, v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for off in _bits(row):
                out.append((u, u + 1 + off))
        return out

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def vertex_set(self, vertices: Iterable[int]) -> VertexSet:
        return VertexSet.of(self.n, vertices)

    def _check_vertices(self, *vs: int) -> None:
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertices(u, v)
        if u == v:
            raise ValueError("cannot add a self-loop")
        if self.adj[u] >> v & 1:
            raise ValueError(f"edge ({u}, {v}) already present")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._derived(self.n, rows)

    def remove_edge(self, u: int, v: int) -> "Graph":
        self._check_vertices(u, v)
        if not self.adj[u] >> v & 1:
            raise ValueError(f"edge ({u}, {v}) not present")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._derived(self.n, rows)

    def add_vertex(self, neighbors: Iterable[int] = ()) -> "Graph":
        """Return the graph with one new vertex n joined to ``neighbors``."""
        neighbors = tuple(neighbors)
        self._check_vertices(*neighbors)
        nb = _mask_of(neighbors)
        rows = [row | ((nb >> v & 1) << self.n) for v, row in enumerate(self.adj)]
        rows.append(nb)
        return Graph._derived(self.n + 1, rows)

    def remove_vertex(self, v: int) -> "Graph":
        self._check_vertices(v)
        keep = self._full & ~(1 << v)
        return induced_subgraph(self, VertexSet(self.n, keep))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# Derived structure
# ---------------------------------------------------------------------------

def complement(g: Graph) -> Graph:
    """Complement graph: uv is an edge iff u != v and uv is not an edge of g."""
    full = g.full_mask
    return Graph._derived(g.n, (~row & full & ~(1 << v) for v, row in enumerate(g.adj)))


def components(g: Graph) -> tuple[tuple[VertexSet, Graph], ...]:
    """Connected components as (original-vertex set, induced subgraph) pairs.

    Components are listed by ascending smallest vertex; inside each induced
    subgraph the vertices are reindexed 0..k-1 in ascending original order.
    A connected graph is its own single component.  The result is memoized
    on g; for a connected graph the memo is only its vertex set, since a memo
    holding g would be a reference cycle that only the cyclic GC frees.
    """
    memo = g._comps
    if memo is not None:
        return ((memo, g),) if isinstance(memo, VertexSet) else memo
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        vs = VertexSet(g.n, comp)
        if comp == g.full_mask:
            object.__setattr__(g, "_comps", vs)
            return ((vs, g),)
        out.append((vs, induced_subgraph(g, vs)))
    comps = tuple(out)
    object.__setattr__(g, "_comps", comps)
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def induced_subgraph(g: Graph, s: VertexSet) -> Graph:
    """Subgraph induced on s, reindexed 0..|s|-1 in ascending original order."""
    if s.n != g.n:
        raise ValueError("vertex set belongs to a different graph")
    order = s.to_list()
    index = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        row = 0
        for u in _bits(g.adj[v] & s.mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph._derived(len(order), rows)


# ---------------------------------------------------------------------------
# Leaves and supports
# ---------------------------------------------------------------------------

class LeafProfile(NamedTuple):
    """Bitmasks of the leaf/support vocabulary of one graph."""

    leaves: int  # degree-one vertices
    weak: int  # S1: exactly one leaf neighbour
    strong: int  # S2: at least two leaf neighbours
    strong_leaves: int  # leaves whose support is in S2


def leaf_profile(g: Graph) -> LeafProfile:
    """Leaves, weak and strong supports, and strong-support leaves; memoized on g."""
    if g._leaves is not None:
        return g._leaves
    leaf = once = twice = 0
    for v, row in enumerate(g.adj):
        if row and not row & (row - 1):
            # a leaf's row is the single bit of its support
            leaf |= 1 << v
            twice |= once & row
            once |= row
    strong_leaves = _mask_of(v for v in _bits(leaf) if g.adj[v] & twice)
    prof = LeafProfile(leaf, once & ~twice, twice, strong_leaves)
    object.__setattr__(g, "_leaves", prof)
    return prof


def leaves(g: Graph) -> VertexSet:
    """Vertices of degree one."""
    return VertexSet(g.n, leaf_profile(g).leaves)


def leaf_mask(g: Graph) -> int:
    return leaf_profile(g).leaves


def supports_mask(g: Graph) -> int:
    """Vertices adjacent to at least one leaf (weak and strong supports)."""
    prof = leaf_profile(g)
    return prof.weak | prof.strong


def weak_supports(g: Graph) -> VertexSet:
    """Vertices adjacent to exactly one leaf."""
    return VertexSet(g.n, leaf_profile(g).weak)


def strong_supports(g: Graph) -> VertexSet:
    """Vertices adjacent to at least two leaves."""
    return VertexSet(g.n, leaf_profile(g).strong)


def support_of(g: Graph, leaf: int) -> int:
    """The unique neighbour of a degree-one vertex."""
    if not 0 <= leaf < g.n or g.degree(leaf) != 1:
        raise ValueError(f"vertex {leaf} is not a leaf")
    return g.adj[leaf].bit_length() - 1


def leaf_of(g: Graph, weak_support: int) -> int:
    """The unique leaf neighbour of a weak support."""
    if weak_support not in weak_supports(g):
        raise ValueError(f"vertex {weak_support} is not a weak support")
    only = g.adj[weak_support] & leaf_mask(g)
    return only.bit_length() - 1


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree undefined for the empty graph")
    return min(g.degrees())


# ---------------------------------------------------------------------------
# graph6 format
# ---------------------------------------------------------------------------

_G6_MIN, _G6_MAX = 63, 126
_G6_HEADER = ">>graph6<<"


def _pair_order(n: int) -> Iterator[tuple[int, int]]:
    # Column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    for j in range(1, n):
        for i in range(j):
            yield i, j


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of the labeled adjacency of g."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        head = [126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError("graph too large for graph6")
    chars = [chr(c) for c in head]
    acc, filled = 0, 0
    for i, j in _pair_order(n):
        acc = acc << 1 | (g.adj[i] >> j & 1)
        filled += 1
        if filled == 6:
            chars.append(chr(acc + 63))
            acc, filled = 0, 0
    if filled:
        chars.append(chr((acc << (6 - filled)) + 63))
    return "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (optionally prefixed by the standard header).

    Only canonical records are accepted: minimal size form and zero padding
    bits, so that encode_graph6(parse_graph6(s)) == s.
    """
    s = text.rstrip("\r\n")
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 record")
    for off, ch in enumerate(s):
        if not _G6_MIN <= ord(ch) <= _G6_MAX:
            raise GraphParseError(
                f"byte offset {off}: character {ch!r} outside the graph6 alphabet"
            )
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise GraphParseError("byte offset 1: truncated long-size form")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
        if n <= 62:
            raise GraphParseError("byte offset 0: non-canonical size encoding")
    else:
        if len(vals) < 8:
            raise GraphParseError("byte offset 2: truncated very-long-size form")
        n = 0
        for v in vals[2:8]:
            n = n << 6 | v
        body = vals[8:]
        if n <= 258047:
            raise GraphParseError("byte offset 0: non-canonical size encoding")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    head_len = len(vals) - len(body)
    if len(body) < need:
        raise GraphParseError(
            f"byte offset {len(s)}: truncated bit vector "
            f"(need {need} data bytes, found {len(body)})"
        )
    if len(body) > need:
        raise GraphParseError(
            f"byte offset {head_len + need}: {len(body) - need} trailing byte(s)"
        )
    rows = [0] * n
    for k, (i, j) in enumerate(_pair_order(n)):
        if body[k // 6] >> (5 - k % 6) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    if nbits % 6 and body and body[-1] & ((1 << (6 - nbits % 6)) - 1):
        raise GraphParseError(
            f"byte offset {head_len + need - 1}: nonzero padding bits"
        )
    return Graph(n, rows)


def parse_graph6_lines(text: str) -> list[Graph]:
    """Parse a batch of graph6 records, one per line; blank lines are skipped.

    Errors are re-raised with the 1-based line number prepended.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse_graph6(line))
        except GraphParseError as exc:
            raise GraphParseError(f"line {lineno}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    First non-blank line is ``n <count>``; each following non-blank line is
    ``u v`` with 0-based endpoints.  Duplicate edges are tolerated and
    deduplicated; self-loops and out-of-range indices are errors that name
    the offending line.
    """
    n = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphParseError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: vertex count is not an integer") from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: vertex count must be non-negative")
            rows = [0] * n
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: endpoints are not integers") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range [0, {n})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if n is None:
        raise GraphParseError("line 1: missing 'n <count>' header")
    return Graph(n, rows)


def encode_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
