"""Parametric graph family generators and their symbolic descriptions.

Beyond the textbook families (paths, cycles, complete and complete bipartite
graphs, wheels), this module builds corona products, diadem graphs, and the
four pendant-path families used as regression fixtures by the analysis and
acceptance layers.  All layouts are pinned so certificates and golden tests
are reproducible:

* ``wheel_graph``: hub is vertex 0, rim is the cycle 1..n-1.
* ``corona``: base vertices keep their indices; copy i of the fringe graph
  occupies a contiguous block after the base, and base vertex i is joined to
  every vertex of copy i.
* ``diadem``: corona of the base with K1, plus vertex 2|V(H)| joined to base
  vertex 0 (which thereby becomes the unique strong support).
* pendant-path fixtures: see each builder's docstring for the exact indices,
  including which cycle edge is the marked one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from .graphs import Graph


class FamilySpecError(ValueError):
    """Raised for unknown family names or out-of-range parameters."""


SpecArg = Union[int, "FamilySpec", Graph]


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic description of a parametric family instance.

    ``args`` holds ints for the numeric families; for corona and diadem the
    arguments may be nested FamilySpec instances or explicit graphs.
    """

    kind: str
    args: tuple[SpecArg, ...]

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES:
            raise FamilySpecError(f"unknown family kind {self.kind!r}")
        params = _FAMILIES[self.kind][1]
        if len(self.args) != len(params):
            raise FamilySpecError(
                f"{self.kind} takes {len(params)} argument(s), got {len(self.args)}"
            )
        for a, param in zip(self.args, params):
            if param is Graph:
                if not isinstance(a, (FamilySpec, Graph)):
                    raise FamilySpecError(
                        f"{self.kind} arguments must be family specs or graphs"
                    )
            elif not isinstance(a, int):
                raise FamilySpecError(f"{self.kind} arguments must be integers")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise FamilySpecError("path needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise FamilySpecError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise FamilySpecError("complete graph needs n >= 1")
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    if not 1 <= m <= n:
        raise FamilySpecError("complete bipartite graph needs 1 <= m <= n")
    return Graph.from_edges(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def wheel_graph(n: int) -> Graph:
    """n-vertex wheel: hub 0 joined to the rim cycle 1..n-1 (n >= 4)."""
    if n < 4:
        raise FamilySpecError("wheel needs n >= 4 total vertices")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((n - 1, 1))
    return Graph.from_edges(n, edges)


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise FamilySpecError("empty graph needs n >= 0")
    return Graph(n, [0] * n)


def corona(base: Graph, fringe: Graph) -> Graph:
    """Corona product: base vertex i joined to all of the i-th fringe copy.

    The result has ``base.n * (1 + fringe.n)`` vertices: base vertices first,
    then fringe copies in base-vertex order.
    """
    if base.n < 1 or fringe.n < 1:
        raise FamilySpecError("corona factors need at least one vertex")
    edges = list(base.edges())
    for i in range(base.n):
        off = base.n + i * fringe.n
        edges.extend((off + u, off + v) for u, v in fringe.edges())
        edges.extend((i, off + u) for u in range(fringe.n))
    return Graph.from_edges(base.n * (1 + fringe.n), edges)


def diadem(base: Graph) -> Graph:
    """Corona of ``base`` with K1 plus one extra leaf on base vertex 0.

    The extra vertex has index 2*base.n; base vertex 0 ends up with two leaf
    neighbours (its pendant vertex base.n and the new vertex) and is the
    unique strong support of the result.
    """
    if base.n < 1:
        raise FamilySpecError("diadem base needs at least one vertex")
    g = corona(base, empty_graph(1))
    return g.add_vertex([0])


def fig1_graph(i: int) -> Graph:
    """Three-vertex path head with i pendant four-vertex paths (4i+3 vertices).

    Vertices 0-1-2 form the head path; branch k occupies 3+4k..6+4k as the
    path 2 - (3+4k) - (4+4k) - (5+4k) - (6+4k).
    """
    if i < 1:
        raise FamilySpecError("fig1 needs i >= 1")
    edges = [(0, 1), (1, 2)]
    for k in range(i):
        b = 3 + 4 * k
        edges += [(2, b), (b, b + 1), (b + 1, b + 2), (b + 2, b + 3)]
    return Graph.from_edges(3 + 4 * i, edges)


def fig3a_graph(i: int) -> Graph:
    """Four-cycle 0-1-2-3 with i pendant two-vertex paths on vertex 0.

    Branch k is the path 0 - (4+2k) - (5+2k); 2i+4 vertices in total.  The
    marked removable cycle edge is ``fig3a_marked_edge()``.
    """
    if i < 1:
        raise FamilySpecError("fig3a needs i >= 1")
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for k in range(i):
        a = 4 + 2 * k
        edges += [(0, a), (a, a + 1)]
    return Graph.from_edges(4 + 2 * i, edges)


def fig3a_marked_edge() -> tuple[int, int]:
    """The cycle edge of fig3a not incident to the branch vertex."""
    return (1, 2)


def fig3b_graph(i: int) -> Graph:
    """Disconnected variant of fig3a: vertex 3 isolated (2i+4 vertices).

    Vertices 2-1-0 form a path, vertex 0 carries the i pendant two-vertex
    paths, and vertex 3 is isolated.  Adding ``fig3b_missing_edge()`` joins
    vertex 3 to the branch vertex.
    """
    if i < 1:
        raise FamilySpecError("fig3b needs i >= 1")
    edges = [(0, 1), (1, 2)]
    for k in range(i):
        a = 4 + 2 * k
        edges += [(0, a), (a, a + 1)]
    return Graph.from_edges(4 + 2 * i, edges)


def fig3b_missing_edge() -> tuple[int, int]:
    """The dashed edge whose addition reconnects fig3b's isolated vertex."""
    return (0, 3)


def fig4_graph(i: int) -> Graph:
    """Centre vertex 0 with i pendant two-vertex paths (2i+1 vertices).

    Branch k is the path 0 - (1+2k) - (2+2k).  Adding a leaf on the centre
    (``Graph.add_vertex([0])``) is the fixture's vertex addition.
    """
    if i < 1:
        raise FamilySpecError("fig4 needs i >= 1")
    edges = []
    for k in range(i):
        a = 1 + 2 * k
        edges += [(0, a), (a, a + 1)]
    return Graph.from_edges(1 + 2 * i, edges)


# kind -> (builder, the type of each argument); a Graph argument may also be
# given as a FamilySpec, written in a textual spec as "(SPEC)"
_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[type, ...]]] = {
    "path": (path_graph, (int,)),
    "cycle": (cycle_graph, (int,)),
    "complete": (complete_graph, (int,)),
    "complete-bipartite": (complete_bipartite_graph, (int, int)),
    "wheel": (wheel_graph, (int,)),
    "empty": (empty_graph, (int,)),
    "corona": (corona, (Graph, Graph)),
    "diadem": (diadem, (Graph,)),
    "fig1": (fig1_graph, (int,)),
    "fig3a": (fig3a_graph, (int,)),
    "fig3b": (fig3b_graph, (int,)),
    "fig4": (fig4_graph, (int,)),
}


def build_family(spec: FamilySpec) -> Graph:
    """Materialize a FamilySpec into a graph, validating parameter ranges."""
    builder = _FAMILIES[spec.kind][0]
    return builder(*(build_family(a) if isinstance(a, FamilySpec) else a for a in spec.args))


# ---------------------------------------------------------------------------
# Textual family specs (CLI surface)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([()]|[A-Za-z0-9_-]+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FamilySpecError(
                f"unexpected character {text[pos]!r} in family spec"
            )
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_family_spec(text: str) -> FamilySpec:
    """Parse specs like ``"wheel 8"`` or ``"corona (cycle 5) (complete 1)"``."""
    tokens = _tokenize(text)
    pos = 0

    def parse_spec() -> FamilySpec:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "()":
            raise FamilySpecError("expected a family name")
        kind = tokens[pos].lower()
        pos += 1
        if kind not in _FAMILIES:
            raise FamilySpecError(f"unknown family kind {kind!r}")
        args: list[SpecArg] = []
        for param in _FAMILIES[kind][1]:
            if param is Graph:
                if pos >= len(tokens) or tokens[pos] != "(":
                    raise FamilySpecError(f"{kind} arguments must be parenthesized specs")
                pos += 1
                args.append(parse_spec())
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise FamilySpecError("missing closing parenthesis")
                pos += 1
            else:
                if pos >= len(tokens) or not tokens[pos].removeprefix("-").isdigit():
                    raise FamilySpecError(f"{kind} expects integer arguments")
                args.append(int(tokens[pos]))
                pos += 1
        return FamilySpec(kind, tuple(args))

    spec = parse_spec()
    if pos != len(tokens):
        raise FamilySpecError(f"trailing tokens after family spec: {tokens[pos:]}")
    return spec
