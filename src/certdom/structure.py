"""Structural recognizers and closed-form certified-domination values.

Recognition is by direct structural test (degree profile plus neighbourhood
shape), never by general isomorphism search: every family handled here has a
constant-time local characterization.  ``closed_form`` states the paper's
value tables; the solver never reads them, so the claim suite checks them
against an independent search.  The two predictors at the bottom decide the
value-n and value-(n-2) characterizations component by component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    VertexSet,
    _bits,
    complement,
    components,
    induced_subgraph,
    is_connected,
    leaf_profile,
)


@dataclass(frozen=True)
class StructureClass:
    """Recognized class with the witness data needed to rebuild the claim."""

    kind: str
    n: int = 0
    m: int = 0
    vertex: int | None = None
    base: VertexSet | None = None

    def __repr__(self) -> str:
        parts = [self.kind]
        if self.kind == "complete-bipartite":
            parts.append(f"{self.m},{self.n}")
        elif self.n:
            parts.append(str(self.n))
        if self.vertex is not None:
            parts.append(f"vertex={self.vertex}")
        return f"StructureClass({' '.join(parts)})"


# ---------------------------------------------------------------------------
# Closed-form value tables
# ---------------------------------------------------------------------------

def gamma_cer_path(n: int) -> int:
    if n < 1:
        raise ValueError("path needs n >= 1")
    if n in (1, 3):
        return 1
    if n == 2:
        return 2
    if n == 4:
        return 4
    return -(-n // 3)


def gamma_cer_cycle(n: int) -> int:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return -(-n // 3)


def gamma_cer_complete(n: int) -> int:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return 2 if n == 2 else 1


def gamma_cer_complete_bipartite(m: int, n: int) -> int:
    if not 1 <= m <= n:
        raise ValueError("complete bipartite graph needs 1 <= m <= n")
    return 1 if m == 1 and n > 1 else 2


def gamma_cer_wheel(n: int) -> int:
    if n < 4:
        raise ValueError("wheel needs n >= 4 total vertices")
    return 1


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------

def find_universal_vertex(g: Graph) -> int | None:
    """Smallest vertex adjacent to all others, if any."""
    want = g.full_mask
    for v in range(g.n):
        if g.closed(v) == want:
            return v
    return None


def is_path(g: Graph) -> bool:
    """Connected path on >= 1 vertices (direct degree test)."""
    n = g.n
    if n == 0 or not is_connected(g):
        return False
    if n == 1:
        return True
    degs = g.degrees()
    return max(degs) <= 2 and degs.count(1) == 2


def is_cycle(g: Graph) -> bool:
    return g.n >= 3 and is_connected(g) and all(d == 2 for d in g.degrees())


def is_complete(g: Graph) -> bool:
    return g.n >= 1 and all(d == g.n - 1 for d in g.degrees())


def complete_bipartite_sides(g: Graph) -> tuple[int, int] | None:
    """Side sizes (m, n) with m <= n when g is complete bipartite, else None.

    A graph is complete bipartite exactly when its complement is the disjoint
    union of two cliques.
    """
    if g.n < 2:
        return None
    comps = components(complement(g))
    if len(comps) != 2 or not all(is_complete(c) for _, c in comps):
        return None
    a, b = (c.n for _, c in comps)
    return (a, b) if a <= b else (b, a)


def wheel_hub(g: Graph) -> int | None:
    """Hub vertex when g is an n-vertex wheel (n >= 4), else None."""
    if g.n < 4:
        return None
    hub = find_universal_vertex(g)
    if hub is None:
        return None
    rim = induced_subgraph(g, VertexSet(g.n, g.full_mask & ~(1 << hub)))
    return hub if is_cycle(rim) else None


def recognize_corona(g: Graph) -> VertexSet | None:
    """Base set B with g = G[B] joined to one pendant leaf per base vertex.

    Component rule: a 2-vertex component contributes its lower-index vertex;
    a component of order >= 3 qualifies iff every non-leaf vertex has exactly
    one leaf neighbour and leaves and non-leaves are equinumerous; an
    isolated vertex disqualifies the whole graph.
    """
    if g.n == 0:
        return None
    base = 0
    for vs, comp in components(g):
        order = vs.to_list()
        if comp.n == 1:
            return None
        if comp.n == 2:
            base |= 1 << order[0]
            continue
        # In a connected graph on >= 3 vertices no leaf is a support, so this
        # says each non-leaf has exactly one leaf neighbour, which also makes
        # leaves and non-leaves equinumerous.
        prof = leaf_profile(comp)
        nonleaf = comp.full_mask & ~prof.leaves
        if prof.weak != nonleaf:
            return None
        for v in _bits(nonleaf):
            base |= 1 << order[v]
    return VertexSet(g.n, base)


def recognize_diadem(g: Graph) -> tuple[VertexSet, int] | None:
    """(base set of the underlying graph, unique strong support) or None.

    A diadem has exactly one strong support s with exactly two leaf
    neighbours, and removing either of those leaves yields a corona whose
    base can be chosen to contain s.
    """
    prof = leaf_profile(g)
    if prof.strong.bit_count() != 1:
        return None
    s = prof.strong.bit_length() - 1
    leaf_nbrs = prof.strong_leaves
    if leaf_nbrs.bit_count() != 2:
        return None
    drop = leaf_nbrs & -leaf_nbrs
    keep = VertexSet(g.n, g.full_mask & ~drop)
    order = keep.to_list()
    sub_base = recognize_corona(induced_subgraph(g, keep))
    if sub_base is None:
        return None
    base = 0
    for i in sub_base:
        base |= 1 << order[i]
    if not base >> s & 1:
        # s's component shrank to an edge, whose either endpoint is a valid
        # base choice; swap the remaining leaf for s.
        rest = g.adj[s] & ~drop
        if rest.bit_count() != 1 or not base & rest:
            return None
        base = (base & ~rest) | 1 << s
    return VertexSet(g.n, base), s


def closed_form(g: Graph) -> tuple[StructureClass, int] | None:
    """Recognized class and exact certified domination number for connected g.

    Overlapping classes are value-consistent; the first match in a fixed
    priority order (universal vertex, complete, complete bipartite, path,
    cycle, wheel, corona) is reported.
    """
    n = g.n
    if n == 0 or not is_connected(g):
        return None
    if n >= 3:
        v = find_universal_vertex(g)
        if v is not None:
            return StructureClass("universal", n=n, vertex=v), 1
    if is_complete(g):
        return StructureClass("complete", n=n), gamma_cer_complete(n)
    sides = complete_bipartite_sides(g)
    if sides is not None:
        m, nn = sides
        return (
            StructureClass("complete-bipartite", m=m, n=nn),
            gamma_cer_complete_bipartite(m, nn),
        )
    if is_path(g):
        return StructureClass("path", n=n), gamma_cer_path(n)
    if is_cycle(g):
        return StructureClass("cycle", n=n), gamma_cer_cycle(n)
    hub = wheel_hub(g)
    if hub is not None:
        return StructureClass("wheel", n=n, vertex=hub), 1
    base = recognize_corona(g)
    if base is not None:
        return StructureClass("corona", n=n, base=base), n
    return None


# ---------------------------------------------------------------------------
# Characterization predictors
# ---------------------------------------------------------------------------

def check_gamma_cer_equals_n(g: Graph) -> bool:
    """Predict gamma_cer(g) == n: every component is an isolated vertex or a corona."""
    return all(
        comp.n == 1 or recognize_corona(comp) is not None
        for _, comp in components(g)
    )


def check_gamma_cer_equals_n_minus_2(g: Graph) -> bool:
    """Predict gamma_cer(g) == n-2 for n >= 3.

    True iff exactly one component is a triangle, a four-cycle, or a diadem,
    and every other component is an isolated vertex or a corona.
    """
    if g.n < 3:
        raise ValueError("predictor needs n >= 3")
    special = 0
    for _, comp in components(g):
        if comp.n == 1 or recognize_corona(comp) is not None:
            continue
        if (comp.n in (3, 4) and is_cycle(comp)) or recognize_diadem(comp) is not None:
            special += 1
            if special > 1:
                return False
            continue
        return False
    return special == 1
