"""Structural recognizers and closed-form certified-domination values.

Recognition is by direct structural test (degree profile plus neighbourhood
shape), never by general isomorphism search: every family handled here has a
constant-time local characterization.  ``closed_form`` gives the exact value
the paper's tables state for a recognized graph, or None; the solver never
reads it, so the claim suite checks the tables against an independent
search.  The corona and diadem recognizers and the value-n and value-(n-2)
predictors are mask tests over ``leaf_profile`` and build no subgraph.
"""

from __future__ import annotations

from .graphs import (
    Graph,
    VertexSet,
    _bits,
    _mask_of,
    induced_subgraph,
    is_connected,
    leaf_profile,
)


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

    The side B opposite vertex 0 is N(0); g is complete bipartite exactly
    when B is non-empty and every vertex's row is the other side.
    """
    if g.n < 2:
        return None
    b = g.adj[0]
    a = g.full_mask & ~b
    if not b or any(row != (b if a >> v & 1 else a) for v, row in enumerate(g.adj)):
        return None
    return tuple(sorted((a.bit_count(), b.bit_count())))


def wheel_hub(g: Graph) -> int | None:
    """Hub vertex when g is an n-vertex wheel (n >= 4), else None."""
    if g.n < 4:
        return None
    hub = find_universal_vertex(g)
    if hub is None:
        return None
    rim = induced_subgraph(g, VertexSet(g.n, g.full_mask & ~(1 << hub)))
    return hub if is_cycle(rim) else None


def _corona_base(g: Graph, special: int = 0) -> int | None:
    """Base mask when every component of g, the vertices in ``special``
    excepted, is an isolated vertex or a corona; else None.

    In a component of order >= 3 no leaf is a support, so "every non-leaf
    has exactly one leaf neighbour" makes it the corona of its non-leaves.
    A 2-vertex component's ends are leaves and weak supports both; its
    lower end joins the base.
    """
    prof = leaf_profile(g)
    inner = _mask_of(v for v, row in enumerate(g.adj) if row) & ~prof.leaves
    if inner & ~special & ~prof.weak:
        return None
    lower = _mask_of(v for v in _bits(prof.leaves & prof.weak) if g.adj[v] > 1 << v)
    return inner | lower


def recognize_corona(g: Graph) -> VertexSet | None:
    """Base set B with g = G[B] joined to one pendant leaf per base vertex.

    Mask rule over ``leaf_profile``: no vertex is isolated, every non-leaf
    has exactly one leaf neighbour, and B is the non-leaves plus the lower
    end of every 2-vertex component.
    """
    base = _corona_base(g) if g.n and all(g.adj) else None
    return None if base is None else VertexSet(g.n, base)


def recognize_diadem(g: Graph) -> tuple[VertexSet, int] | None:
    """(base set of the underlying graph, unique strong support) or None.

    Mask rule over ``leaf_profile``: exactly one strong support s, exactly
    two leaves on it, no isolated vertex, and every other non-leaf has
    exactly one leaf neighbour.  Removing one leaf of s then leaves a
    corona, since s keeps one leaf and no other non-leaf's leaf count
    changes; B is the non-leaves, s among them, plus the lower end of every
    2-vertex component.
    """
    prof = leaf_profile(g)
    if (prof.strong.bit_count() != 1 or prof.strong_leaves.bit_count() != 2
            or not all(g.adj)):
        return None
    base = _corona_base(g, special=prof.strong)
    return None if base is None else (VertexSet(g.n, base), prof.strong.bit_length() - 1)


def closed_form(g: Graph) -> int | None:
    """Exact certified domination number of g by its closed form, or None.

    The first match decides, in this order: a universal vertex (n >= 3)
    gives 1; a complete, complete bipartite, path or cycle graph its
    ``gamma_cer_*`` value; a corona n.  Overlapping classes agree on the
    value.  None when g is empty, disconnected or matches none.
    """
    n = g.n
    if n == 0 or not is_connected(g):
        return None
    if n >= 3 and find_universal_vertex(g) is not None:
        return 1
    if is_complete(g):
        return gamma_cer_complete(n)
    if (sides := complete_bipartite_sides(g)) is not None:
        return gamma_cer_complete_bipartite(*sides)
    if is_path(g):
        return gamma_cer_path(n)
    if is_cycle(g):
        return gamma_cer_cycle(n)
    return n if recognize_corona(g) is not None else None


# ---------------------------------------------------------------------------
# Characterization predictors
# ---------------------------------------------------------------------------

def check_gamma_cer_equals_n(g: Graph) -> bool:
    """Predict gamma_cer(g) == n: every component is an isolated vertex or a corona."""
    return _corona_base(g) is not None


def check_gamma_cer_equals_n_minus_2(g: Graph) -> bool:
    """Predict gamma_cer(g) == n-2 for n >= 3.

    True iff exactly one component is a triangle, a four-cycle, or a diadem,
    and every other component is an isolated vertex or a corona.  Mask rule
    over ``leaf_profile``: a component is one of the latter exactly when
    each of its non-leaves is a weak support (see ``_corona_base``), so the
    other non-isolated non-leaves, ``odd``, must all lie in the one special
    component: its strong support, holding exactly two leaves, or its 3 or 4
    vertices, each with both its neighbours in ``odd``.
    """
    if g.n < 3:
        raise ValueError("predictor needs n >= 3")
    prof = leaf_profile(g)
    odd = _mask_of(v for v, row in enumerate(g.adj) if row) & ~prof.leaves & ~prof.weak
    if odd.bit_count() == 1:
        return (g.adj[odd.bit_length() - 1] & prof.leaves).bit_count() == 2
    return odd.bit_count() in (3, 4) and all(
        g.adj[v].bit_count() == 2 and not g.adj[v] & ~odd for v in _bits(odd))
