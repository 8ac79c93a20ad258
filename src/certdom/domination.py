"""Domination predicates over (graph, vertex set) pairs.

All predicates are pure and total: they accept any subset of the vertex set
(given as a VertexSet or any iterable of vertex indices) and cache nothing
on the graph beyond its leaf profile.  The zero-vertex graph is handled
everywhere; its empty set is vacuously dominating, certified, and
2-dominating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union

from .graphs import Graph, VertexSet, _bits, leaf_profile

SetLike = Union[VertexSet, Iterable[int]]


class VertexStatus(enum.Enum):
    """Status of a vertex relative to a (graph, set) pair.

    Members of the set are shadowed (no neighbour outside), half-shadowed
    (exactly one neighbour outside) or illuminated (at least two); vertices
    not in the set are outside.
    """

    OUTSIDE = "outside"
    SHADOWED = "shadowed"
    HALF_SHADOWED = "half-shadowed"
    ILLUMINATED = "illuminated"


def as_mask(g: Graph, s: SetLike) -> int:
    """Normalize a vertex-set argument to a bitmask over g's vertices."""
    if isinstance(s, VertexSet):
        if s.n != g.n:
            raise ValueError("vertex set belongs to a different graph")
        return s.mask
    return VertexSet.of(g.n, s).mask


def _dominates(g: Graph, mask: int) -> bool:
    cover = mask
    for v in _bits(mask):
        cover |= g.adj[v]
    return cover == g.full_mask


def _certified(g: Graph, mask: int) -> bool:
    if not _dominates(g, mask):
        return False
    for v in _bits(mask):
        outside = g.adj[v] & ~mask
        if outside and not outside & (outside - 1):
            return False
    return True


def is_dominating(g: Graph, d: SetLike) -> bool:
    """True iff every vertex outside d has a neighbour in d."""
    return _dominates(g, as_mask(g, d))


def is_certified_dominating(g: Graph, d: SetLike) -> bool:
    """True iff d is dominating and no member has exactly one neighbour outside d."""
    return _certified(g, as_mask(g, d))


def is_2dominating(g: Graph, x: SetLike) -> bool:
    """True iff x is dominating and every outside vertex has >= 2 neighbours in x."""
    mask = as_mask(g, x)
    if not _dominates(g, mask):
        return False
    outside = g.full_mask & ~mask
    for v in _bits(outside):
        if (g.adj[v] & mask).bit_count() < 2:
            return False
    return True


def classify_vertex(g: Graph, d: SetLike, v: int) -> VertexStatus:
    """Outside / shadowed / half-shadowed / illuminated status of v w.r.t. d."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range [0, {g.n})")
    mask = as_mask(g, d)
    if not mask >> v & 1:
        return VertexStatus.OUTSIDE
    outside = (g.adj[v] & ~mask).bit_count()
    if outside == 0:
        return VertexStatus.SHADOWED
    if outside == 1:
        return VertexStatus.HALF_SHADOWED
    return VertexStatus.ILLUMINATED


def is_minimal_dominating(g: Graph, d: SetLike) -> bool:
    """True iff d dominates and no single-vertex removal still dominates.

    Because supersets of dominating sets dominate, checking single removals
    decides full minimality.
    """
    mask = as_mask(g, d)
    if not _dominates(g, mask):
        raise ValueError("set is not dominating")
    for v in _bits(mask):
        if _dominates(g, mask & ~(1 << v)):
            return False
    return True


def equality_witness(g: Graph, min_dom_masks: Iterable[int]) -> int | None:
    """First of ``min_dom_masks`` that is leaf-free and leaves every weak
    support a non-leaf neighbour outside the set, or None.

    Given every minimum dominating set, such a set exists iff the domination
    and certified domination numbers agree.  Leaf-freeness is essential: no
    certified set of size gamma holds a leaf (it would hold the leaf's
    support too, so dropping the leaf would leave a dominating set of size
    gamma - 1), and leaf-heavy gamma-sets (e.g. both ends of a 4-path)
    satisfy the slack condition without certifying anything.
    """
    prof = leaf_profile(g)
    lm = prof.leaves
    weak = list(_bits(prof.weak))
    for mask in min_dom_masks:
        if not mask & lm and all(g.adj[s] & ~lm & ~mask for s in weak):
            return mask
    return None


@dataclass(frozen=True)
class DD2Pair:
    """Disjoint pair (d, d2) meant as a dominating / 2-dominating pair."""

    d: VertexSet
    d2: VertexSet

    def __post_init__(self) -> None:
        if self.d.n != self.d2.n:
            raise ValueError("pair members belong to different graphs")
        if self.d.mask & self.d2.mask:
            raise ValueError("pair members must be disjoint")


def is_dd2_pair(g: Graph, p: DD2Pair) -> bool:
    """True iff p.d dominates g and p.d2 2-dominates g (a DD2Pair is disjoint)."""
    if p.d.n != g.n:
        raise ValueError("pair belongs to a different graph")
    return _dominates(g, p.d.mask) and is_2dominating(g, p.d2)
