"""Exact solvers for the domination and certified domination numbers.

Two independent routes are provided:

* ``gamma_oracle`` / ``gamma_cer_oracle`` enumerate vertex subsets by
  cardinality then lexicographic order and return the first hit.  They are
  the ground truth for everything else and refuse graphs above a size bound.

* ``gamma_solve`` / ``gamma_cer_solve`` run a reduction-aware branch and
  bound per connected component, branching on the closed neighbourhood of an
  undominated vertex.  It prunes with the larger of two lower bounds, both
  feasible solutions of the dual of the domination LP: a greedy packing of
  undominated vertices with disjoint allowed dominators, and a fractional
  packing that weighs each undominated vertex by one over the most
  undominated vertices any of its allowed dominators covers (van Rooij &
  Bodlaender 2011).  Every certified set dominates, so both bound the
  certified search too.  Both share one leaf-free value phase, which proves
  the domination number with the leaves pinned out and the supports in (a
  support stands in for its leaf).  The certified solve runs it first and
  uses the result as an incumbent, so one certified solve returns both
  numbers.  It then pre-pins support vertices (certified sets must contain
  every support) and detects infeasible certification early: a chosen
  vertex whose unresolved neighbourhood can no longer avoid "exactly one
  neighbour outside" kills the branch, and near-misses force its last
  undecided neighbour in or out.  No value is read from the closed forms of
  ``structure`` or bounded by the paper's upper bounds; both are checked
  against this search.

Certificates are deterministic: among all optimal sets the lexicographically
smallest (by sorted vertex list) is returned, found by self-reduction.  Each
vertex in ascending order is kept when an optimal witness (at first the value
phase's optimum) holds it or a first-hit run of the same branch and bound
finds one that does, and is pinned out otherwise.  Every component's value
is settled before any certificate phase starts, so after a node limit there
the values stand and the witnesses are returned, unproven only in their tie
break.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import combinations
from math import lcm
from typing import Iterator

from .domination import DD2Pair, _certified, _dominates, is_2dominating
from .graphs import Graph, VertexSet, _bits, components, leaf_profile, min_degree, supports_mask

ORACLE_BOUND_DEFAULT = 20


class SizeLimitError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its size bound."""


@dataclass
class SolveStats:
    """Counters of one solve; ``as_dict`` keeps the field order."""

    nodes_expanded: int = 0
    forced_vertices: int = 0  # supports the certified solve pins in, not propagation moves
    components_split: int = 0  # the number of components; 0 for a connected graph
    closed_form_hits: int = 0  # always 0: no value comes from a closed form
    certificate_nodes: int = 0  # the share of nodes_expanded spent in lex_first
    packing_prunes: int = 0  # nodes cut by the greedy packing bound
    fractional_prunes: int = 0  # nodes cut by the fractional packing bound alone
    dead_ends: int = 0  # branches propagation proved infeasible

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SolverConfig:
    """Search controls.  They never change the answer: every solve returns
    the lexicographically smallest certificate among the optima, compared as
    sorted vertex lists."""

    use_reductions: bool = True
    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Optimal value with one optimal certificate.

    ``proven`` is False only when a node limit truncated the search; the
    certificate is then still a valid set of size ``value`` but optimality
    (or the tie break) is unverified.

    ``gamma`` is the domination number, proven by the shared value phase of
    either solve.  It is None when that phase did not run (a certified solve
    with reductions off) or a node limit stopped it.
    """

    value: int
    certificate: VertexSet
    stats: SolveStats = field(default_factory=SolveStats)
    proven: bool = True
    gamma: int | None = None


# ---------------------------------------------------------------------------
# Subset-enumeration oracles
# ---------------------------------------------------------------------------

def _oracle(g: Graph, certified: bool, max_n: int) -> SolveResult:
    if g.n > max_n:
        raise SizeLimitError(
            f"oracle refuses n={g.n} > bound {max_n}; raise max_n explicitly"
        )
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    adj = g.adj
    full = g.full_mask
    tested = 0
    for k in range(g.n + 1):
        for comb in combinations(range(g.n), k):
            tested += 1
            cover = 0
            mask = 0
            for v in comb:
                cover |= closed[v]
                mask |= 1 << v
            if cover != full:
                continue
            if certified:
                ok = True
                for v in comb:
                    outside = adj[v] & ~mask
                    if outside and not outside & (outside - 1):
                        ok = False
                        break
                if not ok:
                    continue
            return SolveResult(
                k, VertexSet(g.n, mask), SolveStats(nodes_expanded=tested)
            )
    raise AssertionError("unreachable: the full vertex set always qualifies")


def gamma_oracle(g: Graph, *, max_n: int = ORACLE_BOUND_DEFAULT) -> SolveResult:
    """Ground-truth domination number by subset enumeration."""
    return _oracle(g, certified=False, max_n=max_n)


def gamma_cer_oracle(g: Graph, *, max_n: int = ORACLE_BOUND_DEFAULT) -> SolveResult:
    """Ground-truth certified domination number by subset enumeration."""
    return _oracle(g, certified=True, max_n=max_n)


def _dominating_masks(g: Graph, k: int) -> Iterator[int]:
    """Masks of the dominating k-subsets, in lexicographic order."""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    full = g.full_mask
    for comb in combinations(range(g.n), k):
        cover = 0
        mask = 0
        for v in comb:
            cover |= closed[v]
            mask |= 1 << v
        if cover == full:
            yield mask


def all_min_dominating_sets(
    g: Graph, *, max_n: int = ORACLE_BOUND_DEFAULT, gamma: int | None = None
) -> list[VertexSet]:
    """Every minimum dominating set, in lexicographic order.  A known
    domination number ``gamma`` spares the oracle's search for it."""
    if gamma is None or g.n > max_n:  # the oracle refuses n > max_n
        gamma = gamma_oracle(g, max_n=max_n).value
    return [VertexSet(g.n, mask) for mask in _dominating_masks(g, gamma)]


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

class _NodeLimit(Exception):
    pass


class _Hit(Exception):
    """Stops a first-hit search at its first qualifying set."""


class _Search:
    """In/out decision search over one graph's vertices, on raw bitmasks.
    One search serves every phase of a component; the certified solve turns
    ``certified`` on after the value phase.  Nodes and prunes are counted on
    the solve's ``stats``, and the node past ``limit`` raises _NodeLimit."""

    __slots__ = (
        "adj", "closed", "full", "certified", "stats", "limit",
        "best_val", "best_mask", "first_hit", "branch",
    )

    def __init__(self, g: Graph, certified: bool, stats: SolveStats,
                 limit: int | None = None):
        self.adj = g.adj
        self.closed = tuple(g.adj[v] | 1 << v for v in range(g.n))
        self.full = g.full_mask
        self.certified = certified
        self.stats = stats
        self.limit = limit

    # -- shared machinery ---------------------------------------------------

    def _cover(self, in_mask: int) -> int:
        """Union of N[v] over v in ``in_mask``."""
        closed = self.closed
        covered = 0
        while in_mask:
            low = in_mask & -in_mask
            in_mask ^= low
            covered |= closed[low.bit_length() - 1]
        return covered

    def _propagate(self, in_mask: int, out_mask: int, covered: int):
        """Fixpoint of forced moves; None on a proven dead end.

        ``covered`` is the union of N[v] over v in ``in_mask``, kept up to
        date as vertices are forced in.  Rules: an undominated vertex with no
        allowed dominator kills the branch, with a single allowed dominator
        forces it in; a chosen vertex with exactly one decided-out neighbour
        and no undecided ones is stuck half-shadowed (dead), with one
        undecided neighbour left that neighbour is forced out (one
        decided-out) or in (none decided-out).  One scan forces in every
        single-dominator vertex: a vertex forced earlier in the scan covers
        only undominated vertices it is a candidate of, so the fixpoint is
        that of forcing one at a time.  Returns (in_mask, out_mask, covered).
        """
        adj = self.adj
        closed = self.closed
        full = self.full
        while True:
            allowed = full ^ out_mask
            m = full ^ covered
            while m:
                low = m & -m
                m ^= low
                cand = closed[low.bit_length() - 1] & allowed
                if cand == 0:
                    self.stats.dead_ends += 1
                    return None
                if not cand & (cand - 1):
                    in_mask |= cand
                    row = closed[cand.bit_length() - 1]
                    covered |= row
                    m &= ~row
            if not self.certified:
                return in_mask, out_mask, covered
            # the certified rules restart from the lowest chosen vertex after
            # each move; only a move out can leave a vertex without dominators
            undec = allowed ^ in_mask
            m = in_mask
            while m:
                low = m & -m
                m ^= low
                row = adj[low.bit_length() - 1]
                a_mask = row & out_mask
                if a_mask & (a_mask - 1):
                    continue
                b_mask = row & undec
                if b_mask & (b_mask - 1):
                    continue
                if a_mask:
                    if not b_mask:
                        self.stats.dead_ends += 1
                        return None
                    out_mask |= b_mask
                    break
                if b_mask:
                    in_mask |= b_mask
                    covered |= closed[b_mask.bit_length() - 1]
                    undec ^= b_mask
                    m = in_mask
            else:
                return in_mask, out_mask, covered

    def _pack_bound(self, out_mask: int, covered: int, need: int) -> int:
        """Lower bound on the vertices still needed to dominate the
        undominated set U: the larger of two dual-feasible packings of the
        domination LP.  The greedy one takes undominated vertices with
        pairwise disjoint allowed dominator sets, in index order, each of
        weight 1.  The fractional one, computed only when the greedy count is
        below ``need``, weighs each u in U by 1/k_u, where k_u is the most
        of U that one of u's allowed dominators v covers; every allowed v
        then covers weight at most 1, so the rounded-up total bounds the
        vertices needed.  Certified sets dominate, so both bound either
        search.  The greedy scan also sets ``branch`` to the allowed
        dominators of the lowest vertex of U with the fewest; propagation
        leaves each at least two, so the first with two is that vertex."""
        closed = self.closed
        allowed = self.full ^ out_mask
        undom = self.full ^ covered
        used = dom = count = 0
        fewest = len(closed) + 1
        m = undom
        while m:
            low = m & -m
            m ^= low
            cand = closed[low.bit_length() - 1] & allowed
            dom |= cand
            if not cand & used:
                used |= cand
                count += 1
            if fewest > 2:
                c = cand.bit_count()
                if c < fewest:
                    fewest, self.branch = c, cand
        if count >= need:
            self.stats.packing_prunes += 1
            return count
        # a vertex of U first reached from the level t of dominators covering
        # t vertices of U, taken from the largest t down, has k_u = t
        levels: dict[int, int] = {}
        while dom:
            v = dom.bit_length() - 1
            dom ^= 1 << v
            row = closed[v] & undom
            t = row.bit_count()
            levels[t] = levels.get(t, 0) | row
        denom = lcm(*levels)
        num = 0
        for t in sorted(levels, reverse=True):
            row = levels[t] & undom
            undom ^= row
            num += row.bit_count() * (denom // t)
        frac = -(-num // denom)
        if frac >= need:
            self.stats.fractional_prunes += 1
        return max(count, frac)

    # -- phase 1: optimal value ----------------------------------------------

    def solve_best(self, in0: int, out0: int, inc_mask: int) -> tuple[int, int]:
        """Best-value search seeded with a feasible incumbent.  ``best_mask``
        holds the best set found, also after a node limit stops the search."""
        self.best_val = inc_mask.bit_count()
        self.best_mask = inc_mask
        self.first_hit = False
        self._descend_best(in0, out0, self._cover(in0))
        return self.best_val, self.best_mask

    def _descend_best(self, in_mask: int, out_mask: int, covered: int) -> None:
        stats = self.stats
        stats.nodes_expanded += 1
        if self.limit is not None and stats.nodes_expanded > self.limit:
            raise _NodeLimit
        state = self._propagate(in_mask, out_mask, covered)
        if state is None:
            return
        in_mask, out_mask, covered = state
        size = in_mask.bit_count()
        if size >= self.best_val:
            return
        if covered == self.full:
            # Propagation fixpoint: leaving every undecided vertex outside
            # is a feasible completion of exactly this size.
            self.best_val = size
            self.best_mask = in_mask
            if self.first_hit:
                raise _Hit
            return
        need = self.best_val - size
        if self._pack_bound(out_mask, covered, need) >= need:
            return
        closed = self.closed
        cand = self.branch
        excl = 0
        while cand:
            low = cand & -cand
            cand ^= low
            self._descend_best(in_mask | low, out_mask | excl,
                               covered | closed[low.bit_length() - 1])
            excl |= low

    # -- phase 2: lexicographically smallest optimum -------------------------

    def _any_within(self, size: int, in_mask: int, out_mask: int, covered: int) -> bool:
        """First-hit search for a set of at most ``size`` within the pins."""
        self.best_val = size + 1
        self.first_hit = True
        try:
            self._descend_best(in_mask, out_mask, covered)
        except _Hit:
            return True
        return False

    def lex_first(self, size: int, in_mask: int, out_mask: int, witness: int) -> int:
        """Lexicographically smallest qualifying set of the optimal ``size``
        (sorted-list order), by self-reduction: the lowest undecided vertex is
        pinned in when the witness, an optimal set respecting the pins, holds
        it or a first-hit search finds a new witness with it, and pinned out
        otherwise.  ``best_mask`` keeps the witness."""
        self.best_mask = witness
        covered = self._cover(in_mask)
        while True:
            state = self._propagate(in_mask, out_mask, covered)
            if state is None:
                raise AssertionError("no certificate at the proven optimum; solver bug")
            in_mask, out_mask, covered = state
            undec = self.full & ~in_mask & ~out_mask
            if not undec & ~self.best_mask or in_mask.bit_count() == size:
                return in_mask | undec & self.best_mask
            low = undec & -undec
            with_low = covered | self.closed[low.bit_length() - 1]
            if low & self.best_mask or self._any_within(size, in_mask | low, out_mask, with_low):
                in_mask |= low
                covered = with_low
            else:
                out_mask |= low

    # -- helpers -------------------------------------------------------------

    def greedy_cover(self, out_mask: int = 0) -> int | None:
        """Greedy dominating set avoiding ``out_mask`` (largest gain first, ties
        to the lowest vertex), as a mask; None when some vertex cannot be
        dominated.  Gains only shrink, so a lazy heap re-scores a stale top."""
        closed = self.closed
        full = self.full
        heap = [(-closed[v].bit_count(), v) for v in _bits(full & ~out_mask)]
        heapify(heap)
        cover = chosen = 0
        while cover != full:
            if not heap or heap[0][0] == 0:
                return None
            neg_gain, v = heap[0]
            gain = (closed[v] & ~cover).bit_count()
            if gain == -neg_gain:
                heappop(heap)
                chosen |= 1 << v
                cover |= closed[v]
            else:
                heapreplace(heap, (-gain, v))
        return chosen


def _component(
    g: Graph, cfg: SolverConfig, stats: SolveStats, certified: bool
) -> tuple[_Search, int | None, int, int, int | None]:
    """(search, value, best set, pins, gamma) for one connected component;
    the value is None when a node limit cut its search.

    The value phase, the same in both modes (certified mode runs it only
    with reductions on), proves gamma with the leaves pinned out, harmless
    for n >= 3 as a support stands in for its leaf.  In gamma mode its
    optimum is the value; certified mode turns it into an incumbent and
    switches the same search to the certified rules.  After a node limit
    the best set found stands; otherwise the optimal set returned seeds
    ``search.lex_first`` under the pins.
    """
    prof = leaf_profile(g)
    supports = supports_mask(g)
    search = _Search(g, False, stats, cfg.node_limit)
    gamma = None
    if not certified or cfg.use_reductions:
        forbid = prof.leaves if g.n >= 3 else 0
        d0 = search.greedy_cover(forbid)
        try:
            # with the leaves out every support is forced in; pinning them
            # up front spares propagation one pass per support
            gamma, d0 = search.solve_best(supports if forbid else 0, forbid, d0)
        except _NodeLimit:
            d0 = search.best_mask
    if not certified:
        return search, gamma, d0, 0, gamma
    search.certified = True
    pins = supports if cfg.use_reductions else 0
    stats.forced_vertices += pins.bit_count()
    # leaves on strong supports are safe to leave out of any certified set
    inc_mask = g.full_mask & ~prof.strong_leaves
    if gamma is not None:
        if _certified(g, d0):
            return search, gamma, d0, pins, gamma  # optimal, as gamma_cer >= gamma
        # repair: bring in the one outside neighbour of each half-shadowed
        # vertex; the fixpoint is certified
        d1, add = d0, True
        while add:
            add = 0
            for s in _bits(d1):
                row = g.adj[s] & ~d1
                if row and not row & (row - 1):
                    add |= row
            d1 |= add
        inc_mask = min(inc_mask, d1, key=int.bit_count)
    try:
        value, inc_mask = search.solve_best(pins, 0, inc_mask)
    except _NodeLimit:
        value, inc_mask = None, search.best_mask
    return search, value, inc_mask, pins, gamma


def _combine_components(g: Graph, cfg: SolverConfig, certified: bool) -> SolveResult:
    stats = SolveStats()
    parts = components(g)
    if len(parts) > 1:
        stats.components_split = len(parts)
    # every value before any tie break, so that a node limit in one
    # component's certificate phase leaves no other value unproven
    valued = [_component(comp, cfg, stats, certified) for _, comp in parts]
    start = stats.nodes_expanded
    total = gamma = cert = 0
    proven = True
    for (vs, _), (search, value, mask, pins, part_gamma) in zip(parts, valued):
        ok = value is not None
        if not ok:
            value = mask.bit_count()
        else:
            try:
                mask = search.lex_first(value, pins, 0, mask)
            except _NodeLimit:  # the witness is optimal: only its tie break is open
                mask, ok = search.best_mask, False
        total += value
        if gamma is not None:
            gamma = None if part_gamma is None else gamma + part_gamma
        order = vs.to_list()
        for i in _bits(mask):
            cert |= 1 << order[i]
        proven = proven and ok
    stats.certificate_nodes = stats.nodes_expanded - start
    return SolveResult(total, VertexSet(g.n, cert), stats, proven, gamma)


def _checked(g: Graph, res: SolveResult, valid) -> SolveResult:
    # an explicit raise, not assert, so the check survives python -O
    if not valid(g, res.certificate.mask) or len(res.certificate) != res.value:
        raise AssertionError("the certificate fails its check; solver bug")
    return res


def gamma_cer_solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact certified domination number with a deterministic certificate."""
    cfg = cfg or SolverConfig()
    res = _combine_components(g, cfg, True)
    # A set of n-1 vertices is never certified: its lone outside vertex would
    # leave each of its dominators with exactly one outside neighbour.  Every
    # returned certificate is certified, so this holds even under node limits.
    if res.value == g.n - 1:
        raise AssertionError("certified value n-1 is impossible; solver bug")
    return _checked(g, res, _certified)


def gamma_solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact domination number with a deterministic certificate."""
    cfg = cfg or SolverConfig()
    return _checked(g, _combine_components(g, cfg, False), _dominates)


# ---------------------------------------------------------------------------
# Dominating / 2-dominating pairs
# ---------------------------------------------------------------------------

def find_dd2_pair(
    g: Graph,
    max_d_size: int | None = None,
    *,
    max_n: int = ORACLE_BOUND_DEFAULT,
) -> DD2Pair | None:
    """A disjoint (dominating, 2-dominating) pair, minimizing |D|.

    When the graph has minimum degree one or more and no weak supports, the
    pair is built directly: a minimum certified dominating set is a minimum
    dominating set all of whose members are illuminated, so its complement
    2-dominates.  Otherwise dominating sets are enumerated smallest first
    (refused above ``max_n``).  With ``max_d_size`` set, any pair with
    |D| <= max_d_size is returned, or None; a negative bound is rejected.
    """
    if max_d_size is not None and max_d_size < 0:
        raise ValueError(f"max_d_size must be non-negative, got {max_d_size}")
    n = g.n
    if n == 0:
        return DD2Pair(VertexSet(0, 0), VertexSet(0, 0))
    if min_degree(g) >= 1 and not leaf_profile(g).weak:
        res = gamma_cer_solve(g)
        pair = DD2Pair(res.certificate, res.certificate.complement())
        if _dominates(g, pair.d.mask) and is_2dominating(g, pair.d2):
            return None if max_d_size is not None and res.value > max_d_size else pair
    if n > max_n:
        raise SizeLimitError(
            f"exhaustive pair search refuses n={n} > bound {max_n}"
        )
    full = g.full_mask
    top = n if max_d_size is None else min(max_d_size, n)
    for k in range(top + 1):
        for mask in _dominating_masks(g, k):
            # The complement 2-dominates iff every chosen vertex keeps at
            # least two neighbours outside the dominating side.
            if all((g.adj[v] & ~mask).bit_count() >= 2 for v in _bits(mask)):
                return DD2Pair(VertexSet(n, mask), VertexSet(n, full & ~mask))
    return None
