"""Exact solvers for the domination and certified domination numbers.

Two independent routes are provided:

* ``gamma_oracle`` / ``gamma_cer_oracle`` return the first dominating (for
  the latter, certified) subset by cardinality then lexicographic order, and
  ``all_min_dominating_sets`` every dominating subset of the first size that
  has one.  All three read one subset walk, share no code with the search
  below, leave ``SolveStats`` at zero and refuse graphs above a size bound.
  They are the ground truth for everything else.

* ``gamma_solve`` / ``gamma_cer_solve`` run a reduction-aware branch and
  bound per connected component, branching on the closed neighbourhood of an
  undominated vertex.  It prunes with the larger of two lower bounds, both
  feasible solutions of the dual of the domination LP: a greedy packing of
  undominated vertices with disjoint allowed dominators, and a fractional
  packing that weighs each undominated vertex by one over the most
  undominated vertices any of its allowed dominators covers (van Rooij &
  Bodlaender 2011).  Every certified set dominates, so both bound the
  certified search too.  Both share one leaf-free value phase, which proves
  the domination number with the leaves pinned out (a support stands in for
  its leaf, and propagation forces it in).  The certified solve runs it
  first and closes the result under the certified rules into an incumbent,
  so one certified solve returns both numbers.  It then pre-pins support
  vertices (certified sets must contain every support, which propagation
  cannot derive) and detects infeasible certification early: a chosen
  vertex whose unresolved neighbourhood can no longer avoid "exactly one
  neighbour outside" kills the branch, and near-misses force its last
  undecided neighbour in or out.  Forced moves run from one worklist that a
  decision seeds with its closed neighbourhood, so a node re-checks only the
  undominated and chosen vertices next to what moved, not the whole graph,
  as watched literals do in SAT solvers (Moskewicz et al. 2001).  No value
  is read from the closed forms of ``structure`` or bounded by the paper's
  upper bounds; both are checked against this search.

  The domination search (every phase but the certified ones) splits a node
  whose undominated vertices fall into parts that share no allowed
  dominator: each part is solved on its own, and the fewest vertices of the
  node's completion is the sum over the parts (Akiba & Iwata 2016).  A memo
  keyed by the part and its allowed dominators carries part results across
  nodes, queries and phases.  The certified rules couple a chosen vertex's
  neighbours across parts, so the certified search does not split.

Certificates are deterministic: among all optimal sets the lexicographically
smallest (by sorted vertex list) is returned, found by self-reduction.  Each
vertex in ascending order is kept when an optimal witness (at first the value
phase's optimum) holds it or a first-hit run of the same branch and bound
finds one that does, and is pinned out otherwise.  The domination
certificate phase pins out what the lex-smallest optimum cannot hold: the
leaves of strong supports, which no minimum dominating set holds (this
forces the strong supports in), and every vertex u with a neighbour w < u
whose closed neighbourhood holds N[u], since trading u for w keeps the set
dominating and wins the tie break (neighbourhood dominance, Alber, Fellows
& Niedermeier 2004, restricted by index).  The exchange does not keep a set
certified, so the certified phase has no such pin.  Every component's
value is settled before any certificate phase starts, so after a node limit
there the values stand and the witnesses are returned, unproven only in their
tie break.  Once the limit has fired every later search stops at its first
node, uncounted, so a stopped solve reads one node past its limit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import combinations
from math import lcm
from typing import Iterator

from .domination import DD2Pair, _certified, _dominates, is_2dominating
from .graphs import (
    Graph, VertexSet, _bits, _mask_of, components, leaf_profile, min_degree, supports_mask,
)

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
    parts_split: int = 0  # nodes whose undominated vertices fell into independent parts

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SolverConfig:
    """Search controls.  Without a node limit every solve returns the
    lexicographically smallest certificate among the optima, compared as
    sorted vertex lists.  A solve that reaches ``node_limit`` stops there and
    returns the best set found, marked unproven."""

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
    either solve.  It is None only when a node limit stopped that phase.
    """

    value: int
    certificate: VertexSet
    stats: SolveStats = field(default_factory=SolveStats)
    proven: bool = True
    gamma: int | None = None


# ---------------------------------------------------------------------------
# Subset-enumeration oracles
# ---------------------------------------------------------------------------

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


def _oracle(g: Graph, certified: bool) -> SolveResult:
    if g.n > ORACLE_BOUND_DEFAULT:
        raise SizeLimitError(f"oracle refuses n={g.n} > bound {ORACLE_BOUND_DEFAULT}")
    for k in range(g.n + 1):
        for mask in _dominating_masks(g, k):
            if not certified or _certified(g, mask):
                return SolveResult(k, VertexSet(g.n, mask))
    raise AssertionError("unreachable: the full vertex set always qualifies")


def gamma_oracle(g: Graph) -> SolveResult:
    """Ground-truth domination number by subset enumeration."""
    return _oracle(g, certified=False)


def gamma_cer_oracle(g: Graph) -> SolveResult:
    """Ground-truth certified domination number by subset enumeration."""
    return _oracle(g, certified=True)


def all_min_dominating_sets(g: Graph, *, gamma: int | None = None) -> list[VertexSet]:
    """Every minimum dominating set, in lexicographic order: the whole first
    size that has a dominating set, or only size ``gamma`` when it is known."""
    if g.n > ORACLE_BOUND_DEFAULT:
        raise SizeLimitError(f"enumeration refuses n={g.n} > bound {ORACLE_BOUND_DEFAULT}")
    sets: list[VertexSet] = []
    for k in range(g.n + 1) if gamma is None else (gamma,):
        sets = [VertexSet(g.n, mask) for mask in _dominating_masks(g, k)]
        if sets:
            break
    return sets


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
    the solve's ``stats``, and the node past ``limit`` raises _NodeLimit.

    ``memo`` holds the results of the parts the plain search splits off:
    (part, its allowed dominators) -> (fewest dominators of the part, the
    set), or (a lower bound on that number, None) after a capped search
    found none.  The key fixes the sub-problem, so an entry holds across
    pins, first-hit queries and phases."""

    __slots__ = (
        "adj", "closed", "full", "certified", "stats", "limit",
        "best_val", "best_mask", "first_hit", "branch", "starts", "memo",
    )

    def __init__(self, g: Graph, certified: bool, stats: SolveStats,
                 limit: int | None = None):
        self.adj = g.adj
        self.closed = tuple(g.adj[v] | 1 << v for v in range(g.n))
        self.full = g.full_mask
        self.certified = certified
        self.stats = stats
        self.limit = limit
        self.memo: dict[tuple[int, int], tuple[int, int | None]] = {}

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

    def _propagate(self, in_mask: int, out_mask: int, covered: int,
                   moved: int | None = None):
        """Fixpoint of forced moves; None on a proven dead end.

        ``covered`` is the union of N[v] over v in ``in_mask``, kept up to
        date as vertices are forced in.  Rules: an undominated vertex with no
        allowed dominator kills the branch, with a single allowed dominator
        forces it in; a chosen vertex with exactly one decided-out neighbour
        and no undecided ones is stuck half-shadowed (dead), with one
        undecided neighbour left that neighbour is forced out (one
        decided-out) or in (none decided-out).

        One worklist drives both: undominated vertices wait for the plain
        rule, chosen ones (certified search only) for the certified rules.
        A move in re-queues the vertex and its chosen neighbours, a move out
        its chosen neighbours and its undominated closed neighbours; nothing
        else can change a verdict.  Each rule is a unit rule on one
        constraint, so the fixpoint and the dead-end verdict do not depend on
        the order of the checks.  ``moved`` names the vertices decided since
        the last fixpoint: the state must be that fixpoint plus ``moved``,
        and only N[moved] is queued.  None queues every undominated and
        every chosen vertex, for a state of unknown origin.  Returns
        (in_mask, out_mask, covered).
        """
        adj = self.adj
        closed = self.closed
        certified = self.certified
        if moved is None:
            plain = self.full ^ covered
            chosen = in_mask if certified else 0
        else:
            near = self._cover(moved)
            plain = near & ~covered if moved & out_mask else 0
            chosen = near & in_mask if certified else 0
        while True:
            while plain:
                low = plain & -plain
                plain ^= low
                cand = closed[low.bit_length() - 1] & ~out_mask
                if cand == 0:
                    self.stats.dead_ends += 1
                    return None
                if not cand & (cand - 1):
                    in_mask |= cand
                    row = closed[cand.bit_length() - 1]
                    covered |= row
                    plain &= ~row
                    if certified:
                        chosen |= row & in_mask
            if not chosen:
                return in_mask, out_mask, covered
            low = chosen & -chosen
            chosen ^= low
            row = adj[low.bit_length() - 1]
            a_mask = row & out_mask
            if a_mask & (a_mask - 1):
                continue
            b_mask = row & ~in_mask ^ a_mask
            if b_mask & (b_mask - 1):
                continue
            if a_mask:
                if not b_mask:
                    self.stats.dead_ends += 1
                    return None
                out_mask |= b_mask
                row = closed[b_mask.bit_length() - 1]
                plain = row & ~covered
                chosen |= row & in_mask
            elif b_mask:
                in_mask |= b_mask
                row = closed[b_mask.bit_length() - 1]
                covered |= row
                chosen |= row & in_mask

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
        leaves each at least two, so the first with two is that vertex.  It
        sets ``starts`` to the vertices of U after the first that share no
        allowed dominator with any vertex of U before them (see _parts)."""
        closed = self.closed
        allowed = self.full ^ out_mask
        undom = self.full ^ covered
        used = dom = count = 0
        fewest = len(closed) + 1
        starts = 0
        m = undom
        while m:
            low = m & -m
            m ^= low
            cand = closed[low.bit_length() - 1] & allowed
            if not cand & used:
                # dom holds used, so only a packed vertex can miss dom
                if count and not cand & dom:
                    starts |= low
                used |= cand
                count += 1
            dom |= cand
            if fewest > 2:
                c = cand.bit_count()
                if c < fewest:
                    fewest, self.branch = c, cand
        self.starts = starts
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

    def _descend_best(self, in_mask: int, out_mask: int, covered: int,
                      moved: int | None = None) -> None:
        """Branch on the allowed dominators of one undominated vertex,
        improving ``best_val``/``best_mask`` (raising _Hit on the first
        improvement in first-hit mode).  In the plain search, a node whose
        undominated vertices fall into independent parts solves each part on
        its own instead (``_split``).  ``moved`` is passed to _propagate."""
        stats = self.stats
        stats.nodes_expanded += 1
        if self.limit is not None and stats.nodes_expanded > self.limit:
            # the node past the limit counts once, however many searches
            # of the solve try to go on
            stats.nodes_expanded = self.limit + 1
            raise _NodeLimit
        state = self._propagate(in_mask, out_mask, covered, moved)
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
        if self.starts and not self.certified:
            parts = self._parts(self.full ^ covered, self.full ^ out_mask, self.starts)
            if parts:
                stats.parts_split += 1
                self._split(parts, in_mask, out_mask, covered, need - 1)
                return
        closed = self.closed
        cand = self.branch
        excl = 0
        while cand:
            low = cand & -cand
            cand ^= low
            self._descend_best(in_mask | low, out_mask | excl,
                               covered | closed[low.bit_length() - 1], low | excl)
            excl |= low

    def _parts(self, undom: int, allowed: int, starts: int) -> list[tuple[int, int]] | None:
        """The parts of ``undom``, two of its vertices linked when they share
        an allowed dominator, lowest vertex first; each with its allowed
        dominators, which dominate nothing undominated outside it.  None
        when ``undom`` is one part: every vertex but the lowest and the
        ``starts`` shares a dominator with a lower one, so that holds as soon
        as the lowest vertex's part reaches every start."""
        parts = []
        while undom:
            part = grow = undom & -undom
            doms = 0
            while grow:
                new = self._cover(grow) & allowed & ~doms
                doms |= new
                grow = self._cover(new) & undom & ~part
                part |= grow
                if not parts and not starts & ~part:
                    return None
            parts.append((part, doms))
            undom ^= part
        return parts

    def _split(self, parts: list[tuple[int, int]], in_mask: int, out_mask: int,
               covered: int, room: int) -> None:
        """Complete the node from its independent parts: the fewest
        vertices of each, within the ``room`` an improvement may add, one
        vertex kept for each part still to come.  Stops at the first part
        that does not fit; otherwise the union is the best completion.  Each
        cap is at least 1, as the node's packing bound, which takes the first
        vertex of every part, is at most ``room``."""
        undom = self.full ^ covered
        chosen = 0
        left = len(parts)
        for part, doms in parts:
            left -= 1
            found = self._solve_part(part, doms, in_mask, out_mask,
                                     covered | (undom ^ part), room - left)
            if found is None:
                return
            room -= found.bit_count()
            chosen |= found
        self.best_mask = in_mask | chosen
        self.best_val = self.best_mask.bit_count()
        if self.first_hit:
            raise _Hit

    def _solve_part(self, part: int, doms: int, in_mask: int, out_mask: int,
                    covered: int, cap: int) -> int | None:
        """Fewest allowed dominators covering ``part`` if at most ``cap``,
        else None: a best-value sub-search under the same pins, the other
        parts marked covered.  The caller's search state is restored, also
        after a node limit, and a result is memoized only when the
        sub-search ran to its end.  The state is the caller's fixpoint:
        marking the other parts covered forces nothing."""
        key = (part, doms)
        known = self.memo.get(key)
        if known is not None:
            low, mask = known
            if mask is not None or low > cap:
                return mask if low <= cap else None
        size = in_mask.bit_count()
        saved = self.best_val, self.best_mask, self.first_hit
        self.best_val, self.best_mask, self.first_hit = size + cap + 1, 0, False
        try:
            self._descend_best(in_mask, out_mask, covered, 0)
            found = self.best_mask & ~in_mask if self.best_val <= size + cap else None
        finally:
            self.best_val, self.best_mask, self.first_hit = saved
        self.memo[key] = (cap + 1, None) if found is None else (found.bit_count(), found)
        return found

    # -- phase 2: lexicographically smallest optimum -------------------------

    def _any_within(self, size: int, in_mask: int, out_mask: int, covered: int,
                    moved: int) -> bool:
        """First-hit search for a set of at most ``size`` within the pins, a
        fixpoint plus ``moved``."""
        self.best_val = size + 1
        self.first_hit = True
        try:
            self._descend_best(in_mask, out_mask, covered, moved)
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
        low = None  # the first pass propagates from scratch, later ones from the last pin
        while True:
            state = self._propagate(in_mask, out_mask, covered, low)
            if state is None:
                raise AssertionError("no certificate at the proven optimum; solver bug")
            in_mask, out_mask, covered = state
            undec = self.full & ~in_mask & ~out_mask
            if not undec & ~self.best_mask or in_mask.bit_count() == size:
                return in_mask | undec & self.best_mask
            low = undec & -undec
            with_low = covered | self.closed[low.bit_length() - 1]
            if low & self.best_mask or self._any_within(size, in_mask | low, out_mask, with_low, low):
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


def _lower_covers(closed: tuple[int, ...]) -> dict[int, int]:
    """u -> rep(u), the lowest w with N[u] inside N[w], for each u that has
    such a w below it; one check per edge, as w is a neighbour of u.  No
    rep(u) has one itself: a w' below it with N[w] inside N[w'] would cover
    N[u] too.  The lex-smallest gamma-set D holds no such u: with w in D,
    D - u still dominates; without, D - u + w is a gamma-set that wins the
    tie break at w."""
    rep = {}
    for u, row in enumerate(closed):
        lower = row & ((1 << u) - 1)
        while lower:
            low = lower & -lower
            lower ^= low
            w = low.bit_length() - 1
            if not row & ~closed[w]:
                rep[u] = w
                break
    return rep


def _component(
    g: Graph, cfg: SolverConfig, stats: SolveStats, certified: bool
) -> tuple[_Search, int | None, int, tuple[int, int], int | None]:
    """(search, value, best set, (in pins, out pins), gamma) for one
    connected component; the value is None when a node limit cut its search.

    The value phase, the same in both modes, proves gamma with the leaves
    pinned out, harmless for n >= 3 as a support stands in for its leaf;
    propagation forces the supports in.  In gamma mode its optimum is the
    value, and the certificate phase pins out the leaves of strong supports,
    which forces those supports in (every gamma-set holds them, as two
    leaves could trade for their support and a leaf beside its support is
    redundant), and every vertex of ``_lower_covers``, which the
    lex-smallest gamma-set never holds.  The optimum seeds lex_first with
    each such vertex traded for its rep.  The greedy incumbent and the value
    phase's branches take w before u, and only a strictly smaller set
    replaces the incumbent, so their optimum leaves nothing to trade; the
    trade keeps the witness within the pins whatever the incumbent.
    Certified mode switches the same search to the certified rules, closes
    the optimum, or the best set of a stopped value phase, under them into
    the smallest certified superset, and takes that as the incumbent.  After
    a node limit the best set found stands; otherwise the optimal set
    returned seeds ``search.lex_first`` under the pins.
    """
    prof = leaf_profile(g)
    search = _Search(g, False, stats, cfg.node_limit)
    forbid = prof.leaves if g.n >= 3 else 0
    d0 = search.greedy_cover(forbid)
    gamma = None
    try:
        gamma, d0 = search.solve_best(0, forbid, d0)
    except _NodeLimit:
        d0 = search.best_mask
    if not certified:
        rep = _lower_covers(search.closed)
        lex_out = _mask_of(rep)
        if gamma is not None and d0 & lex_out:
            # an optimum stays one when each pinned u trades for rep(u)
            moved = d0 & lex_out
            d0 = d0 & ~moved | _mask_of(rep[u] for u in _bits(moved))
            if d0.bit_count() != gamma:
                raise AssertionError("the witness shrank under the lex pins; solver bug")
        return search, gamma, d0, (0, prof.strong_leaves | lex_out), gamma
    search.certified = True
    pins = supports_mask(g)
    stats.forced_vertices += pins.bit_count()
    # with nothing out, the certified rules only bring in the lone outside
    # neighbour of a member; every certified superset of d0 holds what they
    # add, so the fixpoint is the smallest one
    inc_mask = search._propagate(d0, 0, search._cover(d0))[0]
    if gamma is not None and inc_mask == d0:
        return search, gamma, d0, (pins, 0), gamma  # optimal, as gamma_cer >= gamma
    try:
        value, inc_mask = search.solve_best(pins, 0, inc_mask)
    except _NodeLimit:
        value, inc_mask = None, search.best_mask
    return search, value, inc_mask, (pins, 0), gamma


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
                mask = search.lex_first(value, *pins, mask)
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

def find_dd2_pair(g: Graph, max_d_size: int | None = None) -> DD2Pair | None:
    """A disjoint (dominating, 2-dominating) pair, minimizing |D|.

    When the graph has minimum degree one or more and no weak supports, the
    pair is built directly: a minimum certified dominating set is a minimum
    dominating set all of whose members are illuminated, so its complement
    2-dominates.  Otherwise dominating sets are enumerated smallest first
    (refused above ``ORACLE_BOUND_DEFAULT`` vertices).  With ``max_d_size``
    set, any pair with |D| <= max_d_size is returned, or None; a negative
    bound is rejected.
    """
    if max_d_size is not None and max_d_size < 0:
        raise ValueError(f"max_d_size must be non-negative, got {max_d_size}")
    n = g.n
    if n == 0:
        return DD2Pair(VertexSet(0, 0), VertexSet(0, 0))
    if min_degree(g) >= 1 and not leaf_profile(g).weak:
        res = gamma_cer_solve(g)
        pair = DD2Pair(res.certificate, res.certificate.complement())
        # gamma_cer_solve has checked that D dominates
        if is_2dominating(g, pair.d2):
            return None if max_d_size is not None and res.value > max_d_size else pair
    if n > ORACLE_BOUND_DEFAULT:
        raise SizeLimitError(
            f"exhaustive pair search refuses n={n} > bound {ORACLE_BOUND_DEFAULT}"
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
