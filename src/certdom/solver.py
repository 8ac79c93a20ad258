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

  Where the bound fails, the domination search drops dominated branch
  candidates, the subset rule of set cover (Fomin, Grandoni & Kratsch 2009;
  column dominance in Beasley 1987): a candidate whose share of the
  undominated vertices another candidate also covers gets no child and is
  pinned out in every child (the lower index kept on equal shares).  Every
  candidate dominates the branch vertex, so comparing candidates among
  themselves finds every such cover.  A completion that holds a dropped
  candidate trades it for its keeper, following the chain; the set is no
  larger, still dominates and lies in a kept child, so both the optimum and
  every first-hit query of the certificate phase survive.  The trade does
  not keep a set certified, so the certified search has no such rule.

  Both searches branch on the candidates by their share of U, the
  undominated vertices, largest first and the lower index on a tie (the
  greedy rule of set cover, Chvatal 1979), so small sets turn up sooner.
  Child i takes c_i and pins out c_1 .. c_(i-1), which splits the
  completions in any order, so no optimum, first-hit verdict or lex-smallest
  certificate depends on it; only a value-only solve's witness may move with
  it, still certified and optimal.

  Where the bound falls short of pruning by exactly one vertex, both
  searches reuse its two duals to pin out every vertex that no completion
  of fewer than ``need`` vertices holds (reduced-cost fixing; Beasley 1990).
  With the greedy count at need - 1, a vertex outside every packed vertex's
  allowed dominators dominates none of them, so taking it still leaves
  that many to add.  The fractional packing has total num / L, in units of
  1/L; taking v covers load_v of it, the sum of L / k_u over u in N[v] and
  U, and leaves at least (num - load_v) / L, rounded up, to add: need - 1
  or more when num - load_v > (need - 2) L.  A vertex covering t of U has
  load at least t times the least weight, so only those below the count at
  which that reaches the margin are summed.  Every set searched dominates,
  so the pins hold in every search; one that watches (below) also pins
  every allowed vertex that dominates none of U: the domination search has
  no use for those, the certified rules do.  The pins go to propagation
  and the bound runs again at the same node before it branches.  The
  argument covers every completion below need under the node's pins, at
  zero gap (every first-hit query of the certificate phase) as in the
  value search, so it composes with the dominated candidates, which are
  drawn after it: a keeper is a candidate, so trading a dropped candidate
  for it keeps a set clear of every fixed vertex.

  Otherwise the searches differ only in ``watch``, the mask of chosen
  vertices that propagation's certified rules check: every vertex in the
  certified search, none in the domination search, and the weak supports
  in ``equality_witness_search``, the paper's COR4.4 witness.  Their trade
  keeps no watched rule, so dominated candidates need an empty mask.  Only
  connected components are solved apart: a node whose undominated vertices
  fall into parts sharing no allowed dominator is not split (Akiba & Iwata
  2016): with the certificate phase's pins such nodes are rare, and looking
  for them costs more than splitting saves.

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
node, uncounted, so a stopped solve reads one node past its limit.  A
value-only certified solve (``gamma_cer_solve(..., lex_min=False)``, which
the ``analysis`` reports use) skips the certificate phase and returns each
component's optimal witness as it stands, certified but not lex-smallest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from heapq import heapify, heappop, heapreplace
from itertools import combinations
from math import lcm
from typing import Callable, Iterator

from .domination import DD2Pair, _certified, _dominates, is_2dominating
from .graphs import Graph, VertexSet, _bits, _mask_of, components, leaf_profile, min_degree

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
    dominated_pins: int = 0  # branch candidates dropped for one covering their share of U
    reduced_cost_pins: int = 0  # vertices pinned out by a bound one short of pruning

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SolverConfig:
    """Search controls.  Without a node limit every solve but a value-only
    one returns the lexicographically smallest certificate among the optima,
    compared as sorted vertex lists.  A solve that reaches ``node_limit``
    stops there and returns the best set found, marked unproven."""

    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Optimal value with one optimal certificate.

    ``proven`` is False only when a node limit truncated the search; the
    certificate is then still a valid set of size ``value`` but optimality
    (or the tie break) is unverified.  A value-only solve runs no tie break,
    so there ``proven`` means that the value is proven.

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


def _smallest(g: Graph, keep: Callable[[int], bool], top: int | None = None) -> Iterator[int]:
    """Masks of the dominating sets that pass ``keep``, in lexicographic order,
    at the least size up to ``top`` (default n) that has one.  Refuses graphs
    above ``ORACLE_BOUND_DEFAULT`` vertices."""
    if g.n > ORACLE_BOUND_DEFAULT:
        raise SizeLimitError(f"subset enumeration refuses n={g.n} > bound {ORACLE_BOUND_DEFAULT}")
    for k in range(g.n + 1 if top is None else min(top, g.n) + 1):
        found = False
        for mask in _dominating_masks(g, k):
            if keep(mask):
                found = True
                yield mask
        if found:
            return


def gamma_oracle(g: Graph) -> SolveResult:
    """Ground-truth domination number by subset enumeration."""
    d = VertexSet(g.n, next(_smallest(g, lambda mask: True)))
    return SolveResult(len(d), d)


def gamma_cer_oracle(g: Graph) -> SolveResult:
    """Ground-truth certified domination number by subset enumeration."""
    d = VertexSet(g.n, next(_smallest(g, lambda mask: _certified(g, mask))))
    return SolveResult(len(d), d)


def all_min_dominating_sets(g: Graph) -> list[VertexSet]:
    """Every minimum dominating set, in lexicographic order: the whole first
    size that has a dominating set."""
    return [VertexSet(g.n, mask) for mask in _smallest(g, lambda mask: True)]


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

class _NodeLimit(Exception):
    pass


class _Hit(Exception):
    """Stops a first-hit search at its first qualifying set."""


@cache
def _sweep_weights(top: int) -> tuple[int, ...]:
    """(L, L // 1, ..., L // top) for L = lcm(1, ..., top): the fractional
    bound's weights 1/t in units of 1/L, exact for every level up to top.
    Levels never pass the most closed neighbours, so few are ever built."""
    whole = lcm(*range(1, top + 1))
    return (whole, *(whole // t for t in range(1, top + 1)))


class _Search:
    """In/out decision search over one graph's vertices, on raw bitmasks.
    One search serves every phase of a component; the certified solve turns
    ``watch``, the chosen vertices whose certified rules ``_propagate``
    checks, from none to all after the value phase.  Nodes and prunes are
    counted on the solve's ``stats``, and the node past ``limit`` raises
    _NodeLimit.  Every search branches largest share of U first; with no
    ``watch``, ``_descend_best`` drops dominated candidates, and with one,
    ``_pack_bound``'s pins take vertices that dominate none of U too."""

    __slots__ = (
        "adj", "closed", "full", "watch", "stats", "limit",
        "best_val", "best_mask", "first_hit", "branch", "pins",
    )

    def __init__(self, g: Graph, watch: int, stats: SolveStats,
                 limit: int | None = None):
        self.adj = g.adj
        self.closed = tuple(g.adj[v] | 1 << v for v in range(g.n))
        self.full = g.full_mask
        self.watch = watch
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
        rule, chosen ones in ``watch`` for the certified rules.
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
        watch = self.watch
        if moved is None:
            plain = self.full ^ covered
            chosen = in_mask & watch
        else:
            near = self._cover(moved)
            plain = near & ~covered if moved & out_mask else 0
            chosen = near & in_mask & watch
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
                    if watch:
                        chosen |= row & in_mask & watch
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
                chosen |= row & in_mask & watch
            elif b_mask:
                in_mask |= b_mask
                row = closed[b_mask.bit_length() - 1]
                covered |= row
                chosen |= row & in_mask & watch

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
        leaves each at least two, so the first with two is that vertex.

        Below ``need``, ``pins`` is set to the allowed vertices that no
        completion of fewer than ``need`` vertices holds, by either dual
        (reduced-cost fixing; the module docstring says why), and to 0 when
        the bound falls short by more than one.  It may hold vertices
        already in; with no ``watch`` it holds only dominators of U."""
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
            if not cand & used:
                used |= cand
                count += 1
            dom |= cand
            if fewest > 2:
                c = cand.bit_count()
                if c < fewest:
                    fewest, self.branch = c, cand
        if count >= need:
            self.stats.packing_prunes += 1
            return count
        # a vertex of U first reached from the level t of dominators covering
        # t vertices of U, taken from the largest t down, has k_u = t
        holders = dom
        levels = [0]
        top = 0
        while dom:
            v = dom.bit_length() - 1
            dom ^= 1 << v
            row = closed[v] & undom
            t = row.bit_count()
            if t > top:
                levels += [0] * (t - top)
                top = t
            levels[t] |= row
        weights = _sweep_weights(top)
        whole = weights[0]
        num = 0
        rest = undom
        parts = []
        for t in range(top, 0, -1):
            row = levels[t] & rest
            if row:
                rest ^= row
                num += row.bit_count() * weights[t]
                parts.append((row, weights[t]))
                if not rest:
                    break
        frac = -(-num // whole)
        if frac >= need:
            self.stats.fractional_prunes += 1
            return frac
        # taking v leaves the packed vertices outside N[v] to dominate, at
        # least count of them when v is outside used, and weight num - load_v
        # to cover, at least ceil((num - load_v) / whole) vertices more
        pins = 0
        if count == need - 1:
            pins = (allowed if self.watch else holders) & ~used
        thr = num - (need - 2) * whole
        if thr > 0:
            if self.watch:
                pins |= allowed & ~holders
            parts.reverse()  # heaviest weights first, to pass thr soonest
            # a holder covering t of U has load at least t * weights[top]
            fits = -(-thr // weights[top])
            m = holders & ~pins
            while m:
                low = m & -m
                m ^= low
                row = closed[low.bit_length() - 1] & undom
                if row.bit_count() >= fits:
                    continue
                load = 0
                for part, w in parts:
                    if row & part:
                        load += (row & part).bit_count() * w
                        if load >= thr:
                            break
                else:
                    pins |= low
        self.pins = pins
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
        """Branch on the allowed dominators of one undominated vertex, the
        largest share of U first (the lower index on a tie), less the
        dominated ones when nothing is watched, improving
        ``best_val``/``best_mask`` (raising _Hit on the first improvement in
        first-hit mode); ``moved`` is passed to _propagate."""
        stats = self.stats
        stats.nodes_expanded += 1
        if self.limit is not None and stats.nodes_expanded > self.limit:
            # the node past the limit counts once, however many searches
            # of the solve try to go on
            stats.nodes_expanded = self.limit + 1
            raise _NodeLimit
        state = self._propagate(in_mask, out_mask, covered, moved)
        while True:
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
            pins = self.pins & ~in_mask
            if not pins:
                break
            stats.reduced_cost_pins += pins.bit_count()
            state = self._propagate(in_mask, out_mask | pins, covered, pins)
        closed = self.closed
        undom = self.full ^ covered
        rows = []
        m = self.branch
        while m:
            low = m & -m
            m ^= low
            row = closed[low.bit_length() - 1] & undom
            rows.append((-row.bit_count(), low, row))
        rows.sort()  # largest share of U first, the lower index on a tie
        excl = 0
        if not self.watch:
            # drop each candidate whose share of U another one covers, the
            # lower index kept on a tie; the module docstring says why
            for _, v, rv in rows:
                for _, w, rw in rows:
                    if w != v and not rv & ~rw and (rv != rw or w < v):
                        excl |= v
                        break
            if excl:
                stats.dominated_pins += excl.bit_count()
        for _, low, _ in rows:
            if not low & excl:
                self._descend_best(in_mask | low, out_mask | excl,
                                   covered | closed[low.bit_length() - 1], low | excl)
                excl |= low

    # -- phase 2: lexicographically smallest optimum -------------------------

    def _any_within(self, size: int, in_mask: int, out_mask: int, covered: int,
                    moved: int | None) -> bool:
        """First-hit search for a set of at most ``size`` within the pins, a
        fixpoint plus ``moved`` (None: pins of unknown origin)."""
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
    the optimum under them into the smallest certified superset, and takes
    that as the incumbent.  A stopped value phase's best set can close to
    far more than the greedy cover does, so then the incumbent is the
    smaller of the two closures, the best set's on a tie.  After a node
    limit the best set found stands; otherwise the optimal set returned
    seeds ``search.lex_first`` under the pins.
    """
    prof = leaf_profile(g)
    search = _Search(g, 0, stats, cfg.node_limit)
    forbid = prof.leaves if g.n >= 3 else 0
    greedy = search.greedy_cover(forbid)
    gamma = None
    try:
        gamma, d0 = search.solve_best(0, forbid, greedy)
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
    search.watch = search.full
    pins = prof.weak | prof.strong
    stats.forced_vertices += pins.bit_count()
    # with nothing out, the certified rules only bring in the lone outside
    # neighbour of a member; every certified superset of d0 holds what they
    # add, so the fixpoint is the smallest one
    inc_mask = search._propagate(d0, 0, search._cover(d0))[0]
    if gamma is None:
        alt = search._propagate(greedy, 0, search._cover(greedy))[0]
        if alt.bit_count() < inc_mask.bit_count():
            inc_mask = alt
    if gamma is not None and inc_mask == d0:
        return search, gamma, d0, (pins, 0), gamma  # optimal, as gamma_cer >= gamma
    try:
        value, inc_mask = search.solve_best(pins, 0, inc_mask)
    except _NodeLimit:
        value, inc_mask = None, search.best_mask
    return search, value, inc_mask, (pins, 0), gamma


def _combine_components(g: Graph, cfg: SolverConfig, certified: bool,
                        lex_min: bool) -> SolveResult:
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
        elif lex_min:
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


def gamma_cer_solve(g: Graph, cfg: SolverConfig | None = None, *,
                    lex_min: bool = True) -> SolveResult:
    """Exact certified domination number with a deterministic certificate.

    With ``lex_min=False`` the certificate phase is skipped: the certificate
    is the optimal set the value search ended with, certified but not
    necessarily the lex-smallest, ``certificate_nodes`` stays 0 and
    ``proven`` means that the value is proven.  The ``analysis`` reports,
    which read only ``value`` and ``gamma``, solve this way."""
    cfg = cfg or SolverConfig()
    res = _combine_components(g, cfg, True, lex_min)
    # A set of n-1 vertices is never certified: its lone outside vertex would
    # leave each of its dominators with exactly one outside neighbour.  Every
    # returned certificate is certified, so this holds even under node limits.
    if res.value == g.n - 1:
        raise AssertionError("certified value n-1 is impossible; solver bug")
    return _checked(g, res, _certified)


def gamma_solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact domination number with a deterministic certificate."""
    cfg = cfg or SolverConfig()
    return _checked(g, _combine_components(g, cfg, False, True), _dominates)


def addition_dominates_within(g: Graph, size: int) -> Callable[[int, int], bool]:
    """A predicate on the non-edges uv of g: True iff G + uv has a dominating
    set of at most ``size`` vertices holding exactly one of u and v.

    Fix an orientation, a in and b out.  G + ab differs from g in rows a
    and b only: row a gains b, whom a then dominates, and row b is never
    read, since b is out.  So S dominates G + ab exactly when it holds a,
    avoids b and dominates V - b in g.  One first-hit search per vertex b,
    b pinned out and counted as covered, asks for such an S whatever a is;
    it runs once, when b's first orientation is asked, and its verdict is
    kept.  Refuted, it settles every orientation (., b) false.  When it
    hits, its set S settles (a, b) true for every a in S.  Only the other
    orientations run a pair search with a pinned in too.  Both searches are
    exact, with no node limit, and no step assumes that ``size`` lies below
    gamma(g), so the predicate is exact at every size.  All of them share
    one search."""
    search = _Search(g, 0, SolveStats())
    closed = search.closed
    found: dict[int, int | None] = {}  # b -> S, or None when refuted

    def one_in(a: int, b: int) -> bool:
        if b not in found:
            hit = search._any_within(size, 0, 1 << b, 1 << b, None)
            found[b] = search.best_mask if hit else None
        s = found[b]
        if s is None:
            return False
        return bool(s >> a & 1) or search._any_within(
            size, 1 << a, 1 << b, closed[a] | 1 << b, None)

    return lambda u, v: one_in(u, v) or one_in(v, u)


def equality_witness_search(g: Graph, gamma: int) -> int | None:
    """``domination.equality_witness`` over the gamma-sets, at any order: the
    lex-smallest leaf-free one leaving every weak support a non-leaf
    neighbour outside, as a mask, or None.  With the leaves pinned out each
    weak support is in and its leaf out, so that is the certified rule
    watching the weak supports: a first-hit search, then ``lex_first``."""
    prof = leaf_profile(g)
    search = _Search(g, prof.weak, SolveStats())
    if not search._any_within(gamma, 0, prof.leaves, 0, None):
        return None
    return search.lex_first(gamma, 0, prof.leaves, search.best_mask)


# ---------------------------------------------------------------------------
# Dominating / 2-dominating pairs
# ---------------------------------------------------------------------------

def find_dd2_pair(g: Graph, max_d_size: int | None = None) -> DD2Pair | None:
    """A disjoint (dominating, 2-dominating) pair, minimizing |D|.

    An isolated vertex rules every pair out: D must hold it, and it has
    no neighbour in D2.  When the graph has minimum degree one or more and
    no weak supports, the pair is built directly: a minimum certified
    dominating set is a minimum dominating set all of whose members are
    illuminated, so its complement 2-dominates.  Otherwise dominating sets
    are enumerated smallest first (refused above ``ORACLE_BOUND_DEFAULT``
    vertices).  With ``max_d_size`` set, any pair with |D| <= max_d_size is
    returned, or None; a negative bound is rejected.
    """
    if max_d_size is not None and max_d_size < 0:
        raise ValueError(f"max_d_size must be non-negative, got {max_d_size}")
    if g.n == 0:
        return DD2Pair(VertexSet(0, 0), VertexSet(0, 0))
    if min_degree(g) == 0:
        return None
    if not leaf_profile(g).weak:
        res = gamma_cer_solve(g)
        pair = DD2Pair(res.certificate, res.certificate.complement())
        # gamma_cer_solve has checked that D dominates
        if is_2dominating(g, pair.d2):
            return None if max_d_size is not None and res.value > max_d_size else pair
    # The complement 2-dominates iff every chosen vertex keeps at least two
    # neighbours outside the dominating side; the first such set is minimum.
    for mask in _smallest(
            g, lambda m: all((g.adj[v] & ~m).bit_count() >= 2 for v in _bits(m)), max_d_size):
        return DD2Pair(VertexSet(g.n, mask), VertexSet(g.n, g.full_mask & ~mask))
    return None
