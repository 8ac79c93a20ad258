"""Executable claim suite over exhaustively enumerated small graphs.

Every claim with a closed logical form is registered here under a stable id
and checked per graph: closed-form value tables, the support/forcing facts,
all general upper bounds, the equality and extremal-value characterizations,
edge/vertex modification monotonicity, complement-pair inequalities, and the
dominating/2-dominating pair construction.  ``run_suite`` streams one report
per graph (internal labeled enumeration or an external graph6 file) and
aborts on the first failing claim; the summary is deterministic and
independent of the worker count.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from .domination import (
    DD2Pair, VertexStatus, _certified, classify_vertex, equality_witness,
    is_dd2_pair,
)
from .graphs import (
    Graph,
    VertexSet,
    _bits,
    complement,
    components,
    encode_graph6,
    is_connected,
    leaf_profile,
    min_degree,
    parse_graph6_lines,
)
from .solver import (
    all_min_dominating_sets,
    find_dd2_pair,
    gamma_cer_solve,
)
from .structure import (
    complete_bipartite_sides,
    check_gamma_cer_equals_n,
    check_gamma_cer_equals_n_minus_2,
    find_universal_vertex,
    gamma_cer_complete,
    gamma_cer_complete_bipartite,
    gamma_cer_cycle,
    gamma_cer_path,
    gamma_cer_wheel,
    is_complete,
    is_cycle,
    is_path,
    recognize_corona,
    recognize_diadem,
    wheel_hub,
)

ENUMERATION_CAP = 7

# each SolveCache store is dropped whole when it reaches this many entries
CACHE_MAX_ENTRIES = 400_000


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs in lexicographic edge-mask order.

    Bit k of the mask is the k-th vertex pair in lexicographic (i, j) order.
    Refuses n above ``ENUMERATION_CAP``.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to enumerate n={n} > {ENUMERATION_CAP} labeled graphs"
        )
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        while m:
            low = m & -m
            m ^= low
            u, v = pairs[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        yield Graph._derived(n, rows)


class SolveCache:
    """Memoized solver values keyed by the labeled adjacency.

    Shared by all claims in a run, so a graph is solved once however many
    claims read it.  The edge/vertex-addition sweeps test the cached base
    certificate on each modified graph first and ask the cache only where
    it fails.  Solves use the default ``SolverConfig``;
    ``CACHE_MAX_ENTRIES`` caps memory.  One certified solve fills the entry
    for ``gamma_cer``, ``gamma_cer_cert`` and ``gamma`` alike.  Unlike the
    ``analysis`` reports it keeps the lex-smallest certificate phase, as
    LEM6.1 reads the certificate through ``gamma_cer_cert``.  The complement
    of the last graph asked for is kept too, so the complement-pair claims
    of one graph share one copy and its ``components`` and ``leaf_profile``
    memos.
    """

    def __init__(self):
        self._cer: dict = {}
        self._mds: dict = {}
        self._co: tuple = (None, None)

    @staticmethod
    def _room(store: dict) -> None:
        if len(store) >= CACHE_MAX_ENTRIES:
            store.clear()

    def gamma_cer(self, g: Graph) -> int:
        return self._cer_entry(g)[0]

    def gamma_cer_cert(self, g: Graph) -> VertexSet:
        return VertexSet(g.n, self._cer_entry(g)[1])

    def gamma(self, g: Graph) -> int:
        return self._cer_entry(g)[2]

    def _cer_entry(self, g: Graph) -> tuple[int, int, int]:
        key = (g.n, g.adj)
        got = self._cer.get(key)
        if got is None:
            res = gamma_cer_solve(g)
            got = (res.value, res.certificate.mask, res.gamma)
            self._room(self._cer)
            self._cer[key] = got
        return got

    def complement(self, g: Graph) -> Graph:
        key = (g.n, g.adj)
        if self._co[0] != key:
            self._co = (key, complement(g))
        return self._co[1]

    def min_dom_masks(self, g: Graph) -> tuple[int, ...]:
        key = (g.n, g.adj)
        got = self._mds.get(key)
        if got is None:
            got = tuple(d.mask for d in all_min_dominating_sets(g))
            self._room(self._mds)
            self._mds[key] = got
        return got


@dataclass(frozen=True)
class ClaimOutcome:
    claim_id: str
    applicable: bool
    holds: Optional[bool]
    witness: Optional[dict] = None

    def to_json_obj(self) -> dict:
        obj: dict = {"claim": self.claim_id, "applicable": self.applicable}
        if self.applicable:
            obj["holds"] = self.holds
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


_CheckFn = Callable[[Graph, SolveCache], tuple[bool, Optional[bool], Optional[dict]]]
_REGISTRY: dict[str, tuple[str, _CheckFn]] = {}

_NA = (False, None, None)
_OK = (True, True, None)


def _claim(cid: str, description: str):
    def register(fn: _CheckFn) -> _CheckFn:
        _REGISTRY[cid] = (description, fn)
        return fn

    return register


def claim_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def claim_description(cid: str) -> str:
    return _REGISTRY[cid][0]


def _fail(**witness) -> tuple[bool, bool, dict]:
    return True, False, witness


def _check(cond: bool, **witness) -> tuple[bool, Optional[bool], Optional[dict]]:
    return _OK if cond else _fail(**witness)


# ---------------------------------------------------------------------------
# Closed-form value claims
# ---------------------------------------------------------------------------

def _value_is(g, cache, want, **extra):
    got = cache.gamma_cer(g)
    return _check(got == want, expected=want, got=got, **extra)


@_claim("OBS2.1", "path value table")
def _c_path(g, cache):
    return _value_is(g, cache, gamma_cer_path(g.n)) if is_path(g) else _NA


@_claim("OBS2.2", "cycle value ceil(n/3)")
def _c_cycle(g, cache):
    return _value_is(g, cache, gamma_cer_cycle(g.n)) if is_cycle(g) else _NA


@_claim("OBS2.3", "complete-graph value table")
def _c_complete(g, cache):
    return _value_is(g, cache, gamma_cer_complete(g.n)) if is_complete(g) else _NA


@_claim("OBS2.4", "complete-bipartite value table")
def _c_bipartite(g, cache):
    sides = complete_bipartite_sides(g)
    if sides is None:
        return _NA
    return _value_is(g, cache, gamma_cer_complete_bipartite(*sides), sides=list(sides))


@_claim("OBS2.5", "wheel value 1")
def _c_wheel(g, cache):
    return _value_is(g, cache, gamma_cer_wheel(g.n)) if wheel_hub(g) is not None else _NA


@_claim("OBS2.6", "value 1 iff a universal vertex exists (n >= 3)")
def _c_universal(g, cache):
    if g.n < 3:
        return _NA
    has_universal = find_universal_vertex(g) is not None
    value_one = cache.gamma_cer(g) == 1
    return _check(has_universal == value_one,
                  universal=has_universal, value_one=value_one)


@_claim("OBS2.7", "value is additive over connected components")
def _c_additive(g, cache):
    total = cache.gamma_cer(g)
    parts = sum(cache.gamma_cer(comp) for _, comp in components(g))
    return _check(total == parts, whole=total, component_sum=parts)


# ---------------------------------------------------------------------------
# Support facts and upper bounds
# ---------------------------------------------------------------------------

@_claim("OBS3.1", "every certified dominating set contains every support")
def _c_supports(g, cache):
    if g.n < 1:
        return _NA
    prof = leaf_profile(g)
    supports = prof.weak | prof.strong
    if g.n <= 12:
        for mask in range(1 << g.n):
            if supports & ~mask and _certified(g, mask):
                return _fail(certified_set=list(_bits(mask)),
                             missing_support=list(_bits(supports & ~mask)))
        return _OK
    # not by a solve, as the solver pins the supports in.  Each support s has
    # a leaf l, N[l] = {l, s}, so a set without s leaves l undominated when
    # it misses l and half-shadowed when it holds l; V - {l, s} and V - {s}
    # stand for every such set
    for leaf in _bits(prof.leaves):
        rest = g.full_mask & ~g.adj[leaf]
        undominated = not g.closed(leaf) & rest & ~(1 << leaf)
        status = classify_vertex(g, VertexSet(g.n, rest), leaf)
        if not undominated or status is not VertexStatus.HALF_SHADOWED:
            return _fail(leaf=leaf, undominated=undominated, status=status.value)
    return _OK


@_claim("OBS3.2", "value <= n - (leaves on strong supports), <= n - 2|S2|")
def _c_strong_trim(g, cache):
    if g.n < 1:
        return _NA
    got = cache.gamma_cer(g)
    prof = leaf_profile(g)
    k = prof.strong_leaves.bit_count()
    s2 = prof.strong.bit_count()
    return _check(got <= g.n - k and got <= g.n - 2 * s2,
                  value=got, leaf_trim=g.n - k, strong_trim=g.n - 2 * s2)


@_claim("THM3.3", "connected: value <= gamma + |S1|")
def _c_bound_connected(g, cache):
    # COR3.4's bound, stated for connected graphs
    if g.n < 1 or not is_connected(g):
        return _NA
    return _c_bound_any(g, cache)


@_claim("COR3.4", "value <= gamma + |S1|")
def _c_bound_any(g, cache):
    if g.n < 1:
        return _NA
    got = cache.gamma_cer(g)
    bound = cache.gamma(g) + leaf_profile(g).weak.bit_count()
    return _check(got <= bound, value=got, bound=bound)


@_claim("COR3.5", "value <= 2 gamma")
def _c_bound_double(g, cache):
    if g.n < 1:
        return _NA
    got = cache.gamma_cer(g)
    bound = 2 * cache.gamma(g)
    return _check(got <= bound, value=got, bound=bound)


# ---------------------------------------------------------------------------
# Equality with the domination number
# ---------------------------------------------------------------------------

def _equals_gamma(g, cache):
    a, b = cache.gamma_cer(g), cache.gamma(g)
    return _check(a == b, gamma_cer=a, gamma=b)


@_claim("COR4.1", "no weak supports: value equals gamma")
def _c_eq_no_weak(g, cache):
    if g.n < 1 or leaf_profile(g).weak:
        return _NA
    return _equals_gamma(g, cache)


@_claim("COR4.2", "minimum degree >= 2: value equals gamma")
def _c_eq_min_degree(g, cache):
    if g.n < 1 or min_degree(g) < 2:
        return _NA
    return _equals_gamma(g, cache)


# the witness claims enumerate every minimum dominating set, so they only
# apply up to a size where that enumeration stays reasonable
_WITNESS_N_CAP = 16


@_claim("LEM4.3", "connected n >= 3: equality iff a weak-support-slack gamma-set exists")
def _c_eq_witness_connected(g, cache):
    # COR4.4's equivalence, stated for connected graphs of order >= 3
    if not 3 <= g.n <= _WITNESS_N_CAP or not is_connected(g):
        return _NA
    return _c_eq_witness(g, cache)


@_claim("COR4.4", "equality iff a weak-support-slack gamma-set exists")
def _c_eq_witness(g, cache):
    if not 1 <= g.n <= _WITNESS_N_CAP:
        return _NA
    eq = cache.gamma_cer(g) == cache.gamma(g)
    wit = equality_witness(g, cache.min_dom_masks(g)) is not None
    return _check(eq == wit, equality=eq, witness_exists=wit)


@_claim("COR4.5", "unique minimum dominating set: value equals gamma")
def _c_eq_unique(g, cache):
    if not 1 <= g.n <= _WITNESS_N_CAP or len(cache.min_dom_masks(g)) != 1:
        return _NA
    return _equals_gamma(g, cache)


# ---------------------------------------------------------------------------
# Extremal values
# ---------------------------------------------------------------------------

@_claim("LEM5.1", "connected corona: value equals n")
def _c_corona_value(g, cache):
    if g.n < 1 or not is_connected(g) or recognize_corona(g) is None:
        return _NA
    got = cache.gamma_cer(g)
    return _check(got == g.n, value=got, n=g.n)


@_claim("LEM5.4", "diadem: value equals n - 2")
def _c_diadem_value(g, cache):
    if recognize_diadem(g) is None:
        return _NA
    got = cache.gamma_cer(g)
    return _check(got == g.n - 2, value=got, n=g.n)


def _predicts(predicted, actual):
    return _check(predicted == actual, predicted=predicted, actual=actual)


@_claim("THM5.3", "value n iff every component is an isolated vertex or a corona")
def _c_value_n(g, cache):
    if g.n < 1:
        return _NA
    return _predicts(check_gamma_cer_equals_n(g), cache.gamma_cer(g) == g.n)


@_claim("THM5.6", "value n-2 iff one triangle/4-cycle/diadem component among coronas")
def _c_value_n_minus_2(g, cache):
    if g.n < 3:
        return _NA
    return _predicts(check_gamma_cer_equals_n_minus_2(g), cache.gamma_cer(g) == g.n - 2)


# ---------------------------------------------------------------------------
# Certificate structure and modification effects
# ---------------------------------------------------------------------------

@_claim("LEM6.1", "optimum certificate: shadowed members are weak supports or leaves")
def _c_shadow_structure(g, cache):
    if g.n < 2 or not is_connected(g):
        return _NA
    cert = cache.gamma_cer_cert(g).mask
    prof = leaf_profile(g)
    lm, weak = prof.leaves, prof.weak
    shadowed = 0
    for v in _bits(cert):
        if g.adj[v] & ~cert == 0:
            shadowed |= 1 << v
            if not (weak | lm) >> v & 1:
                return _fail(vertex=v, certificate=list(_bits(cert)))
    # shadowed weak supports neighbour only illuminated vertices or each other
    for s in _bits(shadowed & weak):
        for w in _bits(g.adj[s] & ~lm):
            outside = (g.adj[w] & ~cert).bit_count()
            if outside >= 2:
                continue
            if outside == 0 and (shadowed & weak) >> w & 1:
                continue
            return _fail(weak_support=s, neighbour=w, certificate=list(_bits(cert)))
    return _OK


@_claim("THM6.2", "connected: adding any edge never increases the value")
def _c_edge_add(g, cache):
    if g.n < 2 or not is_connected(g):
        return _NA
    base = cache.gamma_cer(g)
    # a certified dominating set of G + uv of size <= base proves the bound
    # there, and the base certificate (base vertices, as the solve checks)
    # usually still is one; only the edges it misses are solved, so a
    # failure reports the exact modified value.  The check is the
    # definition, run on g's rows with rows u and v patched to G + uv
    cert = cache.gamma_cer_cert(g).mask
    rows = list(g.adj)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            certified = _certified(g, cert, rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            if certified:
                continue
            new = cache.gamma_cer(g.add_edge(u, v))
            if new > base:
                return _fail(edge=[u, v], base=base, modified=new)
    return _OK


@_claim("THM6.3", "adding a vertex with >= 2 neighbours adds at most 1 (checked for n <= 5)")
def _c_vertex_add(g, cache):
    if not 2 <= g.n <= 5:
        return _NA
    base = cache.gamma_cer(g)
    # as THM6.2: the base certificate plus the new vertex, when certified,
    # proves the bound without a solve
    cert = cache.gamma_cer_cert(g).mask | 1 << g.n
    for k in range(2, g.n + 1):
        for nbrs in combinations(range(g.n), k):
            h = g.add_vertex(nbrs)
            if _certified(h, cert):
                continue
            new = cache.gamma_cer(h)
            if new > base + 1:
                return _fail(neighbours=list(nbrs), base=base, modified=new)
    return _OK


# ---------------------------------------------------------------------------
# Complement pairs
# ---------------------------------------------------------------------------

@_claim("COR7.1", "both minimum degrees >= 2: sum <= floor(n/2)+2 and product <= n")
def _c_ng_dense(g, cache):
    if g.n < 1:
        return _NA
    gbar = cache.complement(g)
    if min(min_degree(g), min_degree(gbar)) < 2:
        return _NA
    a, b = cache.gamma_cer(g), cache.gamma_cer(gbar)
    return _check(a + b <= g.n // 2 + 2 and a * b <= g.n,
                  sum=a + b, product=a * b, n=g.n)


# (6, 8) is the 4-cycle / perfect-matching pair: values 2 and 4.  No integer
# pair can realize sum 6 with product 6.
_NG_PAIRS_4 = {(3, 2), (5, 4), (6, 8), (8, 16)}


@_claim("OBS7.2", "orders 2-4: (sum, product) matches the small-order tables")
def _c_ng_small(g, cache):
    if g.n not in (2, 3, 4):
        return _NA
    a, b = cache.gamma_cer(g), cache.gamma_cer(cache.complement(g))
    pair = (a + b, a * b)
    want = {2: {(4, 4)}, 3: {(4, 3)}, 4: _NG_PAIRS_4}[g.n]
    return _check(pair in want, pair=list(pair), allowed=sorted(want))


def _tight_iff(g, cache, top_sum, top_product, tight, **extra):
    """Sum and product of the values of g and its complement are at most
    ``top_sum`` and ``top_product``, each met exactly when ``tight``."""
    a, b = cache.gamma_cer(g), cache.gamma_cer(cache.complement(g))
    s, p = a + b, a * b
    ok = (s <= top_sum and p <= top_product
          and (s == top_sum) == tight and (p == top_product) == tight)
    return _check(ok, sum=s, product=p, n=g.n, **extra)


@_claim("THM7.4", "an isolated vertex on either side (n >= 3): bounds and tightness")
def _c_ng_isolated(g, cache):
    if g.n < 3:
        return _NA
    gbar = cache.complement(g)
    if min(min_degree(g), min_degree(gbar)) != 0:
        return _NA
    # extremal: one side has an isolated vertex and every component of that
    # side is an isolated vertex or a corona
    structural = any(
        min_degree(h) == 0 and check_gamma_cer_equals_n(h) for h in (g, gbar)
    )
    return _tight_iff(g, cache, g.n + 1, g.n, structural, extremal_structure=structural)


@_claim("THM7.5", "n >= 5: sum <= n+2 and product <= 2n, tight iff a corona side")
def _c_ng_general(g, cache):
    if g.n < 5:
        return _NA
    corona_side = (recognize_corona(g) is not None
                   or recognize_corona(cache.complement(g)) is not None)
    return _tight_iff(g, cache, g.n + 2, 2 * g.n, corona_side, corona_side=corona_side)


@_claim("THM9.2", "min degree >= 1 and no weak supports: a pair with |D| = gamma exists")
def _c_dd2(g, cache):
    if g.n < 1 or min_degree(g) < 1 or leaf_profile(g).weak:
        return _NA
    # the cached certificate is the one find_dd2_pair would solve for; its
    # own search runs only when that certificate's complement fails
    d = cache.gamma_cer_cert(g)
    pair = DD2Pair(d, d.complement())
    if not is_dd2_pair(g, pair):
        pair = find_dd2_pair(g)
    if pair is None:
        return _fail(found=False)
    ok = is_dd2_pair(g, pair) and len(pair.d) == cache.gamma(g)
    return _check(ok, d=pair.d.to_list(), d2=pair.d2.to_list(),
                  gamma=cache.gamma(g))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    """What to enumerate and which claims to run.

    Internal enumeration is refused above n_max = 7 (order 7 already means
    2,097,152 graphs; the default suite stops at 6); larger graphs come from
    a graph6 file, which takes any order.
    """

    n_max: int = 6
    graph6_file: str | None = None
    claims: tuple[str, ...] | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {self.n_max}")
        if self.graph6_file is None and self.n_max > ENUMERATION_CAP:
            raise ValueError(
                f"n_max {self.n_max} exceeds the internal enumeration cap "
                f"{ENUMERATION_CAP}; check larger graphs from a graph6 file"
            )
        if self.claims is not None:
            unknown = [c for c in self.claims if c not in _REGISTRY]
            if unknown:
                raise ValueError(f"unknown claim ids: {unknown}")
            repeated = sorted({c for c in self.claims if self.claims.count(c) > 1})
            if repeated:
                raise ValueError(f"duplicate claim ids: {repeated}")


@dataclass(frozen=True)
class TheoremReport:
    graph_id: str
    outcomes: tuple[ClaimOutcome, ...]

    @property
    def failures(self) -> tuple[ClaimOutcome, ...]:
        return tuple(o for o in self.outcomes if o.applicable and o.holds is False)

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph_id,
            "claims": [o.to_json_obj() for o in self.outcomes],
            "failed": [o.claim_id for o in self.failures],
        }


@dataclass
class SuiteSummary:
    graphs_checked: int = 0
    applicable: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    aborted: bool = False

    def absorb(self, report: TheoremReport) -> None:
        self.graphs_checked += 1
        for o in report.outcomes:
            if o.applicable:
                self.applicable[o.claim_id] = self.applicable.get(o.claim_id, 0) + 1
                if o.holds:
                    self.passed[o.claim_id] = self.passed.get(o.claim_id, 0) + 1
                else:
                    self.failures.append(
                        {"graph": report.graph_id, "claim": o.claim_id,
                         "witness": o.witness}
                    )

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        claims = {}
        for cid in _REGISTRY:
            if cid in self.applicable:
                claims[cid] = {
                    "applicable": self.applicable[cid],
                    "passed": self.passed.get(cid, 0),
                }
        return {
            "summary": True,
            "graphs_checked": self.graphs_checked,
            "claims": claims,
            "failures": self.failures,
            "aborted": self.aborted,
            "ok": self.ok,
        }


def evaluate_graph(
    g: Graph, claims: Iterable[str] | None = None, cache: SolveCache | None = None
) -> TheoremReport:
    """Run the selected claims (default: all) against one graph."""
    cache = cache if cache is not None else SolveCache()
    ids = tuple(claims) if claims is not None else claim_ids()
    outcomes = []
    for cid in ids:
        _, fn = _REGISTRY[cid]
        applicable, holds, witness = fn(g, cache)
        outcomes.append(ClaimOutcome(cid, applicable, holds, witness))
    return TheoremReport(encode_graph6(g), tuple(outcomes))


def _suite_graphs(cfg: SuiteConfig) -> Iterable[Graph]:
    """A graph6 file parsed whole, or the enumeration as it is consumed."""
    if cfg.graph6_file is not None:
        with open(cfg.graph6_file, "r", encoding="ascii") as fh:
            return parse_graph6_lines(fh.read())
    return (g for n in range(cfg.n_max + 1) for g in enumerate_labeled_graphs(n))


_worker_state: dict = {}


def _worker_init(claims: tuple[str, ...]) -> None:
    _worker_state["claims"] = claims
    _worker_state["cache"] = SolveCache()


def _worker_eval(g: Graph) -> TheoremReport:
    return evaluate_graph(g, _worker_state["claims"], _worker_state["cache"])


def run_suite(
    cfg: SuiteConfig,
    on_report: Callable[[TheoremReport], None] | None = None,
    cache: SolveCache | None = None,
) -> SuiteSummary:
    """Check every enumerated/loaded graph; abort on the first failure.

    One loop reads the reports, made by a pool of ``jobs`` worker processes,
    capped at the CPU count, or in this process when that comes to 1.
    Enumerated graphs are checked as they are generated; a graph6 file is
    read whole first, so a bad record fails before any check.  Reports are
    consumed in input order whatever the worker count, so the summary and
    the failing graph (if any) are deterministic.  ``cache`` is honoured
    only in single-process runs.
    """
    ids = tuple(cfg.claims) if cfg.claims is not None else claim_ids()
    graphs = _suite_graphs(cfg)
    summary = SuiteSummary()
    pool = None
    jobs = min(cfg.jobs, os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing  # only a pooled run pays for the import

        pool = multiprocessing.Pool(jobs, initializer=_worker_init, initargs=(ids,))
    with pool or nullcontext():  # leaving it terminates the workers
        if pool is None:
            local = cache if cache is not None else SolveCache()
            reports = (evaluate_graph(g, ids, local) for g in graphs)
        else:
            reports = pool.imap(_worker_eval, graphs, chunksize=64)
        for report in reports:
            summary.absorb(report)
            if on_report is not None:
                on_report(report)
            if report.failures:
                summary.aborted = True
                break
    return summary
