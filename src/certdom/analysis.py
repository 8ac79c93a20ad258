"""Consolidated reports: bounds, modification effects, and complement pairs.

Each report is a dataclass with a ``to_json_obj`` method producing a plain
dict with stable key order, so reports serialize to line-oriented JSON for
the CLI.  Every value is exact: a solve, or an upper and a lower bound that
meet; nothing here estimates.
No report reads a certificate, so every solve here is value-only
(``gamma_cer_solve(..., lex_min=False)``): it skips the lex-smallest
certificate phase, and its ``proven`` means that the value is proven.
The edge sweep builds and solves a modified graph only where the base
solve cannot settle it: whether the base certificate survives an edge
change is read off the two changed rows of the base graph, and one
first-hit query per vertex refutes, for all its added edges at once, a
smaller dominating set through the new edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .domination import _stays_certified, as_mask
from .graphs import Graph, VertexSet, complement, is_connected, leaf_profile, min_degree
from .solver import addition_dominates_within, equality_witness_search, gamma_cer_solve
from .structure import recognize_corona


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    def to_json_obj(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds on the certified domination number plus the equality test.

    ``equality_witness`` is the lex-smallest leaf-free minimum dominating
    set leaving, for every weak support, at least one non-leaf neighbour
    outside the set; such a witness exists iff the domination and certified
    domination numbers agree.  ``solver.equality_witness_search`` finds it at
    any order, so the JSON key ``witness_searched`` is always true.
    """

    n: int
    gamma: int
    gamma_cer: int
    s1_size: int
    s2_size: int
    strong_support_leaf_count: int
    bounds: tuple[BoundCheck, ...]
    equality_holds: bool
    equality_witness: Optional[VertexSet]

    def to_json_obj(self) -> dict:
        return {
            "report": "bounds",
            "n": self.n,
            "gamma": self.gamma,
            "gamma_cer": self.gamma_cer,
            "s1_size": self.s1_size,
            "s2_size": self.s2_size,
            "strong_support_leaf_count": self.strong_support_leaf_count,
            "bounds": [b.to_json_obj() for b in self.bounds],
            "equality_gamma": {
                "holds": self.equality_holds,
                "witness": (
                    None
                    if self.equality_witness is None
                    else self.equality_witness.to_list()
                ),
                "witness_searched": True,
            },
        }


def bound_report(g: Graph) -> BoundReport:
    """Evaluate every general upper bound with exact values."""
    res = gamma_cer_solve(g, lex_min=False)
    gamma, gamma_cer = res.gamma, res.value
    prof = leaf_profile(g)
    s1 = prof.weak.bit_count()
    s2 = prof.strong.bit_count()
    k = prof.strong_leaves.bit_count()
    bounds = (
        BoundCheck("gamma_le_gamma_cer", gamma, gamma_cer),
        BoundCheck("gamma_cer_le_n", gamma_cer, g.n),
        BoundCheck("strong_leaf_trim", gamma_cer, g.n - k),
        BoundCheck("two_per_strong_support", gamma_cer, g.n - 2 * s2),
        BoundCheck("gamma_plus_weak_supports", gamma_cer, gamma + s1),
        BoundCheck("twice_gamma", gamma_cer, 2 * gamma),
    )
    mask = equality_witness_search(g, gamma)
    return BoundReport(
        n=g.n,
        gamma=gamma,
        gamma_cer=gamma_cer,
        s1_size=s1,
        s2_size=s2,
        strong_support_leaf_count=k,
        bounds=bounds,
        equality_holds=gamma_cer == gamma,
        equality_witness=None if mask is None else VertexSet(g.n, mask),
    )


# ---------------------------------------------------------------------------
# Edge / vertex modification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModificationRecord:
    kind: str  # "edge-del" | "edge-add" | "vertex-del" | "vertex-add"
    detail: tuple
    new_value: int
    delta: int
    bound_applicable: bool = False
    bound_holds: Optional[bool] = None

    def to_json_obj(self) -> dict:
        obj = {
            "kind": self.kind,
            "detail": list(self.detail),
            "new_value": self.new_value,
            "delta": self.delta,
            "bound_applicable": self.bound_applicable,
        }
        if self.bound_applicable:
            obj["bound_holds"] = self.bound_holds
        return obj


@dataclass(frozen=True)
class ModificationReport:
    scope: str
    base_value: int
    records: tuple[ModificationRecord, ...]

    def to_json_obj(self) -> dict:
        return {
            "report": "modifications",
            "scope": self.scope,
            "base_value": self.base_value,
            "records": [r.to_json_obj() for r in self.records],
        }

    @property
    def violations(self) -> list[ModificationRecord]:
        return [r for r in self.records if r.bound_applicable and not r.bound_holds]


def edge_effects(
    g: Graph,
    scope: str | tuple[int, int] = "all-deletions",
) -> ModificationReport:
    """Exact certified domination numbers of single-edge modifications.

    ``scope`` is "all-deletions", "all-additions", or one (u, v) pair whose
    direction (deletion vs addition) is inferred from edge presence.  For a
    connected base graph, every addition carries the monotonicity bound
    new <= base; violations are flagged.  Additions to disconnected graphs
    carry no bound (they can lift the value arbitrarily).

    The sweep is certificate-first: when the base graph has gamma = gamma_cer
    and its certificate D stays certified in the modified graph, D bounds
    the new value from above by the base value and domination bounds it
    from below; every other pair runs one value-only solve, and only those
    pairs build their modified graph.  Whether D stays certified is read
    off rows u and v of G (``domination._stays_certified``).  The lower
    bound is gamma(G - e) >= gamma(G) for a deletion.  For an addition, a
    dominating set of G + uv below gamma(G) holds exactly one endpoint;
    with a in it and b out, it dominates V - b in G, so one first-hit
    query per vertex b on G refutes every added edge at b at once
    (``solver.addition_dominates_within``), and a pair query runs only
    where b's query finds a set without a.
    """
    res = gamma_cer_solve(g, lex_min=False)
    base = res.value
    cert = res.certificate.mask
    tight = res.gamma == base
    connected = is_connected(g)
    if isinstance(scope, tuple):
        u, v = scope
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise ValueError(f"invalid edge ({u}, {v})")
        pairs = [tuple(sorted((u, v)))]
        scope_name = "single"
    elif scope == "all-deletions":
        pairs = g.edges()
        scope_name = scope
    elif scope == "all-additions":
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        scope_name = scope
    else:
        raise ValueError(f"unknown scope {scope!r}")
    below = addition_dominates_within(g, base - 1)
    records = []
    for u, v in pairs:
        present = g.has_edge(u, v)
        # D still certified gives new <= |D|.  A deletion keeps new >=
        # gamma(G); after an addition, a dominating set below gamma(G) holds
        # exactly one of u and v, and the queries refute it
        if tight and _stays_certified(g, cert, u, v) and (present or not below(u, v)):
            new = base
        else:
            h = g.remove_edge(u, v) if present else g.add_edge(u, v)
            new = gamma_cer_solve(h, lex_min=False).value
        bounded = connected and not present
        records.append(ModificationRecord(
            "edge-del" if present else "edge-add", (u, v), new, new - base,
            bound_applicable=bounded, bound_holds=new <= base if bounded else None,
        ))
    return ModificationReport(scope_name, base, tuple(records))


def vertex_effects(
    g: Graph,
    scope: str | Iterable[int] = "all-deletions",
) -> ModificationReport:
    """Exact values after deleting each vertex, or after one vertex addition.

    Deletions carry no bound.  An addition joined to two or more existing
    vertices carries the bound new <= base + 1; a pendant addition (one
    neighbour) is reported without any bound claim.  An empty neighbour set
    is rejected: adding an isolated vertex just adds one to the value.
    """
    base = gamma_cer_solve(g, lex_min=False).value
    records = []
    if isinstance(scope, str):
        if scope != "all-deletions":
            raise ValueError(f"unknown scope {scope!r}")
        for v in range(g.n):
            new = gamma_cer_solve(g.remove_vertex(v), lex_min=False).value
            records.append(ModificationRecord("vertex-del", (v,), new, new - base))
        return ModificationReport(scope, base, tuple(records))
    nbrs = sorted(set(scope))
    mask = as_mask(g, nbrs)
    if not mask:
        raise ValueError(
            "neighbour set must be nonempty (an isolated addition is just +1)"
        )
    new = gamma_cer_solve(g.add_vertex(nbrs), lex_min=False).value
    bounded = len(nbrs) >= 2
    records.append(
        ModificationRecord(
            "vertex-add",
            tuple(nbrs),
            new,
            new - base,
            bound_applicable=bounded,
            bound_holds=new <= base + 1 if bounded else None,
        )
    )
    return ModificationReport("add", base, tuple(records))


# ---------------------------------------------------------------------------
# Complement pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NGReport:
    """Joint behaviour of the certified domination number on g and its complement."""

    n: int
    gcer_g: int
    gcer_gbar: int
    min_delta: int
    regime: str  # "min_delta_0" | "min_delta_1" | "min_delta_ge2"
    checks: tuple[BoundCheck, ...]
    corona_g: bool
    corona_gbar: bool
    equality_regime: Optional[bool] = None

    @property
    def sum(self) -> int:
        return self.gcer_g + self.gcer_gbar

    @property
    def product(self) -> int:
        return self.gcer_g * self.gcer_gbar

    def to_json_obj(self) -> dict:
        obj = {
            "report": "ng",
            "n": self.n,
            "gcer_g": self.gcer_g,
            "gcer_gbar": self.gcer_gbar,
            "sum": self.sum,
            "product": self.product,
            "min_delta": self.min_delta,
            "regime": self.regime,
            "checks": [c.to_json_obj() for c in self.checks],
            "corona_g": self.corona_g,
            "corona_gbar": self.corona_gbar,
        }
        if self.equality_regime is not None:
            obj["extremal_pair"] = self.equality_regime
        return obj


def nordhaus_gaddum(g: Graph) -> NGReport:
    """Sum/product behaviour of the value on a graph and its complement.

    Evaluates the bounds applicable to the minimum-degree regime: with both
    minimum degrees >= 2, sum <= floor(n/2) + 2 and product <= n; with an
    isolated vertex on either side and n >= 3, sum <= n + 1 and product <= n;
    for any n >= 5, sum <= n + 2 and product <= 2n, where both are tight
    exactly when one side is the corona of some graph (recorded in
    ``extremal_pair``).
    """
    if g.n == 0:
        raise ValueError("complement-pair report needs at least one vertex")
    gbar = complement(g)
    a = gamma_cer_solve(g, lex_min=False).value
    b = gamma_cer_solve(gbar, lex_min=False).value
    dmin = min(min_degree(g), min_degree(gbar))
    regime = (
        "min_delta_0" if dmin == 0 else "min_delta_1" if dmin == 1 else "min_delta_ge2"
    )
    n = g.n
    checks = []
    if dmin >= 2:
        checks.append(BoundCheck("sum_le_half_n_plus_2", a + b, n // 2 + 2))
        checks.append(BoundCheck("product_le_n", a * b, n))
    if dmin == 0 and n >= 3:
        checks.append(BoundCheck("sum_le_n_plus_1", a + b, n + 1))
        checks.append(BoundCheck("product_le_n", a * b, n))
    corona_g = recognize_corona(g) is not None
    corona_gbar = recognize_corona(gbar) is not None
    equality = None
    if n >= 5:
        checks.append(BoundCheck("sum_le_n_plus_2", a + b, n + 2))
        checks.append(BoundCheck("product_le_2n", a * b, 2 * n))
        equality = corona_g or corona_gbar
    return NGReport(
        n=n,
        gcer_g=a,
        gcer_gbar=b,
        min_delta=dmin,
        regime=regime,
        checks=tuple(checks),
        corona_g=corona_g,
        corona_gbar=corona_gbar,
        equality_regime=equality,
    )
