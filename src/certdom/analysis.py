"""Consolidated reports: bounds, modification effects, and complement pairs.

Each report is a plain dict with stable key order, built as the CLI prints
it, so reports serialize to line-oriented JSON without a conversion step.
Every value is exact: a solve, or an upper and a lower bound that meet;
nothing here estimates.
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

from typing import Iterable, Optional

from .domination import _stays_certified, as_mask
from .graphs import Graph, VertexSet, complement, is_connected, leaf_profile, min_degree
from .solver import addition_dominates_within, equality_witness_search, gamma_cer_solve
from .structure import recognize_corona


def _check(name: str, lhs: int, rhs: int) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


def bound_report(g: Graph) -> dict:
    """Upper bounds on the certified domination number plus the equality test.

    Every general upper bound is evaluated with exact values.  The witness
    under ``equality_gamma`` is the lex-smallest leaf-free minimum
    dominating set leaving, for every weak support, at least one non-leaf
    neighbour outside the set; such a witness exists iff the domination and
    certified domination numbers agree.  ``solver.equality_witness_search``
    finds it at any order, so ``witness_searched`` is always true.
    """
    res = gamma_cer_solve(g, lex_min=False)
    gamma, gamma_cer = res.gamma, res.value
    prof = leaf_profile(g)
    s1 = prof.weak.bit_count()
    s2 = prof.strong.bit_count()
    k = prof.strong_leaves.bit_count()
    mask = equality_witness_search(g, gamma)
    return {
        "report": "bounds",
        "n": g.n,
        "gamma": gamma,
        "gamma_cer": gamma_cer,
        "s1_size": s1,
        "s2_size": s2,
        "strong_support_leaf_count": k,
        "bounds": [
            _check("gamma_le_gamma_cer", gamma, gamma_cer),
            _check("gamma_cer_le_n", gamma_cer, g.n),
            _check("strong_leaf_trim", gamma_cer, g.n - k),
            _check("two_per_strong_support", gamma_cer, g.n - 2 * s2),
            _check("gamma_plus_weak_supports", gamma_cer, gamma + s1),
            _check("twice_gamma", gamma_cer, 2 * gamma),
        ],
        "equality_gamma": {
            "holds": gamma_cer == gamma,
            "witness": None if mask is None else VertexSet(g.n, mask).to_list(),
            "witness_searched": True,
        },
    }


# ---------------------------------------------------------------------------
# Edge / vertex modification sweeps
# ---------------------------------------------------------------------------

def _record(kind: str, detail: Iterable[int], new: int, base: int,
            bound: Optional[bool] = None) -> dict:
    """One modification; ``bound`` is whether its bound holds, None where
    no bound applies."""
    rec = {
        "kind": kind,  # "edge-del" | "edge-add" | "vertex-del" | "vertex-add"
        "detail": list(detail),
        "new_value": new,
        "delta": new - base,
        "bound_applicable": bound is not None,
    }
    if bound is not None:
        rec["bound_holds"] = bound
    return rec


def _report(scope: str, base: int, records: list[dict]) -> dict:
    return {"report": "modifications", "scope": scope, "base_value": base,
            "records": records}


def edge_effects(
    g: Graph,
    scope: str | tuple[int, int] = "all-deletions",
) -> dict:
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
        if present:
            records.append(_record("edge-del", (u, v), new, base))
        else:
            records.append(_record("edge-add", (u, v), new, base,
                                   new <= base if connected else None))
    return _report(scope_name, base, records)


def vertex_effects(
    g: Graph,
    scope: str | Iterable[int] = "all-deletions",
) -> dict:
    """Exact values after deleting each vertex, or after one vertex addition.

    Deletions carry no bound.  An addition joined to two or more existing
    vertices carries the bound new <= base + 1; a pendant addition (one
    neighbour) is reported without any bound claim.  An empty neighbour set
    is rejected: adding an isolated vertex just adds one to the value.
    """
    base = gamma_cer_solve(g, lex_min=False).value
    if isinstance(scope, str):
        if scope != "all-deletions":
            raise ValueError(f"unknown scope {scope!r}")
        records = []
        for v in range(g.n):
            new = gamma_cer_solve(g.remove_vertex(v), lex_min=False).value
            records.append(_record("vertex-del", (v,), new, base))
        return _report(scope, base, records)
    nbrs = sorted(set(scope))
    if not as_mask(g, nbrs):
        raise ValueError(
            "neighbour set must be nonempty (an isolated addition is just +1)"
        )
    new = gamma_cer_solve(g.add_vertex(nbrs), lex_min=False).value
    bound = new <= base + 1 if len(nbrs) >= 2 else None
    return _report("add", base, [_record("vertex-add", nbrs, new, base, bound)])


# ---------------------------------------------------------------------------
# Complement pairs
# ---------------------------------------------------------------------------

def nordhaus_gaddum(g: Graph) -> dict:
    """Sum/product behaviour of the value on a graph and its complement.

    Evaluates the bounds applicable to the minimum-degree regime: with both
    minimum degrees >= 2, sum <= floor(n/2) + 2 and product <= n; with an
    isolated vertex on either side and n >= 3, sum <= n + 1 and product <= n;
    for any n >= 5, sum <= n + 2 and product <= 2n, where both are tight
    exactly when one side is the corona of some graph (recorded in
    ``extremal_pair``, present only for n >= 5).
    """
    if g.n == 0:
        raise ValueError("complement-pair report needs at least one vertex")
    gbar = complement(g)
    a = gamma_cer_solve(g, lex_min=False).value
    b = gamma_cer_solve(gbar, lex_min=False).value
    dmin = min(min_degree(g), min_degree(gbar))
    n = g.n
    checks = []
    if dmin >= 2:
        checks.append(_check("sum_le_half_n_plus_2", a + b, n // 2 + 2))
        checks.append(_check("product_le_n", a * b, n))
    if dmin == 0 and n >= 3:
        checks.append(_check("sum_le_n_plus_1", a + b, n + 1))
        checks.append(_check("product_le_n", a * b, n))
    if n >= 5:
        checks.append(_check("sum_le_n_plus_2", a + b, n + 2))
        checks.append(_check("product_le_2n", a * b, 2 * n))
    corona_g = recognize_corona(g) is not None
    corona_gbar = recognize_corona(gbar) is not None
    rep = {
        "report": "ng",
        "n": n,
        "gcer_g": a,
        "gcer_gbar": b,
        "sum": a + b,
        "product": a * b,
        "min_delta": dmin,
        "regime": ("min_delta_0" if dmin == 0 else "min_delta_1" if dmin == 1
                   else "min_delta_ge2"),
        "checks": checks,
        "corona_g": corona_g,
        "corona_gbar": corona_gbar,
    }
    if n >= 5:
        rep["extremal_pair"] = corona_g or corona_gbar
    return rep
