"""γ, γ_cer and ``SolveResult.gamma`` against a 0/1 program solved by HiGHS.

The program shares no code with the branch and bound, so it checks the
search's bounds above the subset oracle's n <= 20, and by self-reduction
its lex-smallest certificates.  Binary x_v (v in the
set) and, for certified domination, y_v (v has at least two outside
neighbours).  With o_v = deg v - sum_{u in N(v)} x_u:

    sum_{u in N[v]} x_u >= 1                 every vertex is dominated
    o_v >= 2 y_v                             y_v = 1 only with two outside
    o_v <= deg v * (y_v + 1 - x_v)           a member with y_v = 0 has none
"""

import random

import pytest

from certdom import Graph, gamma_cer_solve, gamma_solve

from conftest import random_graph, seeded_gnp_40

pytest.importorskip("scipy")


def _milp_value(g: Graph, certified: bool,
                fixed: dict[int, int] | None = None) -> int | None:
    """The optimum, with x_v fixed to ``fixed[v]`` for the vertices it names;
    None when those pins leave the program infeasible."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = g.n
    if n == 0:
        return 0
    nvar = 2 * n if certified else n
    a = np.zeros((3 * n if certified else n, nvar))
    lo = np.full(a.shape[0], -np.inf)
    hi = np.full(a.shape[0], np.inf)
    for v in range(n):
        nbrs = [u for u in range(n) if g.adj[v] >> u & 1]
        deg = len(nbrs)
        a[v, nbrs + [v]] = 1
        lo[v] = 1
        if certified:
            a[n + v, nbrs] = -1  # -sum x_N(v) - 2 y_v >= -deg v
            a[n + v, n + v] = -2
            lo[n + v] = -deg
            a[2 * n + v, nbrs] = -1  # -sum x_N(v) - deg v y_v + deg v x_v <= 0
            a[2 * n + v, n + v] = -deg
            a[2 * n + v, v] = deg
            hi[2 * n + v] = 0
    cost = np.zeros(nvar)
    cost[:n] = 1
    x_lo, x_hi = np.zeros(nvar), np.ones(nvar)
    for v, bit in (fixed or {}).items():
        x_lo[v] = x_hi[v] = bit
    res = milp(cost, constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(nvar), bounds=Bounds(x_lo, x_hi))
    if res.status == 2:  # scipy's code for an infeasible program
        return None
    if res.status != 0:
        raise RuntimeError(f"MILP did not solve to optimality: {res.message}")
    return int(round(res.fun))


def test_solves_match_an_independent_milp_at_mid_n():
    rng = random.Random(20261018)
    # dense and sparse, n from 10 to 60; on G(40, 0.06) and the 45-vertex
    # tree gamma_cer > gamma
    graphs = [random_graph(n, p, rng) for n, p in (
        (10, 0.3), (15, 0.2), (25, 0.3), (30, 0.1), (35, 0.2), (40, 0.06),
        (45, 0.15), (50, 0.1), (60, 0.1))]
    graphs += [Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])
               for n in (20, 45)]
    for g in graphs:
        gamma = _milp_value(g, certified=False)
        cer = gamma_cer_solve(g)
        plain = gamma_solve(g)
        assert (plain.value, plain.gamma, cer.gamma) == (gamma, gamma, gamma), g
        assert cer.value == _milp_value(g, certified=True), g
        assert cer.proven and plain.proven


def _milp_lex_min(g: Graph, value: int, certified: bool = False) -> list[int]:
    """The lex-smallest minimum dominating (for ``certified``, certified
    dominating) set by self-reduction: each vertex in ascending order is
    fixed in, and kept when the optimum stays ``value``, else fixed out (also
    when the pins leave no certified dominating set); once ``value`` are
    in, the rest are out."""
    fixed: dict[int, int] = {}
    chosen = []
    for v in range(g.n):
        if len(chosen) == value:
            break
        fixed[v] = 1
        if _milp_value(g, certified, fixed=fixed) == value:
            chosen.append(v)
        else:
            fixed[v] = 0
    return chosen


def test_gamma_certificates_on_sparse_graphs_are_the_milp_lex_min():
    # a random recursive tree and one with two chords, n = 200, each also
    # with its labels reversed: the certificate must be the lex-smallest
    # gamma-set.  Reversed, every leaf sits below its parent, so the lex
    # pins leave the leaves open
    rng = random.Random(20261019)
    tree = [(v, rng.randrange(v)) for v in range(1, 200)]
    chords = set(tree)
    while len(chords) < len(tree) + 2:
        u, v = sorted(rng.sample(range(200), 2))
        if (v, u) not in chords:
            chords.add((u, v))
    for edges in (tree, sorted(chords)):
        for reverse in (False, True):
            g = Graph.from_edges(200, [(199 - u, 199 - v) for u, v in edges]
                                 if reverse else edges)
            res = gamma_solve(g)
            assert res.proven
            assert res.value == _milp_value(g, certified=False)
            assert res.certificate.to_list() == _milp_lex_min(g, res.value)


def _benchmark_gnp(key: str, n: int, p: float) -> Graph:
    """The connected G(n, p) seeded by ``key``, drawn by the benchmark's own
    generator in ``perfbench/inputs.py``, as its ``solve-gnp`` pool graphs
    are."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return Graph.from_edges(n, inputs.connected_gnp(n, p, random.Random(key)))


def test_certificates_of_a_dense_gnp_are_the_milp_lex_min():
    # past the subset oracle's n <= 20, for both solves; on the connected
    # G(60, 0.1) self-reduction on the certified program meets infeasible
    # pins, which count as "the optimum is not kept".  gnp-60-0.1-0 is the
    # benchmark pool's slowest solve; the G(80, 0.1) is past the pool, where
    # the lex phase's first-hit queries run deep (gamma = gamma_cer = 11)
    for g in (seeded_gnp_40(), random_graph(60, 0.1, random.Random(0)),
              _benchmark_gnp("gnp-60-0.1-0", 60, 0.1), _benchmark_gnp("x800.1", 80, 0.1)):
        for solve, certified in ((gamma_solve, False), (gamma_cer_solve, True)):
            res = solve(g)
            assert res.proven
            assert res.certificate.to_list() == _milp_lex_min(g, res.value, certified)
