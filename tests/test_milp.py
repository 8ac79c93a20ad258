"""γ, γ_cer and ``SolveResult.gamma`` against a 0/1 program solved by HiGHS.

The program shares no code with the branch and bound, so it checks the
search's bounds above the subset oracle's n <= 20.  Binary x_v (v in the
set) and, for certified domination, y_v (v has at least two outside
neighbours).  With o_v = deg v - sum_{u in N(v)} x_u:

    sum_{u in N[v]} x_u >= 1                 every vertex is dominated
    o_v >= 2 y_v                             y_v = 1 only with two outside
    o_v <= deg v * (y_v + 1 - x_v)           a member with y_v = 0 has none
"""

import random

import pytest

from certdom import Graph, gamma_cer_solve, gamma_solve

from conftest import random_graph

pytest.importorskip("scipy")


def _milp_value(g: Graph, certified: bool) -> int:
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
    res = milp(cost, constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(nvar), bounds=Bounds(0, 1))
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
