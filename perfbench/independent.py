"""Exact values by a formulation that shares no code with the branch and bound.

``milp_value`` solves the 0/1 program with HiGHS through ``scipy.optimize.milp``:
binary x_v (v in the set) and, for certified domination, y_v (v has at
least two outside neighbours).  With o_v = deg v - sum_{u in N(v)} x_u:

    sum_{u in N[v]} x_u >= 1                 every vertex is dominated
    o_v >= 2 y_v                             y_v = 1 only with two outside
    o_v <= deg v * (y_v + 1 - x_v)           a member with y_v = 0 has none

Only make_reference.py uses it; a benchmark run needs no scipy.
"""

from __future__ import annotations


def milp_value(n: int, rows: list[int], certified: bool) -> int:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    if n == 0:
        return 0
    nvar = 2 * n if certified else n
    nrow = 3 * n if certified else n
    a = lil_matrix((nrow, nvar))
    lo = np.full(nrow, -np.inf)
    hi = np.full(nrow, np.inf)
    for v in range(n):
        nbrs = [u for u in range(n) if rows[v] >> u & 1]
        deg = len(nbrs)
        for u in nbrs + [v]:
            a[v, u] = 1
        lo[v] = 1
        if certified:
            # -sum x_N(v) - 2 y_v >= -deg v
            r = n + v
            for u in nbrs:
                a[r, u] = -1
            a[r, n + v] = -2
            lo[r] = -deg
            # -sum x_N(v) - deg v y_v + deg v x_v <= 0
            r = 2 * n + v
            for u in nbrs:
                a[r, u] = -1
            a[r, n + v] = -deg
            a[r, v] = deg
            hi[r] = 0
    cost = np.zeros(nvar)
    cost[:n] = 1
    res = milp(
        cost,
        constraints=LinearConstraint(a.tocsr(), lo, hi),
        integrality=np.ones(nvar),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not solve to optimality: {res.message}")
    return int(round(res.fun))
