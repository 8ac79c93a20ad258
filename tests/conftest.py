import random
from itertools import combinations

import pytest

from certdom import Graph, is_connected, solver


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Image of g under the vertex bijection v -> perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def seeded_gnp_40() -> Graph:
    g = random_graph(40, 0.2, random.Random(3))
    assert is_connected(g)  # one component: its phases run back to back
    return g


# SolveStats.as_dict keys, in their stable order
STATS_KEYS = ["nodes_expanded", "forced_vertices", "components_split",
              "closed_form_hits", "certificate_nodes", "packing_prunes",
              "fractional_prunes", "dead_ends", "dominated_pins", "reduced_cost_pins"]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def solves(monkeypatch) -> list[tuple[bool, bool]]:
    """Records the ``(certified, lex_min)`` mode of every branch-and-bound
    solve."""
    seen: list[tuple[bool, bool]] = []
    combine = solver._combine_components

    def counted(g, cfg, certified, lex_min):
        seen.append((certified, lex_min))
        return combine(g, cfg, certified, lex_min)

    monkeypatch.setattr(solver, "_combine_components", counted)
    return seen
