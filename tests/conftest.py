import random
from itertools import combinations

import pytest

from certdom import Graph, solver


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Image of g under the vertex bijection v -> perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def solves(monkeypatch) -> list[bool]:
    """Records the ``certified`` flag of every branch-and-bound solve."""
    seen: list[bool] = []
    combine = solver._combine_components

    def counted(g, cfg, certified):
        seen.append(certified)
        return combine(g, cfg, certified)

    monkeypatch.setattr(solver, "_combine_components", counted)
    return seen
