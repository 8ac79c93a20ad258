from itertools import combinations

import pytest

from certdom import (
    DD2Pair,
    VertexSet,
    VertexStatus,
    classify_vertex,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_2dominating,
    is_certified_dominating,
    is_dd2_pair,
    is_dominating,
    is_minimal_dominating,
    path_graph,
)
from certdom.suite import enumerate_labeled_graphs

from conftest import random_graph


def test_is_dominating_examples():
    p3 = path_graph(3)
    assert is_dominating(p3, [1])
    assert not is_dominating(p3, [0])
    assert is_dominating(p3, VertexSet(3, p3.full_mask))


def test_empty_graph_edge_cases():
    g0 = empty_graph(0)
    assert is_dominating(g0, [])
    assert is_certified_dominating(g0, [])
    assert is_2dominating(g0, [])


def test_classify_vertex_examples():
    p4 = path_graph(4)
    assert classify_vertex(p4, [1, 2], 1) is VertexStatus.HALF_SHADOWED
    assert classify_vertex(p4, [1, 2], 0) is VertexStatus.OUTSIDE
    assert classify_vertex(complete_graph(1), [0], 0) is VertexStatus.SHADOWED
    star = complete_bipartite_graph(1, 3)
    assert classify_vertex(star, [0], 0) is VertexStatus.ILLUMINATED


def test_classification_partitions_members(rng):
    for _ in range(60):
        g = random_graph(rng.randrange(1, 8), 0.4, rng)
        mask = rng.randrange(0, 1 << g.n)
        d = VertexSet(g.n, mask)
        for v in range(g.n):
            status = classify_vertex(g, d, v)
            assert (status is VertexStatus.OUTSIDE) == (v not in d)


def test_is_certified_dominating_examples():
    c4 = cycle_graph(4)
    assert is_certified_dominating(c4, [0, 2])
    assert not is_certified_dominating(path_graph(4), [1, 2])
    k2 = complete_graph(2)
    assert not is_certified_dominating(k2, [0])
    assert is_certified_dominating(k2, [0, 1])


def test_is_2dominating_examples():
    assert is_2dominating(cycle_graph(4), [1, 3])
    assert is_2dominating(path_graph(3), [0, 2])
    assert not is_2dominating(complete_graph(2), [0])


def test_certified_implies_dominating_exhaustive():
    for n in range(0, 5):
        for g in enumerate_labeled_graphs(n):
            for mask in range(1 << n):
                if is_certified_dominating(g, VertexSet(n, mask)):
                    assert is_dominating(g, VertexSet(n, mask))


def test_row_local_certification_matches_the_definition_on_the_modified_graph():
    # every labeled graph of order <= 5, every certified set, every pair:
    # toggling uv keeps the set certified exactly when the row test says so
    from certdom.domination import _certified, _stays_certified

    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            certified = [m for m in range(1 << n) if _certified(g, m)]
            for u, v in combinations(range(n), 2):
                h = g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
                for m in certified:
                    assert _stays_certified(g, m, u, v) == _stays_certified(
                        g, m, v, u) == _certified(h, m), (g.edges(), m, u, v)


def test_dd2_pair_examples():
    c4 = cycle_graph(4)
    pair = DD2Pair(VertexSet.of(4, [0, 2]), VertexSet.of(4, [1, 3]))
    assert is_dd2_pair(c4, pair)
    k2 = complete_graph(2)
    for d, d2 in (([0], [1]), ([1], [0]), ([], [0, 1])):
        assert not is_dd2_pair(k2, DD2Pair(VertexSet.of(2, d), VertexSet.of(2, d2)))


def test_dd2_pair_requires_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        DD2Pair(VertexSet.of(3, [0, 1]), VertexSet.of(3, [1, 2]))


def test_is_minimal_dominating_examples():
    p3 = path_graph(3)
    assert is_minimal_dominating(p3, [1])
    assert not is_minimal_dominating(p3, [0, 1])
    # derived by checking both single-vertex removals fail to dominate
    c6 = cycle_graph(6)
    assert not is_dominating(c6, [0])
    assert not is_dominating(c6, [3])
    assert is_minimal_dominating(c6, [0, 3])
    with pytest.raises(ValueError, match="not dominating"):
        is_minimal_dominating(p3, [0])


def test_minimum_dominating_sets_have_no_shadowed_member():
    # over graphs without isolated vertices, any minimal dominating set keeps
    # every member at least one outside neighbour
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if any(d == 0 for d in g.degrees()):
                continue
            for size in range(n + 1):
                hits = [
                    set(c)
                    for c in combinations(range(n), size)
                    if is_dominating(g, c)
                ]
                if hits:
                    for d in hits:
                        if is_minimal_dominating(g, d):
                            assert all(
                                classify_vertex(g, d, v) is not VertexStatus.SHADOWED
                                for v in d
                            )
                    break


def test_minimal_certified_gives_2dominating_complement():
    # needs every vertex non-isolated: an isolated vertex sits shadowed in
    # every dominating set and its complement can never 2-dominate it
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if any(d == 0 for d in g.degrees()):
                continue
            for mask in range(1, 1 << n):
                d = VertexSet(n, mask)
                if not is_dominating(g, d):
                    continue
                if is_minimal_dominating(g, d) and is_certified_dominating(g, d):
                    assert is_2dominating(g, d.complement())
