import hashlib
from itertools import combinations

import pytest

from certdom import (
    Graph,
    check_gamma_cer_equals_n,
    check_gamma_cer_equals_n_minus_2,
    closed_form,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    diadem,
    empty_graph,
    find_universal_vertex,
    gamma_cer_oracle,
    path_graph,
    recognize_corona,
    recognize_diadem,
    wheel_graph,
)
from certdom.structure import complete_bipartite_sides, is_cycle, is_path, wheel_hub
from certdom.suite import enumerate_labeled_graphs

from conftest import random_graph, relabel


def connected_graphs(n_max):
    from certdom import is_connected

    for n in range(1, n_max + 1):
        for g in enumerate_labeled_graphs(n):
            if is_connected(g):
                yield g


def test_find_universal_vertex():
    assert find_universal_vertex(wheel_graph(7)) == 0
    assert find_universal_vertex(path_graph(3)) == 1
    assert find_universal_vertex(cycle_graph(4)) is None
    assert find_universal_vertex(complete_graph(1)) == 0


def test_family_recognizers_on_relabelings():
    perm = [3, 0, 4, 1, 2]
    assert is_path(relabel(path_graph(5), perm))
    assert is_cycle(relabel(cycle_graph(5), perm))
    assert complete_bipartite_sides(relabel(complete_bipartite_graph(2, 3), perm)) == (2, 3)
    assert wheel_hub(relabel(wheel_graph(5), [2, 0, 1, 3, 4])) == 2


def test_recognize_corona_examples():
    assert recognize_corona(path_graph(4)).to_list() == [1, 2]
    g = corona(cycle_graph(4), complete_graph(1))
    assert recognize_corona(g).to_list() == [0, 1, 2, 3]
    assert recognize_corona(cycle_graph(6)) is None
    assert recognize_corona(empty_graph(1)) is None
    # isolated vertex disqualifies even next to a perfect corona component
    assert recognize_corona(Graph.from_edges(3, [(0, 1)])) is None


def test_recognize_corona_matching_components():
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert recognize_corona(matching).to_list() == [0, 2]


def test_recognize_diadem_examples():
    base, s = recognize_diadem(path_graph(3))
    assert s == 1 and base.to_list() == [1]
    assert recognize_diadem(cycle_graph(4)) is None
    h = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    got = recognize_diadem(diadem(h))
    assert got is not None
    base, s = got
    assert s == 0 and base.to_list() == [0, 1, 2, 3, 4]


def test_recognize_diadem_rejects_double_leaf_on_nonsupport():
    # two pendant leaves on one cycle vertex: strong support exists but the
    # rest is no corona
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 4), (0, 5)])
    assert recognize_diadem(g) is None


def test_closed_form_tables():
    assert closed_form(path_graph(10)) == 4
    assert closed_form(complete_bipartite_graph(1, 7)) == 1
    assert closed_form(corona(path_graph(3), complete_graph(1))) == 6
    assert closed_form(cycle_graph(4)) == 2
    assert closed_form(Graph.from_edges(4, [(0, 1), (1, 2)])) is None  # disconnected


def test_closed_form_gives_every_wheel_1():
    # the hub is a universal vertex, so the n >= 3 branch answers every wheel
    for n in range(4, 13):
        assert closed_form(wheel_graph(n)) == 1
        assert closed_form(relabel(wheel_graph(n), list(range(n))[::-1])) == 1


def test_closed_form_matches_oracle_on_families():
    cases = []
    cases += [path_graph(n) for n in range(1, 13)]
    cases += [cycle_graph(n) for n in range(3, 13)]
    cases += [complete_graph(n) for n in range(1, 13)]
    cases += [
        complete_bipartite_graph(m, n)
        for m in range(1, 7)
        for n in range(m, 7)
        if m + n <= 12
    ]
    cases += [wheel_graph(n) for n in range(4, 13)]
    for g in cases:
        assert closed_form(g) == gamma_cer_oracle(g).value, g


def test_closed_form_matches_oracle_on_coronas_of_small_connected_bases():
    for n in range(1, 5):
        for h in enumerate_labeled_graphs(n):
            from certdom import is_connected

            if not is_connected(h):
                continue
            g = corona(h, complete_graph(1))
            assert closed_form(g) == g.n == gamma_cer_oracle(g).value


def test_closed_form_over_every_labeled_graph_up_to_order_6():
    # every answer is exact, and the digest pins the whole sequence of
    # answers, None included, in enumeration order
    digest = hashlib.sha256()
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            val = closed_form(g)
            if val is not None:
                assert val == gamma_cer_oracle(g).value, g
            digest.update(repr(val).encode())
    assert digest.hexdigest() == (
        "82d0160152dc3de42e8fe4964e2ef6b89daa5fd20424b5739bd8e7b63e20a731")


def test_overlapping_classes_agree_on_values():
    # a graph matched by several recognizers must get the same value from each
    from certdom.structure import (
        gamma_cer_complete,
        gamma_cer_complete_bipartite,
        gamma_cer_cycle,
        gamma_cer_path,
    )

    k2 = complete_graph(2)
    assert gamma_cer_complete(2) == gamma_cer_path(2) == 2
    assert gamma_cer_complete_bipartite(1, 1) == 2
    assert closed_form(k2) == 2
    k3 = complete_graph(3)
    assert gamma_cer_complete(3) == gamma_cer_cycle(3) == closed_form(k3) == 1


def test_value_n_predictor_examples():
    assert check_gamma_cer_equals_n(empty_graph(5))
    assert check_gamma_cer_equals_n(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]))
    assert not check_gamma_cer_equals_n(cycle_graph(3))


def _plus(g: Graph, h: Graph) -> Graph:
    return Graph.from_edges(g.n + h.n, g.edges() + [(g.n + u, g.n + v) for u, v in h.edges()])


def test_value_n_minus_2_predictor_examples():
    k1, k3, c4 = complete_graph(1), complete_graph(3), cycle_graph(4)
    cases = [
        (c4, True),
        (diadem(complete_graph(2)).add_vertex([]), True),  # diadem plus isolated vertex
        (_plus(c4, corona(path_graph(2), k1)), True),
        (_plus(path_graph(3), k1), True),
        (diadem(c4), True),
        (path_graph(4), False),
        # two special components, or one odd vertex with three leaves
        (_plus(k3, k3), False),
        (_plus(k3, c4), False),
        (_plus(diadem(path_graph(3)), k3), False),
        (complete_bipartite_graph(1, 3), False),
    ]
    for g, want in cases:
        assert check_gamma_cer_equals_n_minus_2(g) is want, g
        assert (gamma_cer_oracle(g).value == g.n - 2) is want, g
    with pytest.raises(ValueError):
        check_gamma_cer_equals_n_minus_2(complete_graph(2))


def test_predictors_sound_exhaustively_to_n5():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            value = gamma_cer_oracle(g).value
            assert check_gamma_cer_equals_n(g) == (value == n)
            if n >= 3:
                assert check_gamma_cer_equals_n_minus_2(g) == (value == n - 2)


def test_diadem_value_formula_for_small_bases(rng):
    for n in range(1, 5):
        for h in enumerate_labeled_graphs(n):
            g = diadem(h)
            assert gamma_cer_oracle(g).value == g.n - 2
            got = recognize_diadem(g)
            assert got is not None and got[0].to_list() == list(range(n))
    # sampled larger bases keep the diadem order within the oracle's reach
    for n in (5, 6):
        for _ in range(20):
            g = diadem(random_graph(n, rng.random(), rng))
            assert g.n <= 14
            assert gamma_cer_oracle(g).value == g.n - 2


# ---------------------------------------------------------------------------
# The recognizers against their definitions, by brute force over the rows
# ---------------------------------------------------------------------------

def _corona_bases(adj, verts):
    """Every base B of the subgraph induced on the mask ``verts``: |B| is
    half its order, every vertex outside B has exactly one neighbour, that
    neighbour is in B, and these neighbours cover B once each."""
    order = verts.bit_count()
    if order % 2:
        return []
    vs = [v for v in range(len(adj)) if verts >> v & 1]
    # a vertex of another degree cannot lie outside B
    forced = sum(1 << v for v in vs if (adj[v] & verts).bit_count() != 1)
    free = [v for v in vs if not forced >> v & 1]
    need = order // 2 - forced.bit_count()
    bases = []
    for extra in combinations(free, need) if need >= 0 else ():
        base = forced | sum(1 << v for v in extra)
        covered = 0
        for v in vs:
            if not base >> v & 1:
                nbr = adj[v] & verts
                if not nbr & base or nbr & covered:
                    break
                covered |= nbr
        else:
            if covered == base:
                bases.append(base)
    return bases


def _diadems(adj):
    """(B, s) for every leaf l on a vertex s such that G - l is a corona
    with a base B that contains s."""
    full = (1 << len(adj)) - 1
    found = []
    for leaf, row in enumerate(adj):
        if row.bit_count() == 1:
            s = row.bit_length() - 1
            found += [(b, s) for b in _corona_bases(adj, full & ~(1 << leaf)) if b >> s & 1]
    return found


def _component_masks(adj):
    seen, comps = 0, []
    for v in range(len(adj)):
        if not seen >> v & 1:
            comp, todo = 0, [v]
            while todo:
                u = todo.pop()
                if not comp >> u & 1:
                    comp |= 1 << u
                    todo += [w for w in range(len(adj)) if adj[u] >> w & 1]
            seen |= comp
            comps.append(comp)
    return comps


def _check_against_definitions(g):
    adj, n = g.adj, g.n
    comps = _component_masks(adj)
    lows = sum(c & -c for c in comps if c.bit_count() == 2)

    bases = _corona_bases(adj, (1 << n) - 1) if n else []
    got = recognize_corona(g)
    if bases:
        assert got.mask in bases and got.mask & lows == lows, g
    else:
        assert got is None, g

    diadems = _diadems(adj)
    got = recognize_diadem(g)
    if diadems:
        assert (got[0].mask, got[1]) in diadems and got[0].mask & lows == lows, g
    else:
        assert got is None, g

    assert check_gamma_cer_equals_n(g) == all(
        c.bit_count() == 1 or _corona_bases(adj, c) for c in comps), g

    edges = [(u, v) for u in range(n) for v in range(u) if adj[u] >> v & 1]
    sides = {tuple(sorted((a.bit_count(), n - a.bit_count())))
             for a in range(1, (1 << n) - 1, 2)  # vertex 0 on side A, B non-empty
             if len(edges) == a.bit_count() * (n - a.bit_count())
             and all((a >> u ^ a >> v) & 1 for u, v in edges)}
    assert complete_bipartite_sides(g) == (sides.pop() if sides else None), g


def _seeded_coronas_and_diadems(rng, count):
    """Relabeled coronas and diadems of order 7-16 on random bases, each
    followed by a copy with one edge flipped and one with an extra
    isolated or pendant vertex."""
    for _ in range(count):
        if rng.random() < 0.5:
            g = diadem(random_graph(rng.randrange(3, 8), rng.random(), rng))
        else:
            g = corona(random_graph(rng.randrange(4, 9), rng.random(), rng),
                       complete_graph(1))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        yield g
        u, v = rng.sample(range(g.n), 2)
        yield g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
        yield g.add_vertex([rng.randrange(g.n)] if rng.random() < 0.5 else [])


def test_recognizers_match_their_definitions_exhaustively_to_n6():
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            _check_against_definitions(g)


def test_recognizers_match_their_definitions_on_seeded_coronas_and_diadems(rng):
    recognized = 0
    for g in _seeded_coronas_and_diadems(rng, 300):
        _check_against_definitions(g)
        recognized += recognize_corona(g) is not None or recognize_diadem(g) is not None
    assert recognized >= 300  # the unperturbed graphs at least


def test_recognizers_build_no_graph(monkeypatch):
    # every induced subgraph and every complement goes through Graph._derived
    matching = Graph.from_edges(6, [(0, 4), (1, 3), (2, 5)])
    corona_plus_isolated = corona(cycle_graph(5), complete_graph(1)).add_vertex([])
    diadem_plus_k2 = diadem(path_graph(3)).add_vertex([]).add_vertex([7])
    k34 = complete_bipartite_graph(3, 4)

    def refuse(cls, n, rows):
        raise AssertionError("a recognizer built a graph")

    monkeypatch.setattr(Graph, "_derived", classmethod(refuse))
    assert recognize_corona(matching).to_list() == [0, 1, 2]
    assert recognize_corona(corona_plus_isolated) is None
    assert check_gamma_cer_equals_n(corona_plus_isolated)
    base, s = recognize_diadem(diadem_plus_k2)
    assert (base.to_list(), s) == ([0, 1, 2, 7], 0)
    assert recognize_diadem(matching) is None
    assert complete_bipartite_sides(k34) == (3, 4)
    assert complete_bipartite_sides(matching) is None
    for g in (matching, corona_plus_isolated, diadem_plus_k2, k34):
        for recognizer in (recognize_corona, recognize_diadem, check_gamma_cer_equals_n,
                           check_gamma_cer_equals_n_minus_2, complete_bipartite_sides):
            recognizer(g)
