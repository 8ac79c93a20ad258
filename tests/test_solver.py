import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import certdom
from certdom import (
    Graph,
    SizeLimitError,
    SolverConfig,
    all_min_dominating_sets,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    empty_graph,
    fig1_graph,
    fig3a_graph,
    find_dd2_pair,
    gamma_cer_oracle,
    gamma_cer_solve,
    gamma_oracle,
    gamma_solve,
    is_certified_dominating,
    is_dd2_pair,
    is_dominating,
    path_graph,
    wheel_graph,
)
from certdom import solver
from certdom.suite import enumerate_labeled_graphs

from conftest import STATS_KEYS, random_graph, seeded_gnp_40


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def test_gamma_oracle_examples():
    assert gamma_oracle(path_graph(4)).value == 2
    assert gamma_oracle(complete_graph(5)).value == 1
    assert gamma_oracle(cycle_graph(6)).value == 2


def test_gamma_cer_oracle_examples():
    assert gamma_cer_oracle(path_graph(4)).value == 4
    r = gamma_cer_oracle(complete_bipartite_graph(2, 2))
    assert r.value == 2
    assert r.certificate.to_list() == [0, 1]  # one full side; crossing pairs fail
    assert gamma_cer_oracle(wheel_graph(6)).value == 1


def test_oracle_certificates_pass_their_predicates(rng):
    for _ in range(40):
        g = random_graph(rng.randrange(0, 8), 0.35, rng)
        rc = gamma_cer_oracle(g)
        rg = gamma_oracle(g)
        assert is_certified_dominating(g, rc.certificate)
        assert is_dominating(g, rg.certificate)
        assert len(rc.certificate) == rc.value
        assert len(rg.certificate) == rg.value


def test_oracle_refuses_large_graphs():
    with pytest.raises(SizeLimitError):
        gamma_oracle(empty_graph(21))
    with pytest.raises(SizeLimitError):
        all_min_dominating_sets(empty_graph(21))


def test_oracle_trivial_graphs():
    assert gamma_oracle(empty_graph(0)).value == 0
    assert gamma_cer_oracle(empty_graph(0)).value == 0
    assert gamma_cer_oracle(complete_graph(1)).value == 1


def test_references_match_the_definitions_over_every_raw_mask():
    # the answers straight from the definitions: every one of the 2^n masks,
    # in (size, sorted vertex list) order, tested by predicates read off
    # g.adj alone
    def order(n):
        return sorted(range(1 << n), key=lambda m: (
            bin(m).count("1"), [v for v in range(n) if m >> v & 1]))

    def dominating(g, m):
        return all(m >> v & 1 or g.adj[v] & m for v in range(g.n))

    def certified(g, m):
        return dominating(g, m) and all(
            bin(g.adj[v] & ~m).count("1") != 1 for v in range(g.n) if m >> v & 1)

    rng = random.Random(20161)
    graphs = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
    graphs += [random_graph(n, p, rng) for n in range(6, 10) for p in (0.2, 0.4, 0.6)]
    for g in graphs:
        masks = order(g.n)
        dom = [m for m in masks if dominating(g, m)]
        cer = next(m for m in masks if certified(g, m))
        gamma = bin(dom[0]).count("1")
        assert gamma_oracle(g).value == gamma
        assert gamma_oracle(g).certificate.mask == dom[0], g
        assert gamma_cer_oracle(g).value == bin(cer).count("1")
        assert gamma_cer_oracle(g).certificate.mask == cer, g
        want = [m for m in dom if bin(m).count("1") == gamma]
        assert [d.mask for d in all_min_dominating_sets(g)] == want, g


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def test_gamma_cer_solve_fixture_values():
    assert gamma_cer_solve(fig1_graph(2)).value == 5
    assert gamma_cer_solve(fig3a_graph(3)).value == 4
    ring = corona(cycle_graph(5), complete_graph(1))
    assert gamma_cer_solve(ring).value == 10
    assert gamma_cer_solve(empty_graph(7)).value == 7


def test_gamma_solve_examples():
    assert gamma_solve(cycle_graph(9)).value == 3
    assert gamma_solve(complete_bipartite_graph(1, 5)).value == 1
    assert gamma_solve(path_graph(7)).value == 3


def test_solver_matches_oracle_small(rng):
    for _ in range(150):
        g = random_graph(rng.randrange(0, 8), rng.random(), rng)
        assert gamma_cer_solve(g).value == gamma_cer_oracle(g).value
        assert gamma_solve(g).value == gamma_oracle(g).value


def test_certificate_is_lexicographically_smallest(rng):
    # the oracle returns the first hit in size-then-lex order, which is
    # exactly the solver's pinned tie break
    for _ in range(120):
        g = random_graph(rng.randrange(1, 8), rng.random(), rng)
        assert (
            gamma_cer_solve(g).certificate.mask
            == gamma_cer_oracle(g).certificate.mask
        )
        assert gamma_solve(g).certificate.mask == gamma_oracle(g).certificate.mask


def test_certificate_is_lexicographically_smallest_mid_n():
    # past the exhaustive suite's reach: n 10-16 over several densities
    import random

    rng = random.Random(20261018)
    for i in range(30):
        g = random_graph(rng.randrange(10, 17), (0.12, 0.2, 0.3, 0.45, 0.6)[i % 5], rng)
        lex_gamma = gamma_oracle(g).certificate.mask
        lex_cer = gamma_cer_oracle(g).certificate.mask
        assert gamma_solve(g).certificate.mask == lex_gamma
        assert gamma_cer_solve(g).certificate.mask == lex_cer


def test_dominated_pins_keep_the_oracles_answers():
    # a dropped branch candidate must never cost the optimum or the
    # lex-smallest certificate; the certified search drops none
    import random

    rng = random.Random(20)
    pinned = 0
    for i in range(200):
        g = random_graph(rng.randrange(8, 17), (0.15, 0.25, 0.35, 0.5)[i % 4], rng)
        want, got = gamma_oracle(g), gamma_solve(g)
        assert (got.value, got.certificate.mask) == (want.value, want.certificate.mask), g
        want_cer, got_cer = gamma_cer_oracle(g), gamma_cer_solve(g)
        assert (got_cer.value, got_cer.certificate.mask) == (
            want_cer.value, want_cer.certificate.mask), g
        pinned += got.stats.dominated_pins > 0
    assert pinned >= 20


def test_component_additivity_and_stats():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4)])  # P3 + K2 + 2 K1
    res = gamma_cer_solve(g)
    assert res.value == 1 + 2 + 1 + 1
    assert res.stats.components_split == 4
    parts = [gamma_cer_solve(c).value for _, c in __import__("certdom").components(g)]
    assert sum(parts) == res.value


def test_interleaved_components_map_back_to_their_labels():
    # a star on 0, 2, 4, 6, 8 centred at 4, the path 1-3-5-7-9-11 and the
    # isolated vertex 10: each part's certificate is remapped to g's labels
    g = Graph.from_edges(12, [(4, 0), (4, 2), (4, 6), (4, 8),
                              (1, 3), (3, 5), (5, 7), (7, 9), (9, 11)])
    assert gamma_oracle(g).certificate.to_list() == [3, 4, 9, 10]
    assert gamma_cer_oracle(g).certificate.to_list() == [3, 4, 9, 10]
    for res in (gamma_solve(g), gamma_cer_solve(g)):
        assert (res.value, res.certificate.to_list()) == (4, [3, 4, 9, 10])
        assert res.stats.components_split == 3


def test_certificate_contains_all_supports(rng):
    from certdom import leaf_profile

    for _ in range(80):
        g = random_graph(rng.randrange(1, 9), 0.25, rng)
        cert = gamma_cer_solve(g).certificate
        prof = leaf_profile(g)
        assert not (prof.weak | prof.strong) & ~cert.mask


def test_node_limit_flags_unproven():
    g = seeded_gnp_40()
    for solve, valid in ((gamma_cer_solve, is_certified_dominating),
                         (gamma_solve, is_dominating)):
        full = solve(g)
        assert full.stats.nodes_expanded > 1  # a 1-node limit really cuts
        res = solve(g, SolverConfig(node_limit=1))
        assert not res.proven
        assert valid(g, res.certificate)
        assert res.value >= full.value
        assert len(res.certificate) == res.value


def test_certificate_nodes_count_the_lex_phase():
    g = seeded_gnp_40()
    for solve in (gamma_cer_solve, gamma_solve):
        stats = solve(g).stats
        assert 0 < stats.certificate_nodes <= stats.nodes_expanded
        assert list(stats.as_dict()) == STATS_KEYS


def test_prune_counts_show_the_fractional_bound_at_work():
    g = seeded_gnp_40()
    for solve in (gamma_cer_solve, gamma_solve):
        stats = solve(g).stats
        assert stats.fractional_prunes > 0
        # every pruned node was expanded first
        assert stats.packing_prunes + stats.fractional_prunes <= stats.nodes_expanded
    # propagation cuts branches of the certified search that cannot be certified
    assert gamma_cer_solve(fig1_graph(3)).stats.dead_ends == 1


def test_both_solves_on_a_dense_gnp_stay_small():
    # the fractional bound settles most failed first-hit queries of the
    # certificate phase; the greedy packing alone needs 1,523 nodes here
    g = seeded_gnp_40()
    for solve in (gamma_cer_solve, gamma_solve):
        assert solve(g).stats.nodes_expanded <= 600


def _search(g, certified):
    return solver._Search(g, g.full_mask if certified else 0, solver.SolveStats())


def test_fractional_bound_beats_the_greedy_packing_on_c7():
    # every closed neighbourhood of C7 holds 3 of its 7 vertices, so the
    # weights 1/3 sum to 7/3: at least 3 vertices, where greedy packs 2
    search = _search(cycle_graph(7), False)
    assert search._pack_bound(0, 0, 2) == 2  # the greedy count meets need
    assert search._pack_bound(0, 0, 7) == 3 == gamma_oracle(cycle_graph(7)).value


def _pinned_minimum(g, in_mask, out_mask, valid):
    """Smallest valid set holding in_mask and avoiding out_mask, or None."""
    free = g.full_mask & ~in_mask & ~out_mask
    best = None
    sub = free
    while True:  # every subset of free, the empty one last
        mask = in_mask | sub
        if (best is None or mask.bit_count() < best) and valid(g, mask):
            best = mask.bit_count()
        if not sub:
            return best
        sub = (sub - 1) & free


def test_propagation_and_bound_are_sound_under_pins():
    # size + bound never exceeds the best completion of the pins, and a
    # dead end has none, in both modes; certified mode against the
    # certified minimum
    import random

    from certdom.domination import _certified, _dominates

    rng = random.Random(20261018)
    graphs = [g for n in range(7) for g in enumerate_labeled_graphs(n)]
    graphs += [random_graph(rng.randrange(7, 11), rng.choice((0.15, 0.3, 0.5)), rng)
               for _ in range(300)]
    for g in graphs:
        in_mask = out_mask = 0
        for v in range(g.n):
            r = rng.random()
            if r < 0.2:
                in_mask |= 1 << v
            elif r < 0.45:
                out_mask |= 1 << v
        for certified, valid in ((False, _dominates), (True, _certified)):
            search = _search(g, certified)
            best = _pinned_minimum(g, in_mask, out_mask, valid)
            state = search._propagate(in_mask, out_mask, search._cover(in_mask))
            if state is None:
                assert best is None, g
                continue
            if best is not None:  # propagation need not find every dead end
                pinned_in, pinned_out, covered = state
                bound = search._pack_bound(pinned_out, covered, g.n + 1)
                assert pinned_in.bit_count() + bound <= best, g


def test_reduced_cost_pins_lie_in_no_completion_within_the_bound():
    # where the bound b falls one short of need = b + 1, every vertex it pins
    # lies in no dominating set that holds the in-pins, avoids the out-pins
    # and adds at most b vertices.  When b is the pinned optimum, these are
    # the optima, the zero-gap case of every certificate-phase query.  Both
    # modes; certified sets dominate.  A plain walk over subsets, sharing no
    # code with the search, finds those sets.
    import random

    rng = random.Random(20261019)
    tight = pinned = 0
    for _ in range(300):
        n = rng.randrange(5, 13)
        g = random_graph(n, rng.choice((0.2, 0.3, 0.45)), rng)
        closed = [1 << v for v in range(n)]
        for u, v in g.edges():
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        in_mask = out_mask = 0
        for v in range(n):
            r = rng.random()
            if r < 0.15:
                in_mask |= 1 << v
            elif r < 0.35:
                out_mask |= 1 << v
        for certified in (False, True):
            search = _search(g, certified)
            state = search._propagate(in_mask, out_mask, search._cover(in_mask))
            if state is None:
                continue
            pinned_in, pinned_out, covered = state
            if covered == g.full_mask:
                continue
            bound = search._pack_bound(pinned_out, covered, n + 1)
            assert search._pack_bound(pinned_out, covered, bound + 1) == bound
            pins = search.pins & ~pinned_in
            free = g.full_mask & ~pinned_in & ~pinned_out
            held = 0  # every vertex of a qualifying set
            sub = free
            while True:  # every subset of free, the empty one last
                if sub.bit_count() <= bound:
                    cover = 0
                    for v in range(n):
                        if (pinned_in | sub) >> v & 1:
                            cover |= closed[v]
                    if cover == g.full_mask:
                        held |= sub
                if not sub:
                    break
                sub = (sub - 1) & free
            assert not pins & held, (g, certified, in_mask, out_mask)
            tight += held != 0
            pinned += held != 0 and pins != 0
    assert tight > 250 and pinned > 150


def test_incremental_propagation_matches_a_fresh_fixpoint():
    # from a fixpoint, a vertex pinned in and some pinned out, propagated
    # from what moved, reach the fixpoint (or the dead end) that a
    # propagation from scratch reaches on the same pins, in both modes
    import random

    rng = random.Random(20261020)
    moves = dead = 0
    for _ in range(1500):
        n = rng.randrange(7, 15)
        g = random_graph(n, rng.choice((0.15, 0.25, 0.4)), rng)
        for certified in (False, True):
            search = _search(g, certified)
            in_mask = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            out_mask = rng.getrandbits(n) & rng.getrandbits(n) & ~in_mask
            state = search._propagate(in_mask, out_mask, search._cover(in_mask))
            if state is None:
                continue
            in_mask, out_mask, covered = state
            undec = [v for v in range(n) if not (in_mask | out_mask) >> v & 1]
            if not undec:
                continue
            rng.shuffle(undec)
            if rng.random() < 0.5:
                moved = 1 << undec[0]
                in_mask |= moved
                covered |= search.closed[undec[0]]
            else:
                moved = sum(1 << v for v in undec[:rng.randrange(1, 4)])
                out_mask |= moved
            want = search._propagate(in_mask, out_mask, search._cover(in_mask))
            got = search._propagate(in_mask, out_mask, covered, moved)
            assert got == want, (g, certified)
            dead += want is None
            moves += want is not None and want != (in_mask, out_mask, covered)
    assert moves > 100 and dead > 100


def test_certified_closure_is_the_smallest_certified_superset():
    # with nothing pinned out, the certified fixpoint from a dominating set
    # d lies inside every certified superset of d and is certified itself,
    # so it is the smallest one, the incumbent a certified solve builds from
    # its value phase; from a leaf-free d it takes no leaf of a strong support
    import random

    from certdom.domination import _certified
    from certdom.graphs import leaf_profile

    rng = random.Random(20261021)
    graphs = [g for n in range(7) for g in enumerate_labeled_graphs(n)]
    graphs += [random_graph(rng.randrange(7, 11), rng.choice((0.15, 0.3, 0.5)), rng)
               for _ in range(300)]
    grew = leaf_free = 0
    for g in graphs:
        prof = leaf_profile(g)
        search = _search(g, True)
        avoid = prof.leaves if rng.random() < 0.5 else 0
        d = rng.getrandbits(g.n) & rng.getrandbits(g.n) & ~avoid
        for u in range(g.n):
            if not search._cover(d) >> u & 1:
                cand = [v for v in range(g.n) if (search.closed[u] & ~avoid) >> v & 1]
                d |= 1 << rng.choice(cand or [u])
        closure, out_mask, covered = search._propagate(d, 0, search._cover(d))
        assert out_mask == 0 and covered == g.full_mask and _certified(g, closure), g
        free = g.full_mask & ~d
        sub = free
        while True:  # every subset of free, the empty one last
            if _certified(g, d | sub):
                assert closure & ~(d | sub) == 0, g
            if not sub:
                break
            sub = (sub - 1) & free
        if not d & prof.leaves:
            assert not closure & prof.strong_leaves, g
            leaf_free += prof.strong_leaves != 0
        grew += closure != d
    assert grew > 10000 and leaf_free > 1000


def test_node_limit_in_certificate_phase_keeps_proven_value():
    # a limit just past the value phase stops the lex phase; the value is
    # already proven and the witness then returned is an optimal set
    g = seeded_gnp_40()
    for solve, valid in ((gamma_cer_solve, is_certified_dominating),
                         (gamma_solve, is_dominating)):
        full = solve(g)
        limit = full.stats.nodes_expanded - full.stats.certificate_nodes + 1
        res = solve(g, SolverConfig(node_limit=limit))
        assert (res.value, res.gamma) == (full.value, full.gamma)
        assert valid(g, res.certificate)
        assert len(res.certificate) == full.value


def test_value_only_certified_solve_agrees_with_the_full_solve():
    # lex_min=False skips the certificate phase: the same value and gamma,
    # a certified set of that size, and no certificate nodes
    graphs = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
    for g in graphs + [seeded_gnp_40()]:
        full = gamma_cer_solve(g)
        res = gamma_cer_solve(g, lex_min=False)
        assert (res.value, res.gamma) == (full.value, full.gamma), g
        assert is_certified_dominating(g, res.certificate), g
        assert len(res.certificate) == res.value, g
        assert res.proven and res.stats.certificate_nodes == 0, g


def test_value_only_solve_is_proven_where_the_full_solve_stops_in_its_lex_phase():
    g = seeded_gnp_40()
    full = gamma_cer_solve(g)
    limit = full.stats.nodes_expanded - full.stats.certificate_nodes + 1
    cut = SolverConfig(node_limit=limit)
    res = gamma_cer_solve(g, cut, lex_min=False)
    assert res.proven and (res.value, res.gamma) == (full.value, full.gamma)
    assert is_certified_dominating(g, res.certificate)
    assert not gamma_cer_solve(g, cut).proven


def test_node_limit_keeps_the_best_set_found():
    # a limit inside the value search returns the best set it found, not
    # the greedy cover it started from (11 here); the value phase takes 151
    # of the 292 nodes and finds 10 by node 55, so 100 stops it after that
    import random

    from certdom.graphs import leaf_profile

    g = random_graph(45, 0.1, random.Random(23))
    assert not leaf_profile(g).leaves  # the value phase pins nothing here
    cut = SolverConfig(node_limit=100)
    res = gamma_solve(g, cut)
    assert not res.proven and res.value == gamma_solve(g).value == 10
    assert is_dominating(g, res.certificate)


def test_a_stopped_certified_solve_is_no_larger_than_its_repaired_greedy_cover():
    # a limit inside the value phase of the certified solve still seeds its
    # certified search with a dominating set repaired into a certified set,
    # not with nearly the whole vertex set: on the 8x8 grid the best set
    # found by 2,000 nodes once repaired to all 64 vertices, the greedy cover
    # to 20.  The search now finishes the grid's value phase within 500
    # nodes, so it stops at 200.  On the connected G(70, 0.04) the best set
    # found by 20 nodes repairs to 31, the greedy cover to 29: without the
    # greedy closure the solve returns 31.
    import random

    from certdom import is_connected
    from certdom.domination import _certified
    from certdom.graphs import leaf_profile

    grid = Graph.from_edges(64, [(v, v + d) for v in range(64) for d in (1, 8)
                                 if v + d < 64 and (d == 8 or v % 8 < 7)])
    for g, limit in ((random_graph(70, 0.04, random.Random(8)), 20), (grid, 200)):
        assert is_connected(g)
        res = gamma_cer_solve(g, SolverConfig(node_limit=limit))
        assert not res.proven and res.gamma is None  # the value phase stopped
        assert is_certified_dominating(g, res.certificate)
        cover = _search(g, False).greedy_cover(leaf_profile(g).leaves)
        add = True
        while add:  # bring in the lone outside neighbour of each half-shadowed vertex
            add = 0
            for v in range(g.n):
                row = g.adj[v] & ~cover
                if cover >> v & 1 and row.bit_count() == 1:
                    add |= row
            cover |= add
        assert _certified(g, cover)
        assert res.value <= cover.bit_count() < g.n // 2


def _tree_gamma(g: Graph) -> int:
    """Domination number of a forest by the linear tree DP (Cockayne,
    Goodman & Hedetniemi 1975): per rooted subtree, the fewest vertices with
    the root in the set, out but dominated, or out and left to its parent."""
    nbrs = [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]
    parent = [None] * g.n
    total = 0
    for root in range(g.n):
        if parent[root] is not None:
            continue
        parent[root] = -1
        order = [root]
        for v in order:
            for u in nbrs[v]:
                if parent[u] is None:
                    parent[u] = v
                    order.append(u)
        inn, dom, free = {}, {}, {}
        for v in reversed(order):
            kids = [u for u in nbrs[v] if parent[u] == v]
            inn[v] = 1 + sum(min(inn[u], dom[u], free[u]) for u in kids)
            settle = sum(min(inn[u], dom[u]) for u in kids)
            dom[v] = settle + min((inn[u] - min(inn[u], dom[u]) for u in kids),
                                  default=g.n + 1)
            free[v] = sum(dom[u] for u in kids)
        total += min(inn[root], dom[root])
    return total


def _random_tree_edges(n: int, rng, off: int = 0) -> list[tuple[int, int]]:
    return [(off + v, off + rng.randrange(v)) for v in range(1, n)]


def test_gamma_on_trees_matches_the_tree_dp():
    # the leaf-free value phase proves gamma on trees within the sparse
    # workload's node limit, in both solves
    import random

    rng = random.Random(20261018)
    graphs = [Graph.from_edges(n, _random_tree_edges(n, rng)) for n in (50, 200, 800)]
    edges, n = [], 0
    for size in (1, 2, 3, 7, 20, 45, 90):  # a forest, K1 and K2 included
        edges += _random_tree_edges(size, rng, n)
        n += size
    graphs.append(Graph.from_edges(n, edges))
    cut = SolverConfig(node_limit=3000)
    for g in graphs:
        want = _tree_gamma(g)
        res = gamma_solve(g, cut)
        # the certificate phase too finishes, splitting into parts
        assert res.proven and res.value == res.gamma == want
        assert gamma_cer_solve(g, cut).gamma == want


def _sparse_graphs(rng, sizes) -> list[Graph]:
    """A random recursive tree, a forest of two or three such trees and a
    G(n, 1.5/n) for each n in ``sizes``."""
    graphs = []
    for n in sizes:
        graphs.append(Graph.from_edges(n, _random_tree_edges(n, rng)))
        cuts = sorted(rng.sample(range(2, n - 1), rng.choice((1, 2))))
        edges = []
        for lo, hi in zip([0] + cuts, cuts + [n]):
            edges += _random_tree_edges(hi - lo, rng, lo)
        graphs.append(Graph.from_edges(n, edges))
        graphs.append(random_graph(n, 1.5 / n, rng))
    return graphs


def test_searches_match_the_oracles_on_sparse_graphs():
    # trees, forests and sparse G(n, p): values and lex-smallest certificates
    # of both solves against the subset oracles
    import random

    rng = random.Random(20261019)
    for g in _sparse_graphs(rng, [*range(12, 19)] * 2):
        want = gamma_oracle(g)
        want_cer = gamma_cer_oracle(g)
        res = gamma_solve(g)
        assert (res.value, res.certificate.mask) == (want.value, want.certificate.mask), g
        cer = gamma_cer_solve(g)
        assert (cer.value, cer.certificate.mask) == (
            want_cer.value, want_cer.certificate.mask), g


def test_a_stopped_solve_counts_one_node_past_its_limit():
    # once the limit fires, no later search of the solve counts a node: not
    # a later component's certificate phase, nor the certified search after
    # a stopped value phase (the connected G(40, 0.2) at a limit of 5)
    import random

    rng = random.Random(3)
    graphs = [seeded_gnp_40()]
    for trees in (2, 3) * 6:
        edges, n = [], 0
        for size in [rng.randrange(10, 40) for _ in range(trees)]:
            edges += _random_tree_edges(size, rng, n)
            n += size
        graphs.append(Graph.from_edges(n, edges))
    stopped = 0
    for g in graphs:
        for limit in (5, 10, 20, 50):
            for solve in (gamma_solve, gamma_cer_solve):
                res = solve(g, SolverConfig(node_limit=limit))
                if not res.proven:
                    stopped += 1
                    assert res.stats.nodes_expanded == limit + 1, (g, solve, limit)
    assert stopped >= 20


# sha256 over every labeled graph of order <= 5, in enumeration order, of
# repr((value, certificate, proven, gamma, stats)) of gamma_solve and
# gamma_cer_solve.  It pins the search tree, not only the answers: a change
# to a propagation rule or a bound that expands other nodes moves it.
_SEARCH_N5_SHA256 = "c47edde61161fcdc19047539eaed4a93954d08043ffc36cfab8aa7a3bb457007"


def test_search_fingerprint_on_every_graph_of_order_5():
    import hashlib

    digest = hashlib.sha256()
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            for solve in (gamma_solve, gamma_cer_solve):
                res = solve(g)
                digest.update(repr((res.value, res.certificate.to_list(), res.proven,
                                    res.gamma, res.stats.as_dict())).encode())
    assert digest.hexdigest() == _SEARCH_N5_SHA256


# sha256 over every labeled graph of order <= 5, in enumeration order, of
# repr((value, certificate, proven, gamma)) of gamma_solve, gamma_cer_solve
# and the value-only gamma_cer_solve.  Unlike _SEARCH_N5_SHA256 it reads no
# stats, so a pruning rule that moves only the search tree leaves it alone.
# The value-only certificate is any certified optimum, so a change to the
# branch order may move it.
_ANSWERS_N5_SHA256 = "fb899adb374fe2edd2f3de4b933caad4a1b588017aed68358f9cfeae23ffc6ec"

# the same pass, less the value-only certificate: what no search change may
# move, as values and lex-smallest certificates are a contract
_CONTRACT_N5_SHA256 = "430b4d874ab223c092787b0769d8810cb92f6a58c7557ea0822ef17cb09d11ab"


def test_answers_fingerprint_on_every_graph_of_order_5():
    import hashlib

    digest = hashlib.sha256()
    contract = hashlib.sha256()
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            answers = [(res.value, res.certificate.to_list(), res.proven, res.gamma)
                       for res in (gamma_solve(g), gamma_cer_solve(g),
                                   gamma_cer_solve(g, lex_min=False))]
            for answer in answers:
                digest.update(repr(answer).encode())
            value, _, proven, gamma = answers.pop()
            for answer in (*answers, (value, proven, gamma)):
                contract.update(repr(answer).encode())
    assert contract.hexdigest() == _CONTRACT_N5_SHA256
    assert digest.hexdigest() == _ANSWERS_N5_SHA256


def test_gamma_on_a_tree_corona_is_proven_with_the_lex_first_set():
    # taking the lower of each base/pendant pair gives the lex-smallest
    # gamma-set: the bases, as corona() numbers them first
    import random

    from conftest import relabel

    rng = random.Random(7)
    base = Graph.from_edges(100, _random_tree_edges(100, rng))
    g = corona(base, complete_graph(1))
    cut = SolverConfig(node_limit=3000)
    res = gamma_solve(g, cut)
    assert res.proven and res.value == res.gamma == 100 == _tree_gamma(g)
    assert res.certificate.to_list() == list(range(100))
    # relabeled, any one vertex of each pair still makes a gamma-set, so the
    # lex-smallest takes the lower of each; the lex pins rule out every
    # pendant above its base, so the search stays small
    perm = list(range(200))
    rng.shuffle(perm)
    res = gamma_solve(relabel(g, perm), cut)
    assert res.proven and res.value == res.gamma == 100
    assert res.certificate.to_list() == sorted(min(perm[b], perm[100 + b]) for b in range(100))


def test_lex_pins_rule_out_no_vertex_of_the_lex_smallest_gamma_set():
    # u is pinned out of the gamma certificate phase when a neighbour w < u
    # has N[u] inside N[w]; the oracle's lex-smallest gamma-set never holds
    # one, and no rep(u) is pinned itself
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            rep = solver._lower_covers(tuple(g.adj[v] | 1 << v for v in range(n)))
            assert not set(rep.values()) & rep.keys(), g
            assert not gamma_oracle(g).certificate.mask & sum(1 << u for u in rep), g


def test_lex_pins_trade_the_value_phase_witness(monkeypatch):
    # triangles 0-1-2 and 3-4-5 joined by 2-3: 0 pins out 1, and 3 pins out
    # 4 and 5.  An incumbent {2, 5} is already optimal, so the value phase
    # keeps it, and lex_first must get it as {2, 3}
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    monkeypatch.setattr(solver._Search, "greedy_cover", lambda self, out=0: 0b100100)
    witnesses = []
    lex_first = solver._Search.lex_first

    def spy(self, size, in_mask, out_mask, witness):
        witnesses.append(witness)
        return lex_first(self, size, in_mask, out_mask, witness)

    monkeypatch.setattr(solver._Search, "lex_first", spy)
    res = gamma_solve(g)
    assert witnesses == [0b001100]
    assert res.proven and res.certificate.to_list() == gamma_oracle(g).certificate.to_list() == [0, 3]
    # a claimed optimum that shrinks under the trade is a solver bug, also
    # under python -O
    monkeypatch.setattr(solver._Search, "solve_best", lambda self, i, o, inc: (3, 0b001011))
    with pytest.raises(AssertionError, match="shrank under the lex pins"):
        gamma_solve(g)


def test_solver_value_never_n_minus_1(rng):
    for _ in range(200):
        g = random_graph(rng.randrange(0, 9), rng.random(), rng)
        assert gamma_cer_solve(g).value != g.n - 1


_N_MINUS_1_SCRIPT = """
from certdom import VertexSet, path_graph, solver

if __debug__:
    raise SystemExit("expected to run under python -O")
solver._combine_components = lambda g, cfg, certified, lex_min: solver.SolveResult(
    g.n - 1, VertexSet(g.n, 0))
for lex_min in (True, False):
    try:
        solver.gamma_cer_solve(path_graph(3), lex_min=lex_min)
    except AssertionError as exc:
        print(exc)
    else:
        raise SystemExit(f"no error for a certified value of n - 1, lex_min={lex_min}")
"""


def test_value_n_minus_1_check_survives_python_O():
    src = str(Path(certdom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", _N_MINUS_1_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("n-1 is impossible") == 2  # with and without the lex phase


_BAD_CERTIFICATE_SCRIPT = """
from certdom import VertexSet, path_graph, solver

if __debug__:
    raise SystemExit("expected to run under python -O")
p4 = path_graph(4)  # 0-1-2-3; no case below reports the value n-1 = 3
value_only = lambda g: solver.gamma_cer_solve(g, lex_min=False)
cases = [
    (solver.gamma_cer_solve, 2, 0b0110),  # dominates, but 1 and 2 are half-shadowed
    (solver.gamma_cer_solve, 2, 0b1111),  # certified, but of size 4
    (value_only, 2, 0b0110),  # the same checks without the lex phase
    (value_only, 2, 0b1111),
    (solver.gamma_solve, 1, 0b0010),  # misses vertex 3
    (solver.gamma_solve, 1, 0b0110),  # dominates, but of size 2
]
for solve, value, mask in cases:
    solver._combine_components = lambda g, cfg, certified, lex_min: solver.SolveResult(
        value, VertexSet(g.n, mask))
    try:
        solve(p4)
    except AssertionError as exc:
        print(exc)
    else:
        raise SystemExit(f"{solve.__name__} accepted {mask:04b} as value {value}")
"""


def test_certificate_check_survives_python_O():
    src = str(Path(certdom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_CERTIFICATE_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("fails its check") == 6


def test_closed_form_tables_checked_by_an_independent_search(monkeypatch):
    # the solver must not read the tables it is used to check
    from certdom import structure
    from certdom.structure import (
        gamma_cer_complete,
        gamma_cer_complete_bipartite,
        gamma_cer_cycle,
        gamma_cer_path,
        gamma_cer_wheel,
    )

    def refuse(g):
        raise AssertionError("closed_form called by the solver")

    monkeypatch.setattr(structure, "closed_form", refuse)
    monkeypatch.setattr(certdom, "closed_form", refuse)
    cases = [(path_graph(n), gamma_cer_path(n)) for n in range(1, 13)]
    cases += [(cycle_graph(n), gamma_cer_cycle(n)) for n in range(3, 13)]
    cases += [(complete_graph(n), gamma_cer_complete(n)) for n in range(1, 13)]
    cases += [
        (complete_bipartite_graph(m, n), gamma_cer_complete_bipartite(m, n))
        for m in range(1, 7)
        for n in range(m, 7)
        if m + n <= 12
    ]
    cases += [(wheel_graph(n), gamma_cer_wheel(n)) for n in range(4, 13)]
    coronas = [corona(h, complete_graph(1))
               for h in (path_graph(1), path_graph(4), cycle_graph(5), wheel_graph(6))]
    cases += [(g, g.n) for g in coronas]
    for g, table in cases:
        res = gamma_cer_solve(g)
        assert res.value == table, g
        assert res.stats.closed_form_hits == 0
        assert list(res.stats.as_dict()) == STATS_KEYS


def _eager_greedy_cover(g, out_mask):
    # reference: rescan every allowed vertex for the largest gain each round
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    cover = chosen = 0
    while cover != g.full_mask:
        gains = [((closed[v] & ~cover).bit_count(), -v)
                 for v in range(g.n) if not out_mask >> v & 1]
        gain, neg_v = max(gains, default=(0, 0))
        if gain == 0:
            return None
        chosen |= 1 << -neg_v
        cover |= closed[-neg_v]
    return chosen


def test_greedy_cover_matches_eager_greedy(rng):
    import random

    from certdom.graphs import leaf_profile

    def greedy(g, out_mask):
        return solver._Search(g, 0, solver.SolveStats()).greedy_cover(out_mask)

    for _ in range(300):
        g = random_graph(rng.randrange(0, 11), rng.random(), rng)
        for out_mask in (0, rng.getrandbits(g.n), rng.getrandbits(g.n) & rng.getrandbits(g.n)):
            assert greedy(g, out_mask) == _eager_greedy_cover(g, out_mask)
    tree_rng = random.Random(20261018)
    for n in range(3, 60, 4):
        g = Graph.from_edges(n, [(v, tree_rng.randrange(v)) for v in range(1, n)])
        leaves = leaf_profile(g).leaves
        got = greedy(g, leaves)
        assert got is not None and got == _eager_greedy_cover(g, leaves)
    # the isolated vertex 3 of P3 + K1 cannot be dominated once it is out
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert greedy(g, 0b1100) is None
    assert _eager_greedy_cover(g, 0b1100) is None


def _heap_greedy_cover(g, out_mask):
    # reference: a lazy heap of (-gain, v) that re-scores a stale top
    from heapq import heapify, heappop, heapreplace

    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    heap = [(-closed[v].bit_count(), v) for v in range(g.n) if not out_mask >> v & 1]
    heapify(heap)
    cover = chosen = 0
    while cover != g.full_mask:
        if not heap or heap[0][0] == 0:
            return None
        neg_gain, v = heap[0]
        gain = (closed[v] & ~cover).bit_count()
        if gain == -neg_gain:
            heappop(heap)
            chosen |= 1 << v
            cover |= closed[v]
        else:
            heapreplace(heap, (-gain, v))
    return chosen


def test_greedy_cover_matches_the_lazy_heap():
    from certdom.graphs import leaf_profile

    def check(g, masks):
        search = solver._Search(g, 0, solver.SolveStats())
        for out_mask in masks:
            assert search.greedy_cover(out_mask) == _heap_greedy_cover(g, out_mask), (
                g.edges(), out_mask)

    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            check(g, range(1 << n))
    for g in enumerate_labeled_graphs(6):
        check(g, (0, leaf_profile(g).leaves))
    r = random.Random(20261022)
    for _ in range(300):
        n = r.randrange(7, 121)
        g = random_graph(n, r.choice([1.5 / n, 3 / n, 0.1, 0.3]), r)
        check(g, (0, leaf_profile(g).leaves, r.getrandbits(n) & r.getrandbits(n)))
    for n in (200, 800):
        g = Graph.from_edges(n, [(v, r.randrange(v)) for v in range(1, n)])
        check(g, (leaf_profile(g).leaves,))


def test_addition_dominates_within_matches_the_subset_enumeration():
    # for every non-edge uv and every size 0..n: has G + uv a dominating set
    # of at most that size holding exactly one of u and v?
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not g.has_edge(u, v)]
            for size in range(n + 1):
                below = solver.addition_dominates_within(g, size)
                for u, v in non_edges:
                    want = any((m >> u ^ m >> v) & 1 for k in range(size + 1)
                               for m in solver._dominating_masks(g.add_edge(u, v), k))
                    assert below(u, v) == want, (g.edges(), size, u, v)


def test_equality_witness_search_matches_the_enumeration():
    # the first gamma-set, in lexicographic order, that equality_witness
    # accepts: one watched search stands in for the subset enumeration
    from certdom.domination import equality_witness

    def check(g):
        mins = all_min_dominating_sets(g)  # the first size with a set is gamma
        want = equality_witness(g, (d.mask for d in mins))
        assert solver.equality_witness_search(g, len(mins[0])) == want, g.edges()

    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            check(g)
    rng = random.Random("witness")
    for _ in range(300):
        check(random_graph(rng.randrange(7, 21), rng.choice((0.1, 0.2, 0.3, 0.5)), rng))


# ---------------------------------------------------------------------------
# Minimum dominating set enumeration
# ---------------------------------------------------------------------------

def test_all_min_dominating_sets_examples():
    assert [d.to_list() for d in all_min_dominating_sets(path_graph(3))] == [[1]]
    assert [d.to_list() for d in all_min_dominating_sets(complete_graph(3))] == [
        [0], [1], [2],
    ]
    # C4: every pair dominates (pinned by enumeration at size gamma = 2)
    got = [d.to_list() for d in all_min_dominating_sets(cycle_graph(4))]
    assert got == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def test_all_min_dominating_sets_lex_order(rng):
    for _ in range(30):
        g = random_graph(rng.randrange(1, 7), 0.4, rng)
        sets = [d.to_list() for d in all_min_dominating_sets(g)]
        assert sets == sorted(sets)
        assert all(is_dominating(g, d) for d in sets)


# ---------------------------------------------------------------------------
# Dominating / 2-dominating pairs
# ---------------------------------------------------------------------------

def test_find_dd2_pair_examples():
    pair = find_dd2_pair(cycle_graph(4))
    assert pair is not None and len(pair.d) == 2
    assert is_dd2_pair(cycle_graph(4), pair)
    assert find_dd2_pair(complete_graph(2)) is None


def test_find_dd2_pair_minimizes_d(rng):
    # the returned |D| matches a brute-force scan over dominating sets whose
    # complements 2-dominate
    from itertools import combinations

    from certdom import VertexSet, is_2dominating

    for _ in range(40):
        g = random_graph(rng.randrange(1, 7), 0.5, rng)
        best = None
        for k in range(g.n + 1):
            for comb in combinations(range(g.n), k):
                d = VertexSet.of(g.n, comb)
                if is_dominating(g, d) and is_2dominating(g, d.complement()):
                    best = k
                    break
            if best is not None:
                break
        pair = find_dd2_pair(g)
        if best is None:
            assert pair is None
        else:
            assert pair is not None and len(pair.d) == best
            assert is_dd2_pair(g, pair)


def test_find_dd2_pair_max_d_size():
    g = fig1_graph(3)
    assert find_dd2_pair(g, 6) is None
    pair = find_dd2_pair(g)
    assert pair is not None and len(pair.d) == 7
    assert is_dd2_pair(g, pair)


def test_find_dd2_pair_constructive_path_uses_gamma():
    # minimum degree >= 2 means no exhaustive scan is needed even at n > 20
    g = cycle_graph(30)
    pair = find_dd2_pair(g)
    assert pair is not None
    assert len(pair.d) == gamma_solve(g).value
    assert is_dd2_pair(g, pair)


def test_exhaustive_dd2_refuses_large():
    with pytest.raises(SizeLimitError):
        find_dd2_pair(path_graph(21))


def test_find_dd2_pair_rules_out_an_isolated_vertex_at_any_order():
    # P20 + K1: the isolated vertex must be in D and has no neighbour in
    # D2, so no pair exists, and none is searched for past the bound
    g = Graph.from_edges(21, [(i, i + 1) for i in range(19)])
    assert find_dd2_pair(g) is None
    assert find_dd2_pair(g, 5) is None


def test_solver_handles_wide_bitsets():
    # multi-word masks: 130-vertex path and a 120-vertex corona
    g = path_graph(130)
    r = gamma_cer_solve(g)
    assert r.value == 44
    assert is_certified_dominating(g, r.certificate)
    ring = corona(cycle_graph(60), complete_graph(1))
    assert gamma_cer_solve(ring).value == 120
