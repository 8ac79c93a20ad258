import contextlib
import hashlib
import io
import json
import random

import pytest

from certdom import (
    Graph,
    VertexSet,
    bound_report,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    edge_effects,
    empty_graph,
    encode_graph6,
    fig3a_graph,
    fig3a_marked_edge,
    fig3b_graph,
    fig3b_missing_edge,
    fig4_graph,
    gamma_cer_oracle,
    gamma_cer_solve,
    is_connected,
    is_dominating,
    nordhaus_gaddum,
    path_graph,
    vertex_effects,
    wheel_graph,
)
from certdom.cli import main
from certdom.domination import equality_witness
from certdom.suite import enumerate_labeled_graphs

from conftest import random_graph, seeded_gnp_40


def test_bound_report_c7(solves):
    r = bound_report(cycle_graph(7))
    assert solves == [(True, False)]  # one certified solve, value-only
    assert (r["gamma"], r["gamma_cer"]) == (3, 3)
    assert all(b["holds"] for b in r["bounds"])
    assert r["equality_gamma"]["holds"] and r["equality_gamma"]["witness"] is not None


def test_reports_never_run_the_lex_certificate_phase(monkeypatch):
    # no report reads a certificate, so no solve of a report runs the
    # lex-smallest tie break; the reports are the same as with it (the
    # bounds report's witness search runs lex_first outside any solve)
    from certdom import solver

    def reports(g):
        return [
            bound_report(g),
            edge_effects(g, "all-deletions"),
            edge_effects(g, "all-additions"),
            vertex_effects(g, "all-deletions"),
            vertex_effects(g, [0, 1]),
            nordhaus_gaddum(g),
        ]

    combine = solver._combine_components

    def always_lex_min(g, cfg, certified, lex_min):
        return combine(g, cfg, certified, True)

    def value_only(g, cfg, certified, lex_min):
        if lex_min:
            raise AssertionError("a lex-min solve run by a report")
        return combine(g, cfg, certified, lex_min)

    graphs = [fig3a_graph(2), wheel_graph(8), corona(path_graph(3), complete_graph(2))]
    monkeypatch.setattr(solver, "_combine_components", always_lex_min)
    expected = [reports(g) for g in graphs]
    monkeypatch.setattr(solver, "_combine_components", value_only)
    assert [reports(g) for g in graphs] == expected


def test_bound_report_reuses_the_solved_gamma(monkeypatch):
    # the witness search runs at the gamma the solve proved, and neither
    # looks for gamma nor lists the gamma-sets by subset enumeration
    from certdom import solver

    def refuse(*args, **kwargs):
        raise AssertionError("subset enumeration called by bound_report")

    monkeypatch.setattr(solver, "_dominating_masks", refuse)
    r = bound_report(path_graph(20))
    assert (r["gamma"], r["gamma_cer"]) == (7, 7)
    assert r["equality_gamma"]["witness"] is not None


def test_bound_report_p4_is_tight():
    r = bound_report(path_graph(4))
    assert (r["gamma"], r["gamma_cer"]) == (2, 4)
    assert r["s1_size"] == 2 and r["s2_size"] == 0
    by_name = {b["name"]: b for b in r["bounds"]}
    assert by_name["gamma_plus_weak_supports"]["rhs"] == 4  # tight
    assert by_name["twice_gamma"]["rhs"] == 4  # tight
    assert not r["equality_gamma"]["holds"] and r["equality_gamma"]["witness"] is None


def test_bound_report_star():
    r = bound_report(complete_bipartite_graph(1, 4))
    assert (r["gamma"], r["gamma_cer"]) == (1, 1)
    assert r["s2_size"] == 1 and r["strong_support_leaf_count"] == 4
    assert {b["name"]: b["rhs"] for b in r["bounds"]}["strong_leaf_trim"] == 5 - 4


def test_bound_report_searches_the_witness_above_order_20():
    # past the subset enumeration's bound the witness comes from the search
    r = bound_report(path_graph(25))
    assert r["gamma"] == r["gamma_cer"] == 9
    assert all(b["holds"] for b in r["bounds"])
    assert r["equality_gamma"]["witness"] == [1, 3, 5, 8, 11, 14, 17, 20, 23]
    assert r["equality_gamma"]["witness_searched"] is True
    r = bound_report(corona(path_graph(11), complete_graph(1)))
    assert (r["gamma"], r["gamma_cer"]) == (11, 22)
    assert r["equality_gamma"]["witness"] is None
    g = seeded_gnp_40()
    r = bound_report(g)
    witness = VertexSet.of(g.n, r["equality_gamma"]["witness"])
    w = witness.mask
    assert r["equality_gamma"]["holds"] and w.bit_count() == r["gamma"]
    assert is_dominating(g, witness)
    assert equality_witness(g, [w]) == w


def test_bound_report_witness_exists_exactly_at_equality_up_to_order_5():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            r = bound_report(g)
            assert (r["equality_gamma"]["witness"] is not None) == (
                r["gamma"] == r["gamma_cer"]), g


def test_bound_report_serializes_with_stable_keys():
    obj = bound_report(path_graph(4))
    text = json.dumps(obj)
    assert text.index('"gamma"') < text.index('"gamma_cer"')
    assert obj["equality_gamma"]["witness"] is None
    assert obj["equality_gamma"]["witness_searched"] is True


def test_edge_effects_fig3a_marked_deletion():
    rep = edge_effects(fig3a_graph(2), fig3a_marked_edge())
    assert rep["base_value"] == 3
    (rec,) = rep["records"]
    assert rec["kind"] == "edge-del" and rec["new_value"] == 8 and rec["delta"] == 5


def test_edge_effects_fig3b_dashed_addition():
    g = fig3b_graph(2)
    rep = edge_effects(g, fig3b_missing_edge())
    assert rep["base_value"] == 4
    (rec,) = rep["records"]
    assert rec["kind"] == "edge-add" and rec["new_value"] == 8
    assert not rec["bound_applicable"]  # disconnected base: no monotonicity claim
    assert not _violations(rep)


def test_edge_effects_connected_additions_bounded():
    g = cycle_graph(5)
    rep = edge_effects(g, "all-additions")
    assert rep["base_value"] == 2
    assert len(rep["records"]) == 5  # the five chords
    for rec in rep["records"]:
        assert rec["bound_applicable"] and rec["bound_holds"]
        assert rec["new_value"] <= 2
    assert not _violations(rep)


def test_edge_effects_all_deletions():
    rep = edge_effects(path_graph(4), "all-deletions")
    assert rep["base_value"] == 4
    assert {tuple(r["detail"]) for r in rep["records"]} == {(0, 1), (1, 2), (2, 3)}


def test_edge_effects_rejects_bad_edge():
    with pytest.raises(ValueError):
        edge_effects(path_graph(3), (0, 0))
    with pytest.raises(ValueError):
        edge_effects(path_graph(3), "sideways")


def _sweep(g, scope, value):
    """The edge report with ``value`` run on every modified graph, base
    included."""
    base = value(g)
    connected = is_connected(g)
    if isinstance(scope, tuple):
        pairs, name = [tuple(sorted(scope))], "single"
    elif scope == "all-deletions":
        pairs, name = g.edges(), scope
    else:
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        name = scope
    records = []
    for u, v in pairs:
        present = g.has_edge(u, v)
        new = value(g.remove_edge(u, v) if present else g.add_edge(u, v))
        rec = {"kind": "edge-del" if present else "edge-add", "detail": [u, v],
               "new_value": new, "delta": new - base,
               "bound_applicable": connected and not present}
        if rec["bound_applicable"]:
            rec["bound_holds"] = new <= base
        records.append(rec)
    return {"report": "modifications", "scope": name, "base_value": base,
            "records": records}


def _violations(rep):
    """The records whose bound applies and fails."""
    return [r for r in rep["records"] if r["bound_applicable"] and not r["bound_holds"]]


@pytest.fixture
def edge_solves(monkeypatch):
    """Counts the solves edge_effects runs; the base solve is one of them."""
    from certdom import analysis

    seen = []
    solve = analysis.gamma_cer_solve

    def counted(h, *args, **kwargs):
        seen.append(h)
        return solve(h, *args, **kwargs)

    monkeypatch.setattr(analysis, "gamma_cer_solve", counted)
    return seen


def test_edge_effects_match_an_oracle_sweep_up_to_order_5():
    # every labeled graph, connected or not, every scope
    def oracle(h):
        return gamma_cer_oracle(h).value

    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            records = {}
            for scope in ("all-deletions", "all-additions"):
                want = _sweep(g, scope, oracle)
                assert edge_effects(g, scope) == want, (g.edges(), scope)
                records.update((tuple(r["detail"]), r) for r in want["records"])
            for (u, v), rec in records.items():
                single = {"report": "modifications", "scope": "single",
                          "base_value": want["base_value"], "records": [rec]}
                assert edge_effects(g, (u, v)) == edge_effects(g, (v, u)) == single


def test_edge_effects_match_a_solve_sweep_on_connected_gnp():
    def solve(h):
        return gamma_cer_solve(h, lex_min=False).value

    rng = random.Random(25)
    for n in range(12, 17):
        g = random_graph(n, 0.25, rng)
        while not is_connected(g):
            g = random_graph(n, 0.25, rng)
        for scope in ("all-deletions", "all-additions"):
            assert edge_effects(g, scope) == _sweep(g, scope, solve), (n, scope)


def test_edge_effects_settle_most_pairs_of_a_gnp_without_a_solve(edge_solves, monkeypatch):
    g = random_graph(16, 0.25, random.Random(1))
    assert is_connected(g)
    pairs = 16 * 15 // 2
    built = []
    for name in ("add_edge", "remove_edge"):
        make = getattr(Graph, name)
        monkeypatch.setattr(Graph, name, lambda h, u, v, make=make: built.append(
            (u, v)) or make(h, u, v))
    edge_effects(g, "all-deletions")
    edge_effects(g, "all-additions")
    assert len(edge_solves) < pairs // 4  # 11 of 120: two base solves and 9 pairs
    # a modified graph is built only to be solved
    assert len(built) == len(edge_solves) - 2


def test_edge_effects_query_each_vertex_once_and_a_pair_only_where_its_set_misses(
        monkeypatch):
    # the additions' first-hit queries: one per vertex b (b out), and one
    # per orientation (a, b) whose vertex query found a set without a
    from certdom import solver

    g = random_graph(16, 0.25, random.Random(1))
    calls = []
    run = solver._Search._any_within

    def recorded(search, size, in_mask, *rest):
        hit = run(search, size, in_mask, *rest)
        calls.append((in_mask, rest[0], search.best_mask if hit else 0))
        return hit

    monkeypatch.setattr(solver._Search, "_any_within", recorded)
    rep = edge_effects(g, "all-additions")
    monkeypatch.undo()
    found = {out: best for in_mask, out, best in calls if not in_mask}
    assert len(found) == sum(not in_mask for in_mask, *_ in calls) <= g.n
    missing = sum(1 for u, v in (r["detail"] for r in rep["records"])
                  for a, b in ((u, v), (v, u)) if found.get(1 << b) and not found[1 << b] >> a & 1)
    assert len(calls) <= g.n + missing
    # 16 for the 91 additions, where a query per orientation ran 182
    assert len(calls) < len(rep["records"])

    def solve(h):
        return gamma_cer_solve(h, lex_min=False).value

    assert rep == _sweep(g, "all-additions", solve)


def test_edge_effects_solve_every_pair_when_gamma_is_below_gamma_cer(edge_solves):
    g = path_graph(4)
    res = gamma_cer_solve(g, lex_min=False)
    assert res.gamma < res.value
    for scope in ("all-deletions", "all-additions"):
        del edge_solves[:]
        rep = edge_effects(g, scope)
        assert len(edge_solves) == 1 + len(rep["records"])


def test_edge_effects_solve_an_addition_that_uncertifies_the_base_set(edge_solves):
    # K1 + C4: the isolated vertex 0 is a member of D with no outside
    # neighbour; joined to an outside vertex it has exactly one
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
    d = gamma_cer_solve(g, lex_min=False).certificate.mask
    assert d & 1 and not g.adj[0]
    y = next(v for v in range(1, 5) if not d >> v & 1)
    rep = edge_effects(g, (0, y))
    assert len(edge_solves) == 2
    assert rep["records"][0]["new_value"] == gamma_cer_oracle(g.add_edge(0, y)).value == 2


def test_edge_effects_solve_an_addition_that_lowers_gamma(edge_solves, monkeypatch):
    # K_{1,3} + K1: D = {centre, isolated vertex} stays certified once the
    # two are joined, but the star K_{1,4} has gamma 1, which a query finds
    from certdom import analysis

    queries = []
    make = analysis.addition_dominates_within

    def recorded(g, size):
        below = make(g, size)

        def query(u, v):
            queries.append(below(u, v))
            return queries[-1]

        return query

    monkeypatch.setattr(analysis, "addition_dominates_within", recorded)
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    rep = edge_effects(g, (0, 4))
    assert rep["base_value"] == 2
    assert queries == [True]
    assert len(edge_solves) == 2
    (rec,) = rep["records"]
    assert (rec["new_value"], rec["delta"]) == (1, -1)


def test_vertex_effects_wheel_hub_deletion():
    rep = vertex_effects(wheel_graph(10), "all-deletions")
    assert rep["base_value"] == 1
    hub = rep["records"][0]
    assert hub["kind"] == "vertex-del" and hub["new_value"] == 3  # 9-cycle remains


def test_vertex_effects_fig4_leaf_addition_unbounded():
    rep = vertex_effects(fig4_graph(3), [0])
    assert rep["base_value"] == 3
    (rec,) = rep["records"]
    assert rec["new_value"] == 8 and not rec["bound_applicable"]


def test_vertex_effects_two_neighbour_addition_bounded():
    rep = vertex_effects(cycle_graph(6), [0, 3])
    (rec,) = rep["records"]
    assert rec["bound_applicable"] and rec["bound_holds"]
    assert rec["new_value"] <= 3


def test_vertex_effects_rejects_empty_neighbour_set():
    with pytest.raises(ValueError, match="nonempty"):
        vertex_effects(cycle_graph(4), [])


def test_ng_report_four_vertex_pairs():
    from certdom.suite import enumerate_labeled_graphs

    seen = set()
    for g in enumerate_labeled_graphs(4):
        rep = nordhaus_gaddum(g)
        seen.add((rep["sum"], rep["product"]))
        assert all(c["holds"] for c in rep["checks"])
    assert seen == {(3, 2), (5, 4), (6, 8), (8, 16)}


def test_ng_report_corona_equality_case():
    g = corona(path_graph(3), complete_graph(1))
    rep = nordhaus_gaddum(g)
    assert rep["n"] == 6
    assert rep["sum"] == 8 == rep["n"] + 2
    assert rep["product"] == 12 == 2 * rep["n"]
    assert rep["extremal_pair"] and rep["corona_g"]


def test_ng_report_empty_graph_case():
    rep = nordhaus_gaddum(empty_graph(5))
    assert (rep["gcer_g"], rep["gcer_gbar"]) == (5, 1)
    assert rep["sum"] == 6 == rep["n"] + 1
    assert rep["regime"] == "min_delta_0"
    assert all(c["holds"] for c in rep["checks"])


def test_ng_report_dense_regime():
    rep = nordhaus_gaddum(cycle_graph(5))
    assert rep["regime"] == "min_delta_ge2"
    names = {c["name"] for c in rep["checks"]}
    assert "sum_le_half_n_plus_2" in names and "product_le_n" in names
    assert all(c["holds"] for c in rep["checks"])


def test_ng_refuses_empty_vertex_set():
    with pytest.raises(ValueError):
        nordhaus_gaddum(empty_graph(0))


def test_reports_are_json_lines():
    for rep in (
        edge_effects(cycle_graph(4), "all-additions"),
        vertex_effects(path_graph(3), [0, 2]),
        nordhaus_gaddum(path_graph(4)),
    ):
        line = json.dumps(rep)
        assert "\n" not in line
        json.loads(line)


def test_report_bytes_over_every_labeled_graph_up_to_order_5(monkeypatch):
    # every line `certdom analyze` prints for each graph, in enumeration
    # order: bounds, both edge sweeps, the vertex deletions, the addition
    # joined to 0 and 1 (n >= 2) and the complement pair (n >= 1)
    runs = [(0, ["bounds"]), (0, ["edges"]), (0, ["vertices"]),
            (2, ["vertices", "--add-neighbours", "0,1"]), (1, ["ng"])]
    out = io.StringIO()
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            text = encode_graph6(g) + "\n"
            for report in (report for least, report in runs if n >= least):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                with contextlib.redirect_stdout(out):
                    assert main(["analyze", "-", "--report", *report]) == 0
    lines = out.getvalue()
    assert lines.count("\n") == 6597
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "93a2929dd6b194c9a8f42b93be27a1cd28126d6396703c8abbdb70fa040d45b2")
