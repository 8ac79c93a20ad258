import json
from functools import cache
from itertools import combinations

import pytest

from certdom import (
    Graph,
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    encode_graph6,
    gamma_cer_oracle,
    is_connected,
    path_graph,
    wheel_graph,
)
from certdom.suite import (
    SolveCache,
    SuiteConfig,
    claim_description,
    claim_ids,
    enumerate_labeled_graphs,
    evaluate_graph,
    run_suite,
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64


def test_enumeration_order_is_lexicographic_in_the_edge_mask():
    gs = list(enumerate_labeled_graphs(3))
    assert gs[0].edges() == []
    assert gs[1].edges() == [(0, 1)]
    assert gs[2].edges() == [(0, 2)]
    assert gs[3].edges() == [(0, 1), (0, 2)]
    assert len(gs[7].edges()) == 3


def test_enumeration_cap():
    with pytest.raises(ValueError, match="refusing"):
        next(enumerate_labeled_graphs(8))


def test_claim_registry():
    ids = claim_ids()
    assert len(ids) == 29
    assert ids[0] == "OBS2.1" and "THM9.2" in ids
    for cid in ids:
        assert claim_description(cid)


def test_evaluate_graph_applicability():
    report = evaluate_graph(cycle_graph(5))
    by_id = {o.claim_id: o for o in report.outcomes}
    assert by_id["OBS2.2"].applicable and by_id["OBS2.2"].holds
    assert not by_id["OBS2.1"].applicable
    assert not by_id["LEM5.4"].applicable
    assert by_id["THM9.2"].applicable and by_id["THM9.2"].holds
    assert report.graph_id == encode_graph6(cycle_graph(5))
    assert not report.failures


def test_run_suite_small_clean():
    summary = run_suite(SuiteConfig(n_max=3))
    assert summary.ok and not summary.aborted
    assert summary.graphs_checked == 1 + 1 + 2 + 8
    assert summary.passed["OBS2.7"] == summary.graphs_checked


def test_run_suite_claim_filter():
    summary = run_suite(SuiteConfig(n_max=3, claims=("OBS2.6",)))
    assert summary.ok
    assert set(summary.applicable) == {"OBS2.6"}
    assert summary.applicable["OBS2.6"] == 8


def test_run_suite_rejects_unknown_claims():
    with pytest.raises(ValueError, match="unknown claim"):
        SuiteConfig(claims=("OBS9.9",))


def test_run_suite_rejects_oversize_enumeration():
    with pytest.raises(ValueError, match="cap"):
        SuiteConfig(n_max=8)


def test_run_suite_graph6_file(tmp_path):
    path = tmp_path / "batch.g6"
    path.write_text(
        "\n".join(
            encode_graph6(g) for g in (path_graph(4), cycle_graph(5), complete_graph(3))
        )
        + "\n"
    )
    summary = run_suite(SuiteConfig(graph6_file=str(path)))
    assert summary.ok and summary.graphs_checked == 3


def test_run_suite_bad_graph6_file_errors_before_checking(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("A_\nA \n")
    from certdom import GraphParseError

    with pytest.raises(GraphParseError, match="line 2"):
        run_suite(SuiteConfig(graph6_file=str(path)))


def test_run_suite_deterministic_across_workers():
    one = run_suite(SuiteConfig(n_max=4, jobs=1))
    two = run_suite(SuiteConfig(n_max=4, jobs=2))
    assert one.to_json_obj() == two.to_json_obj()


def test_run_suite_aborts_on_first_failure(monkeypatch):
    from certdom import suite as suite_mod

    # doctor one claim to fail on the 3-cycle
    target = encode_graph6(cycle_graph(3))
    orig = suite_mod._REGISTRY["OBS2.2"]

    def sabotaged(g, cache):
        if encode_graph6(g) == target:
            return True, False, {"doctored": True}
        return orig[1](g, cache)

    monkeypatch.setitem(suite_mod._REGISTRY, "OBS2.2", (orig[0], sabotaged))
    reports = []
    summary = run_suite(SuiteConfig(n_max=4), on_report=reports.append)
    assert not summary.ok and summary.aborted
    assert summary.failures[0]["graph"] == target
    assert summary.failures[0]["claim"] == "OBS2.2"
    assert reports[-1].graph_id == target  # nothing after the failing graph


def test_run_suite_reports_as_graphs_are_generated(monkeypatch):
    from certdom import suite as suite_mod

    yielded = 0
    enumerate_all = suite_mod.enumerate_labeled_graphs

    def counted(n, **kwargs):
        nonlocal yielded
        for g in enumerate_all(n, **kwargs):
            yielded += 1
            yield g

    class FirstReport(Exception):
        pass

    def stop(report):
        raise FirstReport(yielded)

    monkeypatch.setattr(suite_mod, "enumerate_labeled_graphs", counted)
    with pytest.raises(FirstReport) as got:
        run_suite(SuiteConfig(n_max=6), on_report=stop)
    assert got.value.args == (1,)


def test_capped_solve_cache_drops_stores_and_keeps_the_summary(monkeypatch):
    import certdom.suite as suite_mod

    class Store(dict):
        """A store that records its size after every insert."""

        def __init__(self):
            super().__init__()
            self.sizes = []

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.sizes.append(len(self))

    want = run_suite(SuiteConfig(n_max=4)).to_json_obj()
    monkeypatch.setattr(suite_mod, "CACHE_MAX_ENTRIES", 40)
    cache = SolveCache()
    cache._cer, cache._mds = Store(), Store()
    assert run_suite(SuiteConfig(n_max=4), cache=cache).to_json_obj() == want
    for store in (cache._cer, cache._mds):
        assert max(store.sizes) <= 40
        # the store was dropped whole at least once: a size fell back to 1
        assert store.sizes.count(1) >= 2


def test_solve_cache_reuses_entries(solves):
    cache = SolveCache()
    g = cycle_graph(6)
    assert cache.gamma_cer(g) == 2
    assert (g.n, g.adj) in cache._cer
    assert cache.gamma_cer(g) == 2
    assert cache.gamma(g) == 2
    # gamma comes from the cached certified solve; no second search runs,
    # and that one keeps the lex phase, whose certificate LEM6.1 reads
    assert solves == [(True, True)]
    assert len(cache.min_dom_masks(g)) > 0


def test_theorem_report_json_shape():
    report = evaluate_graph(path_graph(4), claims=("OBS2.1", "THM5.3"))
    obj = report.to_json_obj()
    line = json.dumps(obj)
    json.loads(line)
    assert obj["failed"] == []
    assert [c["claim"] for c in obj["claims"]] == ["OBS2.1", "THM5.3"]


def test_supports_claim_above_n12_calls_no_solve(monkeypatch):
    # OBS3.1 (every support is in every certified set) must not be checked
    # against a solve, as the solver pins the supports in
    from certdom import Graph, solver

    def refuse(g, cfg, certified):
        raise AssertionError("OBS3.1 ran a solve")

    monkeypatch.setattr(solver, "_combine_components", refuse)
    tree = Graph.from_edges(14, [(v, (v - 1) // 2) for v in range(1, 14)])
    (outcome,) = evaluate_graph(tree, claims=("OBS3.1",)).to_json_obj()["claims"]
    assert outcome["applicable"] and outcome["holds"]


def test_supports_claim_holds_fast_on_a_large_tree():
    import random
    import time

    from certdom import Graph

    rng = random.Random(1)
    tree = Graph.from_edges(800, [(rng.randrange(v), v) for v in range(1, 800)])
    start = time.perf_counter()
    (outcome,) = evaluate_graph(tree, claims=("OBS3.1",)).to_json_obj()["claims"]
    assert outcome["applicable"] and outcome["holds"]
    assert time.perf_counter() - start < 1.0


@cache
def _oracle(n: int, adj: tuple) -> int:
    return gamma_cer_oracle(Graph._derived(n, adj)).value


def _exact_sweep(g, modified, slack):
    """THM6.2/THM6.3's outcome from the oracle value of every modification."""
    base = _oracle(g.n, g.adj)
    for key, h in modified:
        new = _oracle(h.n, h.adj)
        if new > base + slack:
            return True, False, {**key, "base": base, "modified": new}
    return True, True, None


def _outcome(g, cid, cache=None):
    (o,) = evaluate_graph(g, (cid,), cache).outcomes
    return o.applicable, o.holds, o.witness


def test_modification_claims_match_an_exact_sweep():
    # the certificate-first check decides as a solve of every modified graph
    cache = SolveCache()
    checked = 0
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if not is_connected(g):
                continue
            edges = [({"edge": [u, v]}, g.add_edge(u, v))
                     for u, v in combinations(range(n), 2) if not g.has_edge(u, v)]
            assert _outcome(g, "THM6.2", cache) == _exact_sweep(g, edges, 0)
            vertices = [({"neighbours": list(nb)}, g.add_vertex(nb))
                        for k in range(2, n + 1) for nb in combinations(range(n), k)]
            assert _outcome(g, "THM6.3", cache) == _exact_sweep(g, vertices, 1)
            checked += 1
    assert checked == 1 + 4 + 38 + 728


def test_edge_claim_solves_only_where_the_base_certificate_fails(solves, monkeypatch):
    # C6's certificate {0, 3} stays certified under every added edge
    assert _outcome(cycle_graph(6), "THM6.2") == (True, True, None)
    assert solves == [(True, True)]
    solves.clear()
    # a spider: centre 0 with legs 3, 4 and 1-2.  Its certificate {0, 1, 2}
    # has the shadowed member 1 (and 2); an edge from either to 3 or 4
    # leaves it one outside neighbour, so those four edges are solved
    spider = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2)])
    cache = SolveCache()
    assert cache.gamma_cer_cert(spider).to_list() == [0, 1, 2]
    added = []
    add_edge = Graph.add_edge
    monkeypatch.setattr(Graph, "add_edge", lambda h, u, v: added.append((u, v)) or add_edge(h, u, v))
    assert _outcome(spider, "THM6.2", cache) == (True, True, None)
    assert len(solves) == 1 + 4
    # the certificate is checked on patched rows; only solved graphs are built
    assert added == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_edge_claim_failure_reports_the_exact_modified_value():
    # a base value one too low, and a base certificate of that size (the
    # optimum less its lowest vertex): no modified graph certifies it, so
    # the first added edge is solved and reported
    g = cycle_graph(6)

    class LowBase(SolveCache):
        def gamma_cer(self, h):
            return super().gamma_cer(h) - (h == g)

        def gamma_cer_cert(self, h):
            mask = super().gamma_cer_cert(h).mask
            return VertexSet(h.n, mask & (mask - 1) if h == g else mask)

    h = g.add_edge(0, 2)
    assert _outcome(g, "THM6.2", LowBase()) == (
        True, False, {"edge": [0, 2], "base": 1, "modified": gamma_cer_oracle(h).value})


_K1 = complete_graph(1)


@pytest.mark.parametrize("cid, g, raised, witness", [
    ("OBS2.1", path_graph(4), "gamma_cer", {"expected": 4, "got": 5}),
    ("OBS2.2", cycle_graph(5), "gamma_cer", {"expected": 2, "got": 3}),
    ("OBS2.3", complete_graph(4), "gamma_cer", {"expected": 1, "got": 2}),
    ("OBS2.4", complete_bipartite_graph(2, 3), "gamma_cer",
     {"expected": 2, "got": 3, "sides": [2, 3]}),
    ("OBS2.5", wheel_graph(6), "gamma_cer", {"expected": 1, "got": 2}),
    ("COR4.1", cycle_graph(5), "gamma_cer", {"gamma_cer": 3, "gamma": 2}),
    ("COR4.2", complete_graph(4), "gamma", {"gamma_cer": 1, "gamma": 2}),
    ("COR4.5", path_graph(3), "gamma_cer", {"gamma_cer": 2, "gamma": 1}),
    ("THM5.3", corona(path_graph(2), _K1), "gamma_cer",
     {"predicted": True, "actual": False}),
    ("THM5.6", cycle_graph(4), "gamma_cer", {"predicted": True, "actual": False}),
    ("THM7.4", Graph.from_edges(3, [(0, 1)]), "gamma_cer",
     {"sum": 5, "product": 4, "n": 3, "extremal_structure": True}),
    ("THM7.5", corona(path_graph(3), _K1), "gamma_cer",
     {"sum": 9, "product": 14, "n": 6, "corona_side": True}),
])
def test_claim_failure_witnesses_are_pinned(cid, g, raised, witness):
    # one value of g read one too high fails the claim; its witness, keys
    # in order, is what a failing run prints
    class High(SolveCache):
        def gamma_cer(self, h):
            return super().gamma_cer(h) + (raised == "gamma_cer" and h == g)

        def gamma(self, h):
            return super().gamma(h) + (raised == "gamma" and h == g)

    assert _outcome(g, cid) == (True, True, None)
    got = _outcome(g, cid, High())
    assert got == (True, False, witness)
    assert list(got[2]) == list(witness)


def test_dd2_claim_reads_the_cached_certificate(solves):
    # no weak supports and minimum degree >= 1: the optimum certificate's
    # complement 2-dominates, so the base solve is the only one
    for g in (cycle_graph(6), complete_graph(4), Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])):
        solves.clear()
        assert _outcome(g, "THM9.2") == (True, True, None)
        assert solves == [(True, True)]
