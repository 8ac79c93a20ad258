import json

import pytest

from certdom import complete_graph, cycle_graph, encode_graph6, path_graph
from certdom.suite import (
    SolveCache,
    SuiteConfig,
    claim_description,
    claim_ids,
    enumerate_labeled_graphs,
    evaluate_graph,
    ng_pair_set,
    run_suite,
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64


def test_enumeration_order_is_lexicographic_in_the_edge_mask():
    gs = list(enumerate_labeled_graphs(3))
    assert gs[0].edge_count == 0
    assert gs[1].edges() == [(0, 1)]
    assert gs[2].edges() == [(0, 2)]
    assert gs[3].edges() == [(0, 1), (0, 2)]
    assert gs[7].edge_count == 3


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


def test_ng_pair_sets_match_small_order_tables():
    assert ng_pair_set(2) == {(4, 4)}
    assert ng_pair_set(3) == {(4, 3)}
    assert ng_pair_set(4) == {(3, 2), (5, 4), (6, 8), (8, 16)}


def test_solve_cache_reuses_entries(solves):
    cache = SolveCache()
    g = cycle_graph(6)
    assert cache.gamma_cer(g) == 2
    assert (g.n, g.adj) in cache._cer
    assert cache.gamma_cer(g) == 2
    assert cache.gamma(g) == 2
    # gamma comes from the cached certified solve; no second search runs
    assert solves == [True]
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
