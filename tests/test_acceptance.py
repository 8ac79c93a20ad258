"""Acceptance criteria, one test per criterion, strict tolerances (exact).

Each test prints one ``ACCEPTANCE <k> ...: PASS`` line (run with ``-s`` to
see them as the suite goes).  Criterion 7 sweeps every graph the earlier
criteria touched, so the tests in this module share a value cache and are
meant to run in file order (plain ``pytest`` does).
"""

import random
import time
from itertools import combinations

import certdom as cd
from certdom.suite import SolveCache, SuiteConfig, enumerate_labeled_graphs, run_suite

# every certified-domination value computed by criteria 1-6, keyed by the
# labeled adjacency; criterion 7 replays the "never n-1" fact over all of it
_VALUES: dict[tuple[int, tuple], int] = {}


def gcer(g: cd.Graph) -> int:
    key = (g.n, g.adj)
    got = _VALUES.get(key)
    if got is None:
        got = cd.gamma_cer_solve(g).value
        _VALUES[key] = got
    return got


class _RecordingCache(SolveCache):
    """A suite cache that adds every certified-domination value it reads to
    ``_VALUES``."""

    def _cer_entry(self, g: cd.Graph) -> tuple[int, int, int]:
        got = super()._cer_entry(g)
        _VALUES[(g.n, g.adj)] = got[0]
        return got


def _report(num: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS ({time.time() - started:.1f}s)")


def test_criterion_1_closed_form_tables():
    t0 = time.time()
    for n in range(1, 31):
        assert gcer(cd.path_graph(n)) == cd.gamma_cer_path(n), f"path {n}"
    for n in range(3, 31):
        assert gcer(cd.cycle_graph(n)) == -(-n // 3), f"cycle {n}"
    for n in range(1, 13):
        want = 2 if n == 2 else 1
        assert gcer(cd.complete_graph(n)) == want, f"complete {n}"
    for m in range(1, 9):
        for n in range(m, 9):
            want = 1 if m == 1 and n > 1 else 2
            assert gcer(cd.complete_bipartite_graph(m, n)) == want, f"biclique {m},{n}"
    for n in range(4, 13):
        assert gcer(cd.wheel_graph(n)) == 1, f"wheel {n}"
    assert time.time() - t0 < 60
    _report(1, "closed-form tables", t0)


def test_criterion_2_figure_fixtures():
    t0 = time.time()
    for i in range(2, 6):
        assert gcer(cd.fig1_graph(i)) == i + 3, f"fig1 {i}"
    for i in (3, 4):
        g = cd.fig1_graph(i)
        assert cd.find_dd2_pair(g, i + 3) is None, f"fig1 {i} small pair"
        # the known pair: head middle plus both path ends of every branch
        d = [1] + [3 + 4 * k for k in range(i)] + [5 + 4 * k for k in range(i)]
        ds = cd.VertexSet.of(g.n, d)
        pair = cd.DD2Pair(ds, ds.complement())
        assert len(pair.d) == 2 * i + 1
        assert cd.is_dd2_pair(g, pair), f"fig1 {i} known pair"
    for i in range(1, 5):
        g = cd.fig3a_graph(i)
        assert gcer(g) == i + 1, f"fig3a {i}"
        assert gcer(g.remove_edge(*cd.fig3a_marked_edge())) == 2 * i + 4
        h = cd.fig3b_graph(i)
        assert gcer(h) == i + 2, f"fig3b {i}"
        assert gcer(h.add_edge(*cd.fig3b_missing_edge())) == 2 * i + 4
        f = cd.fig4_graph(i)
        assert gcer(f) == i, f"fig4 {i}"
        assert gcer(f.add_vertex([0])) == 2 * i + 2
    for n in range(4, 13):
        assert gcer(cd.wheel_graph(n).remove_vertex(0)) == -(-(n - 1) // 3)
    assert time.time() - t0 < 300
    _report(2, "figure fixtures", t0)


CRITERION_3_CLAIMS = (
    "OBS2.6", "OBS2.7", "OBS3.1", "OBS3.2", "THM3.3", "COR3.4", "COR3.5",
    "COR4.1", "COR4.2", "LEM4.3", "COR4.4", "COR4.5", "THM5.3", "THM5.6",
    "LEM6.1", "THM6.2", "COR7.1", "OBS7.2", "THM7.4", "THM7.5", "THM9.2",
)


def test_criterion_3_exhaustive_suite():
    t0 = time.time()
    cache = _RecordingCache()
    summary = run_suite(
        SuiteConfig(n_max=6, claims=CRITERION_3_CLAIMS, jobs=1), cache=cache
    )
    assert summary.graphs_checked == 1 + 1 + 2 + 8 + 64 + 1024 + 32768
    assert summary.ok, summary.failures[:3]
    for cid in CRITERION_3_CLAIMS:
        assert summary.passed.get(cid, 0) == summary.applicable.get(cid, 0)
        assert summary.applicable.get(cid, 0) > 0, f"{cid} never applied"

    # the small-order complement tables, rederived from the oracle per graph
    for n, want in ((2, {(4, 4)}), (3, {(4, 3)}), (4, {(3, 2), (5, 4), (6, 8), (8, 16)})):
        seen = set()
        for g in enumerate_labeled_graphs(n):
            a = cd.gamma_cer_oracle(g).value
            b = cd.gamma_cer_oracle(cd.complement(g)).value
            seen.add((a + b, a * b))
        assert seen == want, f"order {n} pair set"
    assert time.time() - t0 < 1800
    _report(3, "exhaustive claim suite n<=6", t0)


def test_criterion_4_corona_diadem_characterizations():
    t0 = time.time()
    bases = 0
    for n in range(1, 5):
        for h in enumerate_labeled_graphs(n):
            if not cd.is_connected(h):
                continue
            bases += 1
            g = cd.corona(h, cd.complete_graph(1))
            assert gcer(g) == g.n, f"corona of {h}"
            base = cd.recognize_corona(g)
            assert base is not None and base.to_list() == list(range(n))
            d = cd.diadem(h)
            assert gcer(d) == d.n - 2, f"diadem of {h}"
            got = cd.recognize_diadem(d)
            assert got is not None
            assert got[0].to_list() == list(range(n)) and got[1] == 0
    assert bases == 1 + 1 + 4 + 38
    assert time.time() - t0 < 120
    _report(4, "corona/diadem characterizations", t0)


def test_criterion_5_solver_oracle_equivalence():
    t0 = time.time()
    checked = 0

    def check(g: cd.Graph) -> None:
        nonlocal checked
        checked += 1
        sc = cd.gamma_cer_solve(g)
        oc = cd.gamma_cer_oracle(g)
        sg = cd.gamma_solve(g)
        og = cd.gamma_oracle(g)
        assert sc.value == oc.value, cd.encode_graph6(g)
        assert sg.value == og.value, cd.encode_graph6(g)
        assert sc.gamma == og.value and sg.gamma == og.value, cd.encode_graph6(g)
        assert cd.is_certified_dominating(g, sc.certificate)
        assert cd.is_certified_dominating(g, oc.certificate)
        assert cd.is_dominating(g, sg.certificate)
        assert cd.is_dominating(g, og.certificate)
        # both sides pin the same tie break, so the certificates agree exactly
        assert sc.certificate == oc.certificate
        assert sg.certificate == og.certificate
        _VALUES[(g.n, g.adj)] = sc.value

    for n in range(0, 7):
        for g in enumerate_labeled_graphs(n):
            check(g)
    rng = random.Random(20260809)
    pairs = {n: list(combinations(range(n), 2)) for n in (7, 8, 9)}
    for n in (7, 8, 9):
        for p in (0.2, 0.5, 0.8):
            for _ in range(1000):
                edges = [e for e in pairs[n] if rng.random() < p]
                check(cd.Graph.from_edges(n, edges))
    assert checked == 33868 + 9000
    assert time.time() - t0 < 900
    _report(5, "solver/oracle equivalence", t0)


def test_criterion_6_vertex_addition_sweep():
    t0 = time.time()
    sweeps = 0
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            base = gcer(g)
            for k in range(2, n + 1):
                for nbrs in combinations(range(n), k):
                    sweeps += 1
                    assert gcer(g.add_vertex(nbrs)) <= base + 1, (
                        cd.encode_graph6(g), nbrs,
                    )
    assert sweeps == sum(
        (2 ** n - n - 1) * 2 ** (n * (n - 1) // 2) for n in range(2, 6)
    )
    assert time.time() - t0 < 600
    _report(6, "vertex-addition sweep n<=5", t0)


def test_criterion_7_value_never_order_minus_one():
    t0 = time.time()
    # make sure the earlier criteria actually populated the ledger of graphs
    assert len(_VALUES) > 33868
    for (n, _), value in _VALUES.items():
        assert value != n - 1
    _report(7, "no value equals order minus one", t0)
