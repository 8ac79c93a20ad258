import json
from pathlib import Path

import pytest

from certdom import (
    Graph,
    encode_edge_list,
    encode_graph6,
    fig3a_graph,
    parse_family_spec,
    path_graph,
    vertex_effects,
    wheel_graph,
)
from certdom.cli import main

from conftest import STATS_KEYS, seeded_gnp_40

# family spec -> its exact `analyze --report bounds` output line
_BOUNDS_GOLDEN = [
    line.split("\t")
    for line in (Path(__file__).parent / "data" / "analyze_bounds_golden.tsv")
    .read_text().splitlines()
]


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(stdin))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_graph6_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "solve", "-", "--json", stdin="A_\n", monkeypatch=monkeypatch
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 2 and obj["certificate"] == [0, 1]
    assert obj["param"] == "gamma-cer" and obj["proven"]


def test_solve_reads_a_graph6_record_after_the_header(capsys, monkeypatch):
    # auto-detection skips the optional >>graph6<< header, as --format graph6 does
    bare = run_cli(capsys, "solve", "-", stdin="DQc\n", monkeypatch=monkeypatch)
    headed = run_cli(capsys, "solve", "-", stdin=">>graph6<<DQc\n", monkeypatch=monkeypatch)
    assert bare[0] == 0 and bare[1].startswith("value: 2\n")
    assert headed == bare


def test_solve_edge_list_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "solve", str(path), "--param", "gamma", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_human_output(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "solve", "-", stdin="A_\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "value: 2" in out and "certificate: 0 1" in out


def test_verify_statuses(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "verify", "-", "--set", "1,2", "--predicate", "certified", "--json",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is False
    assert obj["statuses"] == ["outside", "half-shadowed", "half-shadowed", "outside"]


def test_family_graph6_emit(capsys):
    code, out, _ = run_cli(capsys, "family", "path 4")
    assert code == 0
    assert out.strip() == encode_graph6(path_graph(4))


def test_family_edgelist_emit(capsys):
    code, out, _ = run_cli(capsys, "family", "complete 3", "--emit", "edgelist")
    assert code == 0
    assert out.splitlines()[0] == "n 3"
    assert "0 1" in out and "1 2" in out


def test_family_pipe_to_solve(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "family", "wheel 8")
    g6 = out.strip()
    code, out, _ = run_cli(
        capsys, "solve", "-", "--param", "gamma-cer", "--json",
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0 and json.loads(out)["value"] == 1


def test_analyze_bounds(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "bounds",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["gamma"] == 2 and obj["gamma_cer"] == 4


@pytest.mark.parametrize("spec,want", _BOUNDS_GOLDEN, ids=[s for s, _ in _BOUNDS_GOLDEN])
def test_analyze_bounds_golden(capsys, monkeypatch, spec, want):
    g6 = encode_graph6(parse_family_spec(spec))
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "bounds",
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == want + "\n"


def test_analyze_ng_four_vertices(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "ng",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    obj = json.loads(out)
    assert (obj["sum"], obj["product"]) in {(3, 2), (5, 4), (6, 8), (8, 16)}


def test_analyze_edges_emits_two_reports(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "edges",
        stdin="C~\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [ln["scope"] for ln in lines] == ["all-deletions", "all-additions"]


def test_analyze_single_edge(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "edges", "--edge", "1,2",
        stdin=encode_graph6(fig3a_graph(2)) + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["records"][0]["new_value"] == 8


def test_analyze_vertices_addition(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "vertices", "--add-neighbours", "0,3",
        stdin="E~~w\n", monkeypatch=monkeypatch,  # K6
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["records"][0]["kind"] == "vertex-add"


def test_analyze_vertices_deletion_sweep(capsys, monkeypatch):
    # without --add-neighbours the report is the one line of every deletion
    g = wheel_graph(6)
    code, out, _ = run_cli(
        capsys, "analyze", "-", "--report", "vertices",
        stdin=encode_graph6(g) + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    want = vertex_effects(g, "all-deletions")
    assert out == json.dumps(want) + "\n"
    assert want["scope"] == "all-deletions"
    assert [r["kind"] for r in want["records"]] == ["vertex-del"] * 6
    # without the hub the rim is C5 (value 2); without a rim vertex the hub
    # stays universal (value 1)
    assert [r["new_value"] for r in want["records"]] == [2, 1, 1, 1, 1, 1]


def test_dd2_none(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "dd2", "-", stdin="A_\n", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "none"


def test_dd2_found_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "dd2", "-", "--json", stdin="Cr\n", monkeypatch=monkeypatch
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] and sorted(obj["d"] + obj["d2"]) == [0, 1, 2, 3]


def test_dd2_negative_max_d_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "dd2", "-", "--max-d", "-1",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "max_d_size must be non-negative, got -1" in err


def test_suite_command_clean(capsys):
    code, out, _ = run_cli(capsys, "suite", "--n-max", "3")
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["ok"] and summary["graphs_checked"] == 12


def test_suite_claim_filter_and_verbose(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--n-max", "2", "--claims", "OBS2.7", "--verbose"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4 + 1  # one per graph plus the summary
    assert json.loads(lines[0])["claims"][0]["claim"] == "OBS2.7"


def test_suite_graph6_file(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("A_\nBw\n")
    code, out, _ = run_cli(capsys, "suite", "--graph6-file", str(path))
    assert code == 0
    assert json.loads(out.splitlines()[-1])["graphs_checked"] == 2


def test_suite_corrupt_graph6_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("A_\nA \n")
    code, out, err = run_cli(capsys, "suite", "--graph6-file", str(path))
    assert code == 2
    assert "line 2" in err


def test_suite_failure_exit_code(capsys, monkeypatch):
    from certdom import suite as suite_mod

    orig = suite_mod._REGISTRY["OBS2.3"]

    def sabotaged(g, cache):
        applicable, holds, witness = orig[1](g, cache)
        if applicable:
            return True, False, {"doctored": True}
        return applicable, holds, witness

    monkeypatch.setitem(suite_mod._REGISTRY, "OBS2.3", (orig[0], sabotaged))
    code, out, err = run_cli(capsys, "suite", "--n-max", "2")
    assert code == 1
    assert "claim failure" in err
    summary = json.loads(out.splitlines()[-1])
    assert summary["aborted"] and not summary["ok"]


def test_bad_input_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "solve", "-", stdin="not a graph!!\n", monkeypatch=monkeypatch
    )
    assert code == 2 and "error:" in err


def test_suite_negative_n_max_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "suite", "--n-max", "-1")
    assert code == 2 and out == ""
    assert "n_max must be non-negative" in err


def test_vertex_addition_out_of_range_neighbour_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "analyze", "-", "--report", "vertices", "--add-neighbours", "-1",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "error: vertex -1 out of range [0, 4)" in err


def test_edge_with_three_vertices_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "analyze", "-", "--report", "edges", "--edge", "0,1,2",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "--edge expects two vertices" in err and "'0,1,2'" in err


@pytest.mark.parametrize("option, value, report, other", [
    ("--edge", "0,1", "edges", "bounds"),
    ("--add-neighbours", "0,1", "vertices", "ng"),
])
def test_an_option_of_another_report_is_usage_error(capsys, monkeypatch, option, value,
                                                    report, other):
    code, out, err = run_cli(
        capsys, "analyze", "-", "--report", other, option, value,
        stdin="Dhc\n", monkeypatch=monkeypatch,  # C5
    )
    assert code == 2 and out == ""
    assert f"error: {option} applies only to --report {report}" in err


def test_suite_empty_claim_list_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "suite", "--n-max", "2", "--claims", "")
    assert code == 2 and out == ""
    assert "unknown claim ids: ['']" in err


def test_suite_repeated_claim_id_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "suite", "--n-max", "3", "--claims", "OBS3.1,OBS3.1")
    assert code == 2 and out == ""
    assert "duplicate claim ids: ['OBS3.1']" in err


# 2**62 is refused by CPython's size check before any memory is taken, and
# 10**23 does not fit an index; a smaller count could really allocate
@pytest.mark.parametrize("argv, stdin", [
    (("solve", "-"), "n 4611686018427387904\n"),
    (("solve", "-"), "n 100000000000000000000000\n"),
    (("family", "path 4611686018427387904"), None),
])
def test_vertex_count_too_large_to_allocate_is_usage_error(capsys, monkeypatch, argv, stdin):
    code, out, err = run_cli(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == "error: the graph is too large for the available memory\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/file.g6")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-", "--frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Pinned solver counts and output
# ---------------------------------------------------------------------------

def _seeded_forest():
    # three random recursive trees of 20, 40 and 30 vertices
    import random

    rng = random.Random(3)
    edges, base = [], 0
    for k in (20, 40, 30):
        edges += [(base + rng.randrange(v), base + v) for v in range(1, k)]
        base += k
    return Graph.from_edges(base, edges)


# (input, extra flags, param) -> (value, proven, stats in STATS_KEYS order)
_PINNED_SOLVES = [
    ("fig1 3", (), "gamma-cer", (6, True, (2, 4, 0, 0, 0, 1, 0, 1, 0, 10))),
    ("fig1 3", (), "gamma", (5, True, (3, 0, 0, 0, 2, 2, 0, 0, 0, 7))),
    ("gnp40", (), "gamma-cer", (5, True, (131, 0, 0, 0, 120, 40, 40, 22, 0, 960))),
    ("gnp40", (), "gamma", (5, True, (127, 0, 0, 0, 116, 40, 38, 20, 4, 893))),
    ("forest", ("--node-limit", "50"), "gamma-cer", (42, True, (21, 31, 3, 0, 11, 9, 0, 2, 2, 0))),
    ("forest", ("--node-limit", "50"), "gamma", (33, True, (12, 0, 3, 0, 8, 8, 0, 0, 2, 0))),
    ("forest", ("--node-limit", "10"), "gamma", (33, False, (11, 0, 3, 0, 7, 7, 0, 0, 2, 0))),
]


def _pinned_input(name):
    if name == "gnp40":
        return encode_edge_list(seeded_gnp_40())
    if name == "forest":
        return encode_edge_list(_seeded_forest())
    return encode_edge_list(parse_family_spec(name))


@pytest.mark.parametrize("name,extra,param,want", _PINNED_SOLVES,
                         ids=[f"{n}{''.join(e)}-{p}" for n, e, p, _ in _PINNED_SOLVES])
def test_solve_json_pins_the_exact_counts(capsys, monkeypatch, name, extra, param, want):
    # every count of a solve, in key order; a search change that moves any
    # of them shows here
    code, out, _ = run_cli(
        capsys, "solve", "-", "--json", "--param", param, *extra,
        stdin=_pinned_input(name), monkeypatch=monkeypatch,
    )
    assert code == 0
    obj = json.loads(out)
    value, proven, counts = want
    assert (obj["value"], obj["proven"]) == (value, proven)
    assert list(obj["stats"].items()) == list(zip(STATS_KEYS, counts))


def test_solve_text_output_is_pinned(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "solve", "-", stdin=_pinned_input("fig1 3"), monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == ("value: 6\ncertificate: 0 1 2 5 9 13\n"
                   "stats: nodes=2 forced=4 components=0 closed_forms=0\n")


@pytest.mark.parametrize("name,limit,param,value", [
    ("gnp40", "29", "gamma-cer", 5),  # stopped in the lex phase: the value is proven
    ("forest", "10", "gamma", 33),  # stopped in the lex phase as well
    ("forest", "3", "gamma", 33),  # stopped in the value phase
])
def test_solve_text_warning_holds_wherever_the_limit_hits(capsys, monkeypatch, name, limit,
                                                          param, value):
    # gnp40's certified solve spends 11 of its 131 nodes before the lex
    # phase; the forest's gamma solve finishes its value phase in 4 nodes
    code, out, _ = run_cli(
        capsys, "solve", "-", "--param", param, "--node-limit", limit,
        stdin=_pinned_input(name), monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"value: {value}"
    assert lines[2] == ("warning: node limit hit; "
                        "the value or its lex-smallest tie break is unproven")


# sha256 of `certdom suite --n-max 5 --verbose`: every claim outcome and
# witness on every labeled graph of order <= 5, byte for byte
_SUITE_N5_VERBOSE_SHA256 = "64dc1c9101a8746ced7939c842db0a2c5b6fefa61fb145928a2b77881df0cc5e"


def test_suite_verbose_output_is_byte_identical(capsys):
    import hashlib

    code, out, _ = run_cli(capsys, "suite", "--n-max", "5", "--verbose")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SUITE_N5_VERBOSE_SHA256


# ---------------------------------------------------------------------------
# Text output and usage errors of the other commands
# ---------------------------------------------------------------------------

def test_verify_human_output(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "verify", "-", "--set", "1,2", "--predicate", "certified",
        stdin="n 4\n0 1\n1 2\n2 3\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == ("certified: false\n"
                   "statuses: 0=outside 1=half-shadowed 2=half-shadowed 3=outside\n")


def test_dd2_found_human_output(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "dd2", "-", stdin="Cr\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "d: 0 3\nd2: 1 2\n"


def test_dd2_none_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "dd2", "-", "--json", stdin="A_\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_dd2_with_an_isolated_vertex_past_the_subset_bound(capsys, monkeypatch):
    # P20 + K1 has no pair; the answer needs no subset walk, so n = 21 is fine
    edges = "".join(f"{i} {i + 1}\n" for i in range(19))
    code, out, _ = run_cli(capsys, "dd2", "-", "--json", stdin="n 21\n" + edges,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_solve_empty_stdin_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "solve", "-", stdin="", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "empty input" in err


@pytest.mark.parametrize("argv", [
    ("solve", "-"),
    ("verify", "-", "--set", "0"),
    ("analyze", "-", "--report", "bounds"),
    ("dd2", "-"),
], ids=lambda argv: argv[0])
def test_a_second_graph6_record_is_usage_error(capsys, monkeypatch, argv):
    # no record is dropped unread; blank lines around the one record are fine
    code, out, err = run_cli(capsys, *argv, stdin="A_\n\nBw\n", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "expected one graph6 record, found 2" in err
    code, _, _ = run_cli(capsys, *argv, stdin="\nA_\n\n", monkeypatch=monkeypatch)
    assert code == 0


def test_verify_bad_vertex_list_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "verify", "-", "--set", "0,x", "--predicate", "dominating",
        stdin="n 4\n0 1\n", monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "'0,x'" in err
