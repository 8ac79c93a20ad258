"""Command-line interface.

Subcommands: ``solve`` (exact values with certificates), ``verify``
(predicate checks with per-vertex statuses), ``family`` (graph generators),
``analyze`` (bound / modification / complement-pair reports as JSON lines),
``dd2`` (dominating + 2-dominating pair search), and ``suite`` (the
exhaustive claim suite).

Graphs are read from a file argument or standard input ("-").  A line whose
characters all fall in the graph6 alphabet, after an optional ``>>graph6<<``
header, is treated as graph6; text starting with an ``n <count>`` header as
an edge list; ``--format`` settles any ambiguity.  Reports go to standard
output as line-delimited JSON with stable key order; diagnostics go to
standard error.  Exit status: 0 success, 1 claim failure in the suite, 2
usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import bound_report, edge_effects, nordhaus_gaddum, vertex_effects
from .domination import (
    classify_vertex,
    is_2dominating,
    is_certified_dominating,
    is_dominating,
)
from .families import parse_family_spec
from .graphs import (
    _G6_HEADER,
    _G6_MAX,
    _G6_MIN,
    Graph,
    GraphParseError,
    VertexSet,
    encode_edge_list,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
)
from .solver import SolverConfig, find_dd2_pair, gamma_cer_solve, gamma_solve
from .suite import SuiteConfig, claim_ids, run_suite


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _parse_graph(text: str, fmt: str | None) -> Graph:
    stripped = text.strip()
    if not stripped:
        raise GraphParseError("empty input")
    first = stripped.splitlines()[0].strip()
    if fmt is None:
        if first.startswith("n ") or first == "n":
            fmt = "edgelist"
        elif all(_G6_MIN <= ord(ch) <= _G6_MAX for ch in first.removeprefix(_G6_HEADER)):
            fmt = "graph6"
        else:
            raise GraphParseError(
                "cannot auto-detect the input format; pass --format"
            )
    if fmt == "graph6":
        records = sum(1 for line in stripped.splitlines() if line.strip())
        if records > 1:
            raise GraphParseError(f"expected one graph6 record, found {records}")
        return parse_graph6(first)
    return parse_edge_list(stripped)


def _load_graph(args) -> Graph:
    return _parse_graph(_read_input(args.input), args.format)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _parse_vertex_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"expected a comma-separated vertex list, got {text!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    g = _load_graph(args)
    solve = gamma_solve if args.param == "gamma" else gamma_cer_solve
    res = solve(g, SolverConfig(node_limit=args.node_limit))
    if args.json:
        _emit(
            {
                "param": args.param,
                "n": g.n,
                "value": res.value,
                "certificate": res.certificate.to_list(),
                "proven": res.proven,
                "stats": res.stats.as_dict(),
            }
        )
    else:
        print(f"value: {res.value}")
        print(f"certificate: {' '.join(map(str, res.certificate)) or '(empty)'}")
        if not res.proven:
            print("warning: node limit hit; the value or its lex-smallest tie break is unproven")
        s = res.stats
        print(
            f"stats: nodes={s.nodes_expanded} forced={s.forced_vertices} "
            f"components={s.components_split} closed_forms={s.closed_form_hits}"
        )
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    vertices = _parse_vertex_list(args.set)
    d = VertexSet.of(g.n, vertices)
    predicate = {
        "dominating": is_dominating,
        "certified": is_certified_dominating,
        "2dominating": is_2dominating,
    }[args.predicate]
    holds = predicate(g, d)
    statuses = [classify_vertex(g, d, v).value for v in range(g.n)]
    if args.json:
        _emit(
            {
                "predicate": args.predicate,
                "set": sorted(set(vertices)),
                "holds": holds,
                "statuses": statuses,
            }
        )
    else:
        print(f"{args.predicate}: {str(holds).lower()}")
        print("statuses: " + " ".join(f"{v}={s}" for v, s in enumerate(statuses)))
    return 0


def _cmd_family(args) -> int:
    g = parse_family_spec(args.spec)
    if args.emit == "edgelist":
        sys.stdout.write(encode_edge_list(g))
    else:
        sys.stdout.write(encode_graph6(g) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    if args.edge is not None and args.report != "edges":
        raise ValueError("--edge applies only to --report edges")
    if args.add_neighbours is not None and args.report != "vertices":
        raise ValueError("--add-neighbours applies only to --report vertices")
    if args.report == "bounds":
        _emit(bound_report(g))
    elif args.report == "edges":
        if args.edge is not None:
            edge = _parse_vertex_list(args.edge)
            if len(edge) != 2:
                raise ValueError(f"--edge expects two vertices U,V, got {args.edge!r}")
            _emit(edge_effects(g, tuple(edge)))
        else:
            _emit(edge_effects(g, "all-deletions"))
            _emit(edge_effects(g, "all-additions"))
    elif args.report == "vertices":
        if args.add_neighbours is not None:
            _emit(vertex_effects(g, _parse_vertex_list(args.add_neighbours)))
        else:
            _emit(vertex_effects(g, "all-deletions"))
    else:
        _emit(nordhaus_gaddum(g))
    return 0


def _cmd_dd2(args) -> int:
    g = _load_graph(args)
    pair = find_dd2_pair(g, args.max_d)
    if args.json:
        if pair is None:
            _emit({"found": False})
        else:
            _emit({"found": True, "d": pair.d.to_list(), "d2": pair.d2.to_list()})
    elif pair is None:
        print("none")
    else:
        print(f"d: {' '.join(map(str, pair.d)) or '(empty)'}")
        print(f"d2: {' '.join(map(str, pair.d2)) or '(empty)'}")
    return 0


def _cmd_suite(args) -> int:
    claims = None if args.claims is None else tuple(args.claims.split(","))
    cfg = SuiteConfig(
        n_max=args.n_max,
        graph6_file=args.graph6_file,
        claims=claims,
        jobs=args.jobs,
    )

    def on_report(report):
        if args.verbose or report.failures:
            _emit(report.to_json_obj())
        if report.failures:
            print(
                f"claim failure on graph {report.graph_id}: "
                + ", ".join(o.claim_id for o in report.failures),
                file=sys.stderr,
            )

    summary = run_suite(cfg, on_report=on_report)
    _emit(summary.to_json_obj())
    return 0 if summary.ok else 1


@functools.cache  # built once per process: main runs it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certdom",
        description="Exact certified-domination computations on small graphs.",
        epilog=(
            "Inputs are graph6 records or 0-based edge lists ('n <count>' "
            "header, then 'u v' lines)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph file, or - for standard input")
        p.add_argument(
            "--format", choices=["graph6", "edgelist"], default=None,
            help="input format (default: auto-detect)",
        )

    p = sub.add_parser("solve", help="exact value with an optimal certificate")
    add_input(p)
    p.add_argument(
        "--param", choices=["gamma", "gamma-cer"], default="gamma-cer",
        help="which number to compute (default: gamma-cer)",
    )
    p.add_argument(
        "--node-limit", type=int, default=None, metavar="N",
        help="stop the search after N nodes; the answer is then marked unproven",
    )
    p.add_argument("--json", action="store_true", help="one JSON line instead of text")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="check a predicate on an explicit vertex set")
    add_input(p)
    p.add_argument("--set", required=True, metavar="LIST",
                   help="comma-separated vertices, e.g. 0,3,5")
    p.add_argument(
        "--predicate", choices=["dominating", "certified", "2dominating"],
        default="certified",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("family", help="generate a parametric family instance")
    p.add_argument(
        "spec",
        help='e.g. "wheel 8", "fig3a 2", "corona (cycle 5) (complete 1)"',
    )
    p.add_argument("--emit", choices=["graph6", "edgelist"], default="graph6")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("analyze", help="bound / modification / complement reports")
    add_input(p)
    p.add_argument(
        "--report", choices=["bounds", "edges", "vertices", "ng"], required=True
    )
    p.add_argument("--edge", metavar="U,V", default=None,
                   help="single edge for --report edges")
    p.add_argument("--add-neighbours", metavar="LIST", default=None,
                   help="attach one new vertex to LIST for --report vertices")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("dd2", help="disjoint dominating + 2-dominating pair")
    add_input(p)
    p.add_argument("--max-d", type=int, default=None, metavar="K",
                   help="accept any pair with |D| <= K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_dd2)

    p = sub.add_parser("suite", help="run the claim suite over small graphs")
    p.add_argument("--n-max", type=int, default=6, metavar="K")
    p.add_argument("--graph6-file", default=None, metavar="PATH",
                   help="check these graphs instead of enumerating")
    p.add_argument("--claims", default=None, metavar="LIST",
                   help="comma-separated claim ids (default: all); "
                        f"known: {','.join(claim_ids())}")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="worker processes (default: 1)")
    p.add_argument("--verbose", action="store_true",
                   help="print one JSON report line per graph")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print("error: the graph is too large for the available memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
