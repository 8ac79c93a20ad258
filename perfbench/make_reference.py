"""Build the stored reference answers in perfbench/reference/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [suite gnp sparse reports]

Certificates are the program's own (the lex-smallest tie break is part of
its contract), so build the references at the commit the benchmark is
pinned to.  Before anything is written, every value is checked once by a
method that shares no code with the branch and bound: the subset oracle for
n <= 20 and the MILP of independent.py above that.  A solve the program
leaves unproven stores only the independent value.  Needs scipy.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import certdom as cd  # noqa: E402
import certdom.suite  # noqa: E402
from certdom.cli import main as cli_main  # noqa: E402

import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from independent import milp_value  # noqa: E402

ORACLE_MAX_N = 20


def independent(n: int, rows: list[int], param: str) -> int:
    certified = param == "gamma_cer"
    if n <= ORACLE_MAX_N:
        g = cd.Graph(n, rows)
        oracle = cd.gamma_cer_oracle if certified else cd.gamma_oracle
        return oracle(g).value
    return milp_value(n, rows, certified)


def write_json(name: str, obj) -> None:
    path = os.path.join(wl.REFERENCE_DIR, name)
    text = json.dumps(obj, indent=None if name.endswith(".gz") else 1, sort_keys=True) + "\n"
    if name.endswith(".gz"):
        # a fixed mtime keeps the archive byte-identical across rebuilds
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(text.encode())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"wrote {path}", flush=True)


def solve_entry(g, n, edges, param, cfg) -> dict:
    solve = cd.gamma_cer_solve if param == "gamma_cer" else cd.gamma_solve
    res = solve(g, cfg)
    value = independent(n, inputs.edges_rows(n, edges), param)
    cert = res.certificate.to_list()
    valid = cd.is_certified_dominating if param == "gamma_cer" else cd.is_dominating
    if not valid(g, cert) or len(cert) != res.value:
        raise RuntimeError(f"{param}: the program's certificate is invalid")
    if res.proven and res.value != value:
        raise RuntimeError(f"{param}: program {res.value} != independent {value}")
    entry = {"value": value, "seed_proven": res.proven, "seed_value": res.value}
    entry["certificate"] = cert if res.proven else None
    return entry


def build_solves(name: str, pool, cfg) -> None:
    ref = {}
    for key, n, edges in pool:
        t0 = perf_counter()
        g = cd.Graph.from_edges(n, edges)
        ref[key] = {"n": n, "edges_sha": wl.edges_digest(n, edges)}
        for param in ("gamma_cer", "gamma"):
            ref[key][param] = solve_entry(g, n, edges, param, cfg)
        print(f"{key}: {ref[key]['gamma_cer']['value']}/{ref[key]['gamma']['value']} "
              f"proven {ref[key]['gamma_cer']['seed_proven']}/{ref[key]['gamma']['seed_proven']} "
              f"({perf_counter() - t0:.1f}s)", flush=True)
    write_json(name, ref)


def build_suite() -> None:
    masks: dict[str, list[int]] = {str(n): [] for n in range(7)}
    index = {c: j for j, c in enumerate(wl.SUITE_CLAIMS)}

    def on_report(rep) -> None:
        mask = sum(1 << index[o.claim_id] for o in rep.outcomes if o.applicable)
        masks[str(ord(rep.graph_id[0]) - 63)].append(mask)

    summary = certdom.suite.run_suite(
        certdom.suite.SuiteConfig(n_max=6, claims=wl.SUITE_CLAIMS, jobs=1), on_report=on_report)
    if not summary.ok or summary.graphs_checked != len(wl.suite_pool()):
        raise RuntimeError("the suite does not pass at this commit")
    for n in range(7):
        for mask in inputs.labeled_graph_masks(n):
            g = cd.Graph(n, inputs.mask_rows(n, mask))
            for solve, oracle in ((cd.gamma_cer_solve, cd.gamma_cer_oracle),
                                  (cd.gamma_solve, cd.gamma_oracle)):
                if solve(g).value != oracle(g).value:
                    raise RuntimeError(f"value mismatch on {cd.encode_graph6(g)}")
    write_json("suite_n6.json.gz", {"claims": list(wl.SUITE_CLAIMS), "masks": masks})
    write_json("suite_n6_summary.json", {
        "graphs_checked": summary.graphs_checked,
        "applicable": {c: summary.applicable.get(c, 0) for c in wl.SUITE_CLAIMS},
    })


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{argv}: exit {code}")
    return out.getvalue()


def toggled(rows: list[int], u: int, v: int) -> list[int]:
    rows = list(rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return rows


def without(n: int, rows: list[int], v: int) -> list[int]:
    keep = [u for u in range(n) if u != v]
    return [sum(1 << i for i, w in enumerate(keep) if rows[u] >> w & 1) for u in keep]


def verify_report(cmd: str, n: int, rows: list[int], stdout: str) -> None:
    """Check every value a report prints against the independent method."""
    objs = [json.loads(line) for line in stdout.splitlines()]

    def want(rows_, n_=n, param="gamma_cer"):
        return independent(n_, rows_, param)

    def expect(got, exp, what):
        if got != exp:
            raise RuntimeError(f"{cmd}: {what} is {got}, independent value {exp}")

    if cmd == "bounds":
        expect(objs[0]["gamma"], want(rows, param="gamma"), "gamma")
        expect(objs[0]["gamma_cer"], want(rows), "gamma_cer")
    elif cmd == "edges":
        for obj in objs:
            expect(obj["base_value"], want(rows), "base value")
            for rec in obj["records"]:
                u, v = rec["detail"]
                expect(rec["new_value"], want(toggled(rows, u, v)), f"edge {u},{v}")
    elif cmd == "vertices":
        for rec in objs[0]["records"]:
            (v,) = rec["detail"]
            expect(rec["new_value"], want(without(n, rows, v), n - 1), f"vertex {v}")
    elif cmd == "ng":
        full = (1 << n) - 1
        comp = [~r & full & ~(1 << v) for v, r in enumerate(rows)]
        expect(objs[0]["gcer_g"], want(rows), "gcer_g")
        expect(objs[0]["gcer_gbar"], want(comp), "gcer_gbar")


def build_reports() -> None:
    ref = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, n, edges in wl.report_pool():
            t0 = perf_counter()
            rows = inputs.edges_rows(n, edges)
            path = os.path.join(tmp, key + ".g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(inputs.graph6(n, rows) + "\n")
            g = cd.Graph(n, rows)
            entry = {"n": n, "edges_sha": wl.edges_digest(n, edges)}
            for cmd, template in wl.REPORT_COMMANDS.items():
                stdout = run_cli([a.format(path=path) for a in template])
                if cmd.startswith("solve"):
                    obj = json.loads(stdout)
                    param = "gamma" if cmd == "solve-gamma" else "gamma_cer"
                    value = independent(n, rows, param)
                    valid = cd.is_dominating if param == "gamma" else cd.is_certified_dominating
                    if not obj["proven"] or obj["value"] != value or not valid(g, obj["certificate"]):
                        raise RuntimeError(f"{key} {cmd}: unproven, wrong or invalid answer")
                    entry[cmd] = {"value": value, "certificate": obj["certificate"]}
                else:
                    verify_report(cmd, n, rows, stdout)
                    entry[cmd] = {"stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
            ref[key] = entry
            print(f"{key}: ok ({perf_counter() - t0:.1f}s)", flush=True)
    write_json("reports_cli.json", ref)


def main(argv: list[str]) -> int:
    parts = argv or ["suite", "gnp", "sparse", "reports"]
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for part in parts:
        t0 = perf_counter()
        if part == "suite":
            build_suite()
        elif part == "gnp":
            build_solves("solve_gnp.json", wl.gnp_pool(), None)
        elif part == "sparse":
            build_solves("solve_sparse.json", wl.sparse_pool(),
                         cd.SolverConfig(node_limit=wl.SPARSE_NODE_LIMIT))
        elif part == "reports":
            build_reports()
        else:
            raise SystemExit(f"unknown part {part!r}")
        print(f"{part}: done in {perf_counter() - t0:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
