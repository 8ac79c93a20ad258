"""Spans around the package's public functions, recorded from the outside.

``install`` rebinds each traced function under every name a ``certdom``
module holds it by (``certdom.suite.gamma_cer_solve``,
``certdom.solver.closed_form``, ...), and wraps the traced methods on their
classes, so the package source stays untouched.  Spans live in memory as
parallel arrays (name, start, end, parent, op) and are written out once,
when the run ends.  A span's self time is its duration minus the time its direct
children cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# (span name, owner, attribute): owner "fn" rebinds a module-level function
# everywhere it is bound; a class name wraps the method on that class.
TRACED = (
    ("graphs.Graph.__init__", "Graph", "__init__"),
    ("graphs.Graph.add_edge", "Graph", "add_edge"),
    ("graphs.components", "fn", "components"),
    ("graphs.induced_subgraph", "fn", "induced_subgraph"),
    ("graphs.complement", "fn", "complement"),
    ("graphs.parse_graph6", "fn", "parse_graph6"),
    ("structure.closed_form", "fn", "closed_form"),
    ("structure.recognize_corona", "fn", "recognize_corona"),
    ("structure.recognize_diadem", "fn", "recognize_diadem"),
    ("structure.check_gamma_cer_equals_n", "fn", "check_gamma_cer_equals_n"),
    ("structure.check_gamma_cer_equals_n_minus_2", "fn", "check_gamma_cer_equals_n_minus_2"),
    ("solver.gamma_cer_solve", "fn", "gamma_cer_solve"),
    ("solver.gamma_solve", "fn", "gamma_solve"),
    ("solver.all_min_dominating_sets", "fn", "all_min_dominating_sets"),
    ("solver.find_dd2_pair", "fn", "find_dd2_pair"),
    ("suite.enumeration", "fn", "parse_graph6_lines"),
    ("suite.cache.cer", "SolveCache", "gamma_cer"),
    ("suite.cache.cer", "SolveCache", "gamma_cer_cert"),
    ("suite.cache.gamma", "SolveCache", "gamma"),
    ("suite.cache.mds", "SolveCache", "min_dom_masks"),
    ("analysis.bound_report", "fn", "bound_report"),
    ("analysis.edge_effects", "fn", "edge_effects"),
    ("analysis.vertex_effects", "fn", "vertex_effects"),
    ("analysis.nordhaus_gaddum", "fn", "nordhaus_gaddum"),
    ("cli.main", "fn", "main"),
)

CALLS_AND_SELF = (
    "graphs.Graph.__init__", "graphs.components", "graphs.induced_subgraph",
    "graphs.complement", "graphs.Graph.add_edge", "graphs.parse_graph6",
    "structure.closed_form", "structure.recognize_corona",
    "structure.recognize_diadem", "structure.check_gamma_cer_equals_n",
    "structure.check_gamma_cer_equals_n_minus_2",
    "solver.gamma_cer_solve", "solver.gamma_solve",
    "solver.all_min_dominating_sets", "solver.find_dd2_pair",
)
SELF_ONLY = (
    "suite.enumeration", "analysis.bound_report", "analysis.edge_effects",
    "analysis.vertex_effects", "analysis.nordhaus_gaddum", "cli.main",
)
SOLVES = ("solver.gamma_cer_solve", "solver.gamma_solve")
CACHE_STORES = (
    ("cer", "suite.cache.cer", "solver.gamma_cer_solve"),
    ("gamma", "suite.cache.gamma", "solver.gamma_solve"),
    ("mds", "suite.cache.mds", "solver.all_min_dominating_sets"),
)
REPORTS = (
    "analysis.bound_report", "analysis.edge_effects",
    "analysis.vertex_effects", "analysis.nordhaus_gaddum",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list[int] = []
        self.op = -1
        self.counts = {
            "closed_form_calls": 0, "closed_form_hits": 0,
            "solves": 0, "proven": 0, "nodes": 0, "stat_closed_form_hits": 0,
            "components_split": 0, "forced_vertices": 0,
        }

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                # outside every operation: the benchmark's own input
                # building and answer checks, not the program's work
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_closed_form(self, result) -> None:
        self.counts["closed_form_calls"] += 1
        self.counts["closed_form_hits"] += result is not None

    def _on_solve(self, result) -> None:
        c = self.counts
        s = result.stats
        c["solves"] += 1
        c["proven"] += bool(result.proven)
        c["nodes"] += s.nodes_expanded
        c["stat_closed_form_hits"] += s.closed_form_hits
        c["components_split"] += s.components_split
        c["forced_vertices"] += s.forced_vertices

    def install(self) -> None:
        """Wrap every traced function; call once, after importing certdom."""
        import certdom.cli
        import certdom.graphs
        import certdom.suite

        classes = {"Graph": certdom.graphs.Graph, "SolveCache": certdom.suite.SolveCache}
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "certdom" or k.startswith("certdom."))]
        hooks = {"structure.closed_form": self._on_closed_form,
                 "solver.gamma_cer_solve": self._on_solve,
                 "solver.gamma_solve": self._on_solve}
        for name, owner, attr in TRACED:
            if owner != "fn":
                cls = classes[owner]
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                continue
            originals = {id(vars(m)[attr]): vars(m)[attr]
                         for m in modules if callable(vars(m).get(attr))}
            if len(originals) != 1:
                raise RuntimeError(f"cannot trace {attr}: {len(originals)} distinct bindings")
            (orig,) = originals.values()
            wrapped = self.wrap(name, orig, hooks.get(name))
            for m in modules:
                if vars(m).get(attr) is orig:
                    setattr(m, attr, wrapped)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, claim_ids) -> dict[str, tuple[float, str]]:
        names, parents = self.names, self.parents
        dur = [b - a for a, b in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        selfs: dict[str, float] = {}
        parent_name_calls: dict[tuple[str, str], int] = {}
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            selfs[name] = selfs.get(name, 0.0) + dur[i] - child[i]
            if parents[i] >= 0:
                key = (names[parents[i]], name)
                parent_name_calls[key] = parent_name_calls.get(key, 0) + 1

        out: dict[str, tuple[float, str]] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")

        c = self.counts
        out["structure.closed_form.hit_ratio"] = (
            _ratio(c["closed_form_hits"], c["closed_form_calls"]), "ratio")
        solve_s = sum(total.get(name, 0.0) for name in SOLVES)
        out["solver.nodes"] = (c["nodes"], "count")
        out["solver.nodes_per_solve"] = (_ratio(c["nodes"], c["solves"]), "count")
        out["solver.ms_per_node"] = (_ratio(1000 * solve_s, c["nodes"]), "ms")
        out["solver.proven_ratio"] = (_ratio(c["proven"], c["solves"]), "ratio")
        out["solver.closed_form_hits"] = (c["stat_closed_form_hits"], "count")
        out["solver.components_split"] = (c["components_split"], "count")
        out["solver.forced_vertices"] = (c["forced_vertices"], "count")

        for cid in claim_ids:
            out[f"suite.claim.{cid}.s"] = (total.get(f"suite.claim.{cid}", 0.0), "s")
        for store, cache_span, solver_span in CACHE_STORES:
            method_calls = calls.get(cache_span, 0)
            misses = parent_name_calls.get((cache_span, solver_span), 0)
            out[f"suite.cache.{store}.hit_ratio"] = (
                _ratio(method_calls - misses, method_calls), "ratio")

        reports = sum(calls.get(name, 0) for name in REPORTS)
        report_solves = sum(parent_name_calls.get((r, s), 0)
                            for r in REPORTS for s in SOLVES)
        out["analysis.solves_per_report"] = (_ratio(report_solves, reports), "count")
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
