"""The four workloads: their input pools, their operations and the checks
every answer must pass.

A workload is built once per process (``build``) and yields one round: a
list of operations fixed by the seed (``make_round``).  A run repeats that
round until its time is up, and each operation yields one ``Outcome`` per
repeat; every answer is checked after the clock stops, against the stored
references in ``reference/``.

Nothing here imports ``certdom`` at module level: the setup time the
benchmark reports starts with that import.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass
from time import perf_counter

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# the 21 claims of the exhaustive acceptance run, in registry order
SUITE_CLAIMS = (
    "OBS2.6", "OBS2.7", "OBS3.1", "OBS3.2", "THM3.3", "COR3.4", "COR3.5",
    "COR4.1", "COR4.2", "LEM4.3", "COR4.4", "COR4.5", "THM5.3", "THM5.6",
    "LEM6.1", "THM6.2", "COR7.1", "OBS7.2", "THM7.4", "THM7.5", "THM9.2",
)
SUITE_ROUND = 1000
SUITE_SMOKE_ROUND = 60

# (n, p, instances): the first instances of each class by a fixed rule.  One
# pool for every seed: solve time varies 30x between G(n, p) draws of one
# class, so per-seed draws would swamp any change under test.
GNP_CLASSES = ((40, 0.1, 4), (40, 0.2, 4), (50, 0.1, 2), (50, 0.2, 2), (60, 0.1, 1), (60, 0.2, 1))
GNP_SMOKE_CLASSES = ((40, 0.1, 1), (40, 0.2, 1))

SPARSE_SIZES = ((200, 4), (800, 1))
SPARSE_SMOKE_SIZES = ((200, 1),)
SPARSE_NODE_LIMIT = 3000

# every pool graph in each round, for the same reason as GNP_CLASSES
REPORT_ORDERS = tuple(range(12, 21))
REPORT_POOL_PER_ORDER = 4
REPORT_P = 0.25
REPORT_SMOKE_ORDERS = (12, 13)
REPORT_COMMANDS = {
    "solve": ["solve", "{path}", "--json"],
    "solve-gamma": ["solve", "{path}", "--param", "gamma", "--json"],
    "bounds": ["analyze", "{path}", "--report", "bounds"],
    "edges": ["analyze", "{path}", "--report", "edges"],
    "vertices": ["analyze", "{path}", "--report", "vertices"],
    "ng": ["analyze", "{path}", "--report", "ng"],
}

OK, UNPROVEN, FAILED = "ok", "unproven", "failed"


@dataclass
class Outcome:
    label: str
    latency: float
    status: str = OK
    detail: str = ""
    span: tuple[float, float] = (0.0, 0.0)  # its start and end on ``Workload.clock``


def edges_digest(n: int, edges) -> str:
    text = f"{n};" + ";".join(f"{u},{v}" for u, v in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(name: str, digests: dict[str, str] | None = None):
    """A reference file; with ``digests``, also check that each input the run
    generated is the one the reference was built for."""
    path = os.path.join(REFERENCE_DIR, name)
    opener = gzip.open if name.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        ref = json.load(fh)
    for key, digest in (digests or {}).items():
        if ref[key]["edges_sha"] != digest:
            raise RuntimeError(f"{key}: generated input differs from the reference input")
    return ref


# ---------------------------------------------------------------------------
# Input pools (shared with make_reference.py)
# ---------------------------------------------------------------------------

def gnp_pool(classes=GNP_CLASSES):
    for n, p, count in classes:
        for i in range(count):
            key = f"gnp-{n}-{p}-{i}"
            yield key, n, inputs.connected_gnp(n, p, random.Random(key))


def sparse_pool(sizes=SPARSE_SIZES):
    for n, count in sizes:
        for kind, make in inputs.SPARSE_KINDS.items():
            for i in range(count):
                key = f"{kind}-{n}-{i}"
                yield key, n, make(n, random.Random(key))


def report_pool(orders=REPORT_ORDERS):
    for n in orders:
        for i in range(REPORT_POOL_PER_ORDER):
            key = f"report-{n}-{i}"
            yield key, n, inputs.connected_gnp(n, REPORT_P, random.Random(key))


def suite_pool():
    """(n, edge mask) for every labeled graph of order <= 6."""
    return [(n, m) for n in range(7) for m in inputs.labeled_graph_masks(n)]


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def check_solve(cd, g, param: str, value: int, cert: list[int], proven: bool, ref) -> tuple[str, str]:
    """Status of one solve against its reference entry.

    ``ref`` holds the independently checked ``value`` and, where the seed
    commit proved the solve, its lex-smallest ``certificate``.
    """
    valid = cd.is_certified_dominating if param == "gamma_cer" else cd.is_dominating
    if not valid(g, cert):
        return FAILED, "certificate is not a valid set"
    if len(set(cert)) != value:
        return FAILED, f"certificate size {len(set(cert))} != value {value}"
    if not proven:
        if value < ref["value"]:
            return FAILED, f"value {value} below the reference {ref['value']}"
        return UNPROVEN, f"unproven, value {value} (reference {ref['value']})"
    if value != ref["value"]:
        return FAILED, f"value {value} != reference {ref['value']}"
    if ref.get("certificate") is not None and sorted(cert) != ref["certificate"]:
        return FAILED, "certificate differs from the lex-smallest reference"
    return OK, ""


def _worst(checks: list[tuple[str, str]]) -> tuple[str, str]:
    for status in (FAILED, UNPROVEN):
        for got in checks:
            if got[0] == status:
                return got
    return OK, ""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # seconds of back-to-back runs per operation in a measured round: cheap
    # operations get many samples, and their median is steady on a busy machine
    tau = 0.0
    # the clock operations are timed on; a measured run replaces it with one
    # that stands still while host-speed samples run (hostspeed.py)
    clock = staticmethod(perf_counter)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def run_round(self, cd, ops, tracer=None, tau: float = 0.0,
                  deadline: float | None = None) -> list[Outcome]:
        """Each operation once, or back to back until its runs total ``tau``
        seconds; an operation's latency is the median of its runs, and every
        run's answer is checked after its clock stops.  At ``deadline`` (a
        ``perf_counter()`` time) the round stops early, and the outcomes
        cover the operations run so far."""
        out = []
        for i, op in enumerate(ops):
            if deadline is not None and perf_counter() >= deadline:
                break
            begun = self.clock()
            runs = []
            busy = 0.0
            while not runs or busy < tau:
                prepared = self.prepare(cd, op)
                if tracer is None:
                    latency, result = self.execute(cd, op, prepared)
                else:
                    tracer.op = i
                    with tracer.span("op"):
                        latency, result = self.execute(cd, op, prepared)
                runs.append((latency, prepared, result))
                busy += latency
            status, detail = _worst([self.check(cd, op, p, r) for _, p, r in runs])
            latency = statistics.median(r[0] for r in runs)
            out.append(Outcome(self.label(op), latency, status, detail, (begun, self.clock())))
        return out


class SolveWorkload(Workload):
    """Both solves on every pool graph, in a seeded order."""

    reference_file = ""
    tau = 0.2

    def pool(self):
        raise NotImplementedError

    def config(self, cd):
        return None

    def build(self, cd) -> None:
        self.edges = {}
        self.digests = {}
        for key, n, edges in self.pool():
            self.edges[key] = (n, edges)
            self.digests[key] = edges_digest(n, edges)
        self.cfg = self.config(cd)

    def load_reference(self) -> None:
        self.ref = load_reference(self.reference_file, self.digests)

    def make_round(self) -> list:
        ops = [(key, param) for key in self.edges for param in ("gamma_cer", "gamma")]
        random.Random(f"{self.name}-{self.seed}").shuffle(ops)
        return ops

    def label(self, op) -> str:
        return "%s:%s" % op

    def prepare(self, cd, op):
        # a fresh Graph per run, so nothing memoized on the object carries over
        return cd.Graph.from_edges(*self.edges[op[0]])

    def execute(self, cd, op, g):
        solve = cd.gamma_cer_solve if op[1] == "gamma_cer" else cd.gamma_solve
        t0 = self.clock()
        try:
            res = solve(g, self.cfg)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            return self.clock() - t0, f"raised {type(exc).__name__}: {exc}"
        return self.clock() - t0, res

    def check(self, cd, op, g, res) -> tuple[str, str]:
        if isinstance(res, str):
            return FAILED, res
        key, param = op
        return check_solve(cd, g, param, res.value, res.certificate.to_list(),
                           res.proven, self.ref[key][param])


class GnpWorkload(SolveWorkload):
    name = "solve-gnp"
    reference_file = "solve_gnp.json"

    def pool(self):
        return gnp_pool(GNP_SMOKE_CLASSES if self.smoke else GNP_CLASSES)


class SparseWorkload(SolveWorkload):
    name = "solve-sparse"
    reference_file = "solve_sparse.json"

    def pool(self):
        return sparse_pool(SPARSE_SMOKE_SIZES if self.smoke else SPARSE_SIZES)

    def config(self, cd):
        return cd.SolverConfig(node_limit=SPARSE_NODE_LIMIT)


class ReportsWorkload(Workload):
    """In-process CLI commands on graph6 files, every command on every pool
    graph, in a seeded order."""

    name = "reports-cli"
    tau = 0.03

    def build(self, cd) -> None:
        self.paths = {}
        self.graphs = {}
        self.digests = {}
        for key, n, edges in report_pool(REPORT_SMOKE_ORDERS if self.smoke else REPORT_ORDERS):
            path = os.path.join(self.workdir, key + ".g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(inputs.graph6(n, inputs.edges_rows(n, edges)) + "\n")
            self.paths[key] = path
            self.graphs[key] = cd.Graph.from_edges(n, edges)
            self.digests[key] = edges_digest(n, edges)

    def load_reference(self) -> None:
        self.ref = load_reference("reports_cli.json", self.digests)

    def make_round(self) -> list:
        ops = [(key, cmd) for key in self.paths for cmd in REPORT_COMMANDS]
        random.Random(f"{self.name}-{self.seed}").shuffle(ops)
        return ops

    def label(self, op) -> str:
        return "%s:%s" % op

    def prepare(self, cd, op):
        return [a.format(path=self.paths[op[0]]) for a in REPORT_COMMANDS[op[1]]]

    def execute(self, cd, op, argv):
        import certdom.cli

        out, err = io.StringIO(), io.StringIO()
        t0 = self.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = certdom.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising command is a failed one
            code = f"raised {type(exc).__name__}: {exc}"
        return self.clock() - t0, (code, out.getvalue(), err.getvalue())

    def check(self, cd, op, argv, result) -> tuple[str, str]:
        key, cmd = op
        code, stdout, stderr = result
        if code != 0:
            return FAILED, f"exit {code}: {stderr.strip()[:200]}"
        ref = self.ref[key][cmd]
        if cmd.startswith("solve"):
            obj = json.loads(stdout)
            param = "gamma" if cmd == "solve-gamma" else "gamma_cer"
            return check_solve(cd, self.graphs[key], param, obj["value"],
                               obj["certificate"], obj["proven"], ref)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != ref["stdout_sha256"]:
            return FAILED, "report output differs from the reference"
        return OK, ""


class SuiteWorkload(Workload):
    """``run_suite`` over a graph6 file of a seeded sample of the labeled
    graphs of order <= 6, with a fresh ``SolveCache`` each time."""

    name = "suite-n6"

    def build(self, cd) -> None:
        self.pool = suite_pool()
        self.idxs = random.Random(f"{self.name}-{self.seed}").sample(
            range(len(self.pool)), SUITE_SMOKE_ROUND if self.smoke else SUITE_ROUND)
        self.path = os.path.join(self.workdir, "suite.g6")
        with open(self.path, "w", encoding="ascii") as fh:
            for i in self.idxs:
                n, mask = self.pool[i]
                fh.write(inputs.graph6(n, inputs.mask_rows(n, mask)) + "\n")

    def load_reference(self) -> None:
        ref = load_reference("suite_n6.json.gz")
        if tuple(ref["claims"]) != SUITE_CLAIMS:
            raise RuntimeError("suite reference was built for other claims")
        self.ref_masks = [m for n in range(7) for m in ref["masks"][str(n)]]
        if len(self.ref_masks) != len(self.pool):
            raise RuntimeError("suite reference does not cover the pool")

    def make_round(self):
        return self.path, self.idxs

    def run_round(self, cd, round_, tracer=None, tau: float = 0.0,
                  deadline: float | None = None) -> list[Outcome]:
        """The whole sample once (``tau`` does not apply: a second run of a
        graph would hit the cache, and nor does ``deadline``: a round is
        short)."""
        import certdom.suite

        path, idxs = round_
        cache = certdom.suite.SolveCache()
        if tracer is None:
            stamps = []
            cfg = certdom.suite.SuiteConfig(graph6_file=path, claims=SUITE_CLAIMS, jobs=1)
            t0 = self.clock()
            summary = certdom.suite.run_suite(
                cfg, on_report=lambda rep: stamps.append((self.clock(), rep)), cache=cache)
            times = [t0] + [t for t, _ in stamps]
            reports = [rep for _, rep in stamps]
            spans = list(zip(times, times[1:]))
        else:
            summary = None
            reports, spans = [], []
            with open(path, encoding="ascii") as fh:
                text = fh.read()
            tracer.op = -1
            with tracer.span("op"):
                graphs = certdom.suite.parse_graph6_lines(text)
            for i, g in enumerate(graphs):
                tracer.op = i
                t0 = self.clock()
                outcomes = []
                with tracer.span("op"):
                    for cid in SUITE_CLAIMS:
                        with tracer.span(f"suite.claim.{cid}"):
                            outcomes += certdom.suite.evaluate_graph(g, (cid,), cache).outcomes
                spans.append((t0, self.clock()))
                reports.append(certdom.suite.TheoremReport(certdom.encode_graph6(g), tuple(outcomes)))
        return self.check(idxs, reports, spans, summary)

    def check(self, idxs, reports, spans, summary) -> list[Outcome]:
        out = []
        want_counts = [0] * len(SUITE_CLAIMS)
        for k, i in enumerate(idxs):
            n, mask = self.pool[i]
            label = inputs.graph6(n, inputs.mask_rows(n, mask))
            if k >= len(reports):
                out.append(Outcome(label, 0.0, FAILED, "not checked: the run aborted"))
                continue
            rep = reports[k]
            want = self.ref_masks[i]
            got = sum(1 << j for j, o in enumerate(rep.outcomes) if o.applicable)
            for j in range(len(SUITE_CLAIMS)):
                want_counts[j] += want >> j & 1
            o = Outcome(label, spans[k][1] - spans[k][0], span=spans[k])
            if rep.graph_id != label:
                o.status, o.detail = FAILED, f"report for {rep.graph_id}, expected {label}"
            elif rep.failures:
                o.status, o.detail = FAILED, "failing claims " + ",".join(f.claim_id for f in rep.failures)
            elif got != want:
                o.status, o.detail = FAILED, f"applicable claims mask {got:#x} != reference {want:#x}"
            out.append(o)
        if summary is not None:
            want_summary = {cid: c for cid, c in zip(SUITE_CLAIMS, want_counts) if c}
            passed = {cid: summary.passed.get(cid, 0) for cid in want_summary}
            if (summary.graphs_checked != len(idxs) or not summary.ok
                    or summary.applicable != want_summary or passed != want_summary):
                for o in out:
                    if o.status == OK:
                        o.status, o.detail = FAILED, "suite summary differs from the reference counts"
        return out


WORKLOADS = {
    "suite-n6": SuiteWorkload,
    "solve-gnp": GnpWorkload,
    "solve-sparse": SparseWorkload,
    "reports-cli": ReportsWorkload,
}
