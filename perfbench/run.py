"""certdom benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload suite-n6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Each workload runs in its own fresh Python process (worker.py) that imports
``certdom`` from ``src/``, with ``CERTDOM_JOBS`` removed from its
environment.  With ``--trace 0`` run.py first starts several set-up
probes, each a fresh process that imports the package and builds the
workload's inputs, and reports their median as ``setup_s``.  Untraced
times are scaled to one reference host speed (hostspeed.py).  Every answer
is checked against the stored references before any number is printed.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
with ``--trace 1``).  Everything the run writes stays under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suite-n6", "solve-gnp", "solve-sparse", "reports-cli")
SETUP_PROBES = 11
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: str, args) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_worker(root: str, argv: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("CERTDOM_JOBS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f}s: {argv}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    expected = os.path.join(root, "src", "certdom", "__init__.py")
    if os.path.realpath(result["certdom"]) != os.path.realpath(expected):
        raise BenchError(f"worker imported certdom from {result['certdom']}, not {expected}")
    return result


def run_workload(root: str, name: str, args, started: float) -> dict:
    work = os.path.join(root, ".perfbench", "work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", name, "--seed", str(args.seed), "--workdir", work]
    if args.smoke:
        common.append("--smoke")
    try:
        setups, setups_host = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                left = DEADLINE_S - (monotonic() - started)
                probe = run_worker(root, common + ["--setup-only"], min(60.0, left))
                setups.append(probe["setup_s"])
                setups_host.append(probe["setup_host_s"])
        trace_out = os.path.join(root, ".perfbench", f"trace-{name}-seed{args.seed}.csv.gz")
        result = run_worker(
            root,
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--trace-out", trace_out],
            DEADLINE_S - (monotonic() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        result["metrics"] = result.pop("layers")
        result["trace_file"] = os.path.relpath(trace_out, root)
    else:
        values = dict(result.pop("metrics"), setup_s=statistics.median(setups))
        result["setup_runs_s"] = setups
        result["setup_runs_host_s"] = setups_host
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return result


def report(name: str, result: dict, out) -> None:
    print(f"== {name}", file=out)
    for key, m in result["metrics"].items():
        print(f"{name}  {key:<48} {m['value']:>16.6g} {m['unit']}", file=out)
    extra = {k: result[k] for k in ("attempted", "failed", "unproven", "error_ratio",
                                    "tail_percentile", "round_ops", "repeats", "host_factor",
                                    "ops_per_s_host", "setup_runs_s", "setup_runs_host_s",
                                    "spans", "trace_file") if k in result}
    print(f"{name}  detail {json.dumps(extra)}", file=out)
    for label in result["unproven_ops"]:
        print(f"{name}  unproven {label}", file=out)
    for line in result["failures"]:
        print(f"{name}  FAILED {line}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pools and rounds, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "certdom", "__init__.py")):
        print("error: run from a checkout of the repository: src/certdom is missing",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args, monotonic())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"provenance": provenance(root, args)}))
    for name, result in results.items():
        report(name, result, sys.stdout)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
