"""One workload in one fresh process; started by run.py, not by hand.

Prints a single JSON line: either ``{"setup_s": ...}`` (``--setup-only``)
or the run's measurements, outcomes and, with ``--trace 1``, the per-layer
metrics.  ``certdom`` is imported from the ``PYTHONPATH`` run.py sets.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

# seconds of host-speed samples after a set-up probe, for its factor
SETUP_CALIBRATION_S = 0.1


def outcome_counts(outcomes) -> dict:
    failed = [o for o in outcomes if o.status == workloads.FAILED]
    unproven = [o for o in outcomes if o.status == workloads.UNPROVEN]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "unproven": len(unproven),
        "error_ratio": (len(failed) + len(unproven)) / len(outcomes),
        "failures": [f"{o.label}: {o.detail}" for o in failed[:50]],
        "unproven_ops": sorted({o.label for o in unproven}),
    }


def hd_quantile(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples: a mean of
    every order statistic weighted by the Beta((n+1)q, (n+1)(1-q)) density.
    Operation latencies come in clusters (one per input family), and a single
    order statistic jumps between clusters on small timing noise."""
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule on each order statistic's interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def summarize(repeats: list[list], speed: HostSpeed | None = None) -> dict:
    """End-to-end metrics of a run: ``repeats`` holds one outcome list per
    repeat of the round, aligned by operation (the last may stop early).
    Each latency is scaled by the host speed factor over its operation's
    span (hostspeed.py).  An operation's latency is the median over the
    repeats: steady against a one-off stall, and unbiased by how many
    repeats fit in the run.  ``error_ratio`` counts an operation once, as
    failed or unproven if any of its runs was."""
    runs: list[list[float]] = [[] for _ in repeats[0]]
    bad = [False] * len(runs)
    for rep in repeats:
        for i, o in enumerate(rep):
            runs[i].append(o.latency * (speed.factor(*o.span) if speed else 1.0))
            bad[i] = bad[i] or o.status != workloads.OK
    per_op = sorted(statistics.median(r) for r in runs)
    n = len(per_op)
    # the highest percentile with ten operations beyond it
    q = max(0.5, 1.0 - 10.0 / n)
    outcomes = [o for rep in repeats for o in rep]
    result = outcome_counts(outcomes)
    result["error_ratio"] = sum(bad) / n
    result["metrics"] = {
        "ops_per_s": n / sum(per_op),
        "latency_p50_s": hd_quantile(per_op, 0.5),
        "latency_tail_s": hd_quantile(per_op, q),
        "ok_ratio": 1.0 - result["error_ratio"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(tail_percentile=100.0 * q, round_ops=n, repeats=len(repeats),
                  ops_per_s_host=len(outcomes) / sum(o.latency for o in outcomes))
    if speed:
        result["host_factor"] = speed.factor()
    return result


def measure(wl, cd, seconds: float) -> tuple[list[list], HostSpeed]:
    """Repeat the round, with host-speed samples running, until ``seconds``
    have passed; the first round runs whole."""
    ops = wl.make_round()
    deadline = perf_counter() + seconds
    with HostSpeed() as speed:
        wl.clock = speed.clock
        repeats = [wl.run_round(cd, ops, tau=wl.tau)]
        while perf_counter() < deadline:
            repeats.append(wl.run_round(cd, ops, tau=wl.tau, deadline=deadline))
    return repeats, speed


def traced(wl, cd, trace_path: str) -> dict:
    """The round once untraced, then once traced."""
    ops = wl.make_round()
    plain = wl.run_round(cd, ops)
    tracer = Tracer()
    tracer.install()
    spanned = wl.run_round(cd, ops, tracer)
    tracer.write(trace_path)
    layers = tracer.layer_metrics(workloads.SUITE_CLAIMS)
    plain_rate = len(plain) / sum(o.latency for o in plain)
    traced_rate = len(spanned) / sum(o.latency for o in spanned)
    layers["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
    layers["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    layers["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s")
    result = outcome_counts(plain + spanned)
    result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    result["spans"] = len(tracer.names)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with HostSpeed() as speed:
        t0 = speed.clock()
        import certdom

        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
        wl.build(certdom)
        t1 = speed.clock()
    if args.setup_only:
        speed.calibrate(SETUP_CALIBRATION_S)
        setup_s = t1 - t0
        print(json.dumps({"setup_s": speed.factor(t0, t1) * setup_s, "setup_host_s": setup_s,
                          "certdom": certdom.__file__}))
        return 0

    wl.load_reference()
    if args.trace:
        result = traced(wl, certdom, args.trace_out)
    else:
        result = summarize(*measure(wl, certdom, args.seconds))
    result["certdom"] = certdom.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
