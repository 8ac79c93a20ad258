"""The benchmark's own tests: python3 -m pytest perfbench -q (from the repo root).

They run run.py at its smoke size (tiny pools, one short round per
workload) and check the answer checks themselves by feeding them corrupted
and unproven results.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import certdom  # noqa: E402
import workloads  # noqa: E402
from hostspeed import SAMPLE_SHARE, HostSpeed  # noqa: E402
from worker import summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str, workload: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            out[parts[1]] = parts[3]
    return out


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for w in SPEC["workloads"]:
        printed = printed_metrics(proc.stdout, w["name"])
        for metric in SPEC[kind]:
            assert printed.get(metric["name"]) == metric["unit"], (w["name"], metric["name"])
            assert final["metrics"][f"{w['name']}.{metric['name']}"]["unit"] == metric["unit"]


def test_single_workload_result_line_has_exactly_the_contract_keys():
    proc = run_bench("--workload", "solve-gnp", "--smoke", "--seconds", "0.2", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "solve-gnp", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def smoke_gnp(tmp_path):
    wl = workloads.GnpWorkload(seed=5, smoke=True, workdir=str(tmp_path))
    wl.build(certdom)
    wl.load_reference()
    return wl


def test_corrupted_value_and_certificate_count_as_errors(tmp_path):
    wl = smoke_gnp(tmp_path)
    ops = wl.make_round()
    assert summarize([wl.run_round(certdom, ops)])["error_ratio"] == 0

    key = next(iter(wl.edges))
    wl.ref[key]["gamma_cer"]["value"] += 1
    cert = wl.ref[key]["gamma"]["certificate"]
    wl.ref[key]["gamma"]["certificate"] = cert[:-1] + [cert[-1] + 1]
    got = summarize([wl.run_round(certdom, ops)])
    assert got["failed"] == 2 and got["error_ratio"] == 2 / len(ops)
    assert any("value" in f for f in got["failures"])
    assert any("certificate" in f for f in got["failures"])


def test_unproven_result_counts_as_an_error(tmp_path):
    wl = smoke_gnp(tmp_path)
    wl.cfg = certdom.SolverConfig(node_limit=1)
    ops = wl.make_round()
    got = summarize([wl.run_round(certdom, ops)])
    assert got["failed"] == 0 and got["unproven"] > 0
    assert got["error_ratio"] == got["unproven"] / len(ops)
    assert got["metrics"]["ok_ratio"] == 1 - got["error_ratio"]


def test_suite_check_catches_a_wrong_claim_set(tmp_path):
    wl = workloads.SuiteWorkload(seed=5, smoke=True, workdir=str(tmp_path))
    wl.build(certdom)
    wl.load_reference()
    round_ = wl.make_round()
    assert all(o.status == workloads.OK for o in wl.run_round(certdom, round_))
    wl.ref_masks[round_[1][0]] ^= 1
    got = wl.run_round(certdom, round_)
    assert sum(o.status == workloads.FAILED for o in got) == len(got)


def test_cli_check_catches_a_changed_report_and_a_bad_exit(tmp_path):
    wl = workloads.ReportsWorkload(seed=5, smoke=True, workdir=str(tmp_path))
    wl.build(certdom)
    wl.load_reference()
    op = (next(iter(wl.paths)), "ng")
    argv = wl.prepare(certdom, op)
    assert wl.check(certdom, op, argv, wl.execute(certdom, op, argv)[1])[0] == workloads.OK
    assert wl.check(certdom, op, argv, (2, "", "error"))[0] == workloads.FAILED
    assert wl.check(certdom, op, argv, (0, "{}\n", ""))[0] == workloads.FAILED


def test_suite_reference_counts_match_the_summary():
    masks = workloads.load_reference("suite_n6.json.gz")["masks"]
    summary = workloads.load_reference("suite_n6_summary.json")
    flat = [m for n in range(7) for m in masks[str(n)]]
    assert len(flat) == summary["graphs_checked"] == len(workloads.suite_pool())
    for j, cid in enumerate(workloads.SUITE_CLAIMS):
        assert sum(m >> j & 1 for m in flat) == summary["applicable"][cid]


def test_host_speed_samples_interrupt_work_and_stop_its_clock():
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        c0 = speed.clock()
        while time.perf_counter() - t0 < 0.3:
            pass
        c1 = speed.clock()
    wall = time.perf_counter() - t0
    assert len(speed.times) >= 5
    assert SAMPLE_SHARE / 2 < speed.busy / wall < SAMPLE_SHARE * 2
    assert c1 - c0 == pytest.approx(wall - speed.busy, abs=0.01)
    assert speed.factor(c0, c1) == pytest.approx(speed.factor(), rel=0.5)
