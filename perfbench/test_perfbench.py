"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench        # from the root of the checkout
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _tiny_run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], root=REPO, scale=workloads.TINY)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_emits_every_metric(capsys, workload, trace):
    res = _tiny_run(capsys, workload, trace)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


def _tiny_results(tmp_path, cls):
    wl = cls(5, workloads.TINY, str(tmp_path))
    results = [workloads.run_op(op, "setup0") for op in wl.setup_ops(0)]
    results += [workloads.run_op(op, "pass0") for op in wl.ops(0)]
    return results


def _failed_ops(results, digests=None):
    return {r.op.name for r, f in zip(results, workloads.check(results, digests)) if f}


def test_injected_wrong_count_is_a_failed_op(tmp_path, monkeypatch):
    results = _tiny_results(tmp_path, workloads.ColdScan)
    assert _failed_ops(results) == set()
    real = workloads.plucker_sweep_count_4_2
    monkeypatch.setattr(workloads, "plucker_sweep_count_4_2", lambda h: real(h) + 1)
    assert _failed_ops(results) == {"scan_r4_cold"}


def test_injected_wrong_digest_is_a_failed_op(tmp_path):
    results = _tiny_results(tmp_path, workloads.ColdScan)
    good = {r.op.name: r.digest for r in results}
    assert _failed_ops(results, good) == set()
    assert _failed_ops(results, dict(good, scan_5_3_cold="0" * 64)) == {"scan_5_3_cold"}


def test_rational_hit_must_exit_2(tmp_path):
    results = _tiny_results(tmp_path, workloads.WarmCertify)
    assert _failed_ops(results) == set()
    hit = next(r for r in results if r.op.name == "lower_bound_r5")
    hit.code = 0
    assert _failed_ops(results) == {"lower_bound_r5"}


def test_warm_scan_must_match_the_setup_scan(tmp_path):
    results = _tiny_results(tmp_path, workloads.WarmCertify)
    warm = next(r for r in results if r.op.name == "warm_scan_r4_j1")
    warm.out += "\n"
    assert "warm_scan_r4_j1" in _failed_ops(results)


def test_dual_keys_match_the_e3_enumeration():
    e53 = workloads.enumerate_subspaces(5, 3, 3)
    assert workloads.dual_keys(5, 2, 3) == {e53.key_at(i) for i in range(len(e53))}


def test_self_time_subtracts_children():
    s = [["a", 0.0, 10.0, -1, "op", {}],
         ["b", 1.0, 4.0, 0, "op", {}],
         ["c", 2.0, 3.0, 1, "op", {}],
         ["d", 5.0, 6.0, 0, "op", {}]]
    assert spans.self_times(s) == [6.0, 2.0, 1.0, 1.0]


def test_install_traces_calls_and_restores():
    from subapprox import cli, enumeration, grassmann

    orig_main, orig_fp = cli.main, enumeration.from_plucker
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert enumeration.from_plucker is not orig_fp
        assert enumeration.from_plucker is grassmann.from_plucker
        cli.main(["props", "--seed", "1"])
    finally:
        restore()
    assert cli.main is orig_main and enumeration.from_plucker is orig_fp
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "cli.props", "angles.canonical_angles"} <= names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(REPO, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "cold_scan",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
