"""End-to-end acceptance suite.

Each test drives the installed command-line interface in a subprocess,
re-checks the advertised tolerances from the parsed records (never trusting
the embedded status fields alone), and emits one PASS/FAIL line per
criterion into the terminal summary.
"""

import json
import re
import subprocess
import sys
import time

import pytest

from conftest import ACCEPTANCE_LINES, child_env

WALL_CLOCK = re.compile(r'"wall_clock_s":[^,}]+')


def _run_cli(args):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qiglab", *args], capture_output=True, text=True, env=child_env()
    )
    elapsed = time.perf_counter() - started
    records = [json.loads(line) for line in proc.stdout.strip().splitlines()] if proc.stdout.strip() else []
    return proc.returncode, records, elapsed


def _cases(records):
    return [r for r in records if r.get("record") == "case"]


def _finish(number, label, checks, elapsed, limit):
    checks = list(checks) + [(f"runtime {elapsed:.1f}s within {limit}s", elapsed < limit)]
    ok = all(passed for _, passed in checks)
    line = f"CRITERION {number} ({label}): {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    failed = [desc for desc, passed in checks if not passed]
    assert ok, f"{line}; failed checks: {failed}"


def test_criterion_1_kernel_vs_direct_consistency():
    code, records, elapsed = _run_cli(["metric-table"])
    rows = [r for r in _cases(records) if r["check"] == "kernel_vs_direct"]
    others = [r for r in _cases(records) if r["check"] != "kernel_vs_direct"]
    checks = [
        ("exit code 0", code == 0),
        ("15 (dim, alpha) combinations", len(rows) == 15),
        ("dims 2,3,4 covered", sorted({r["dim"] for r in rows}) == [2, 3, 4]),
        (
            "alphas -0.9,-0.5,0,0.5,0.9 covered",
            sorted({r["alpha"] for r in rows}) == [-0.9, -0.5, 0.0, 0.5, 0.9],
        ),
        ("all relative deviations <= 1e-8", all(r["value"] <= 1e-8 for r in rows)),
        ("ordering and demo rows all pass", all(r["status"] == "pass" for r in others)),
    ]
    _finish(1, "two metric forms agree", checks, elapsed, 10.0)


def test_criterion_2_matched_duality_defect():
    code_a, rec_a, t_a = _run_cli(["duality"])
    code_b, rec_b, t_b = _run_cli(["duality", "--metric", "bkm", "--alpha=-1,1"])
    matched = _cases(rec_a)
    limits = _cases(rec_b)
    checks = [
        ("default run exit 0", code_a == 0),
        ("limit run exit 0", code_b == 0),
        (
            "qubit and qutrit families on both manifolds",
            {(r["family"], r["manifold"]) for r in matched}
            >= {("qubit-bloch", "state"), ("qutrit-sub", "state"), ("qubit-weight", "weight"), ("qutrit-weight", "weight")},
        ),
        (
            "alphas -0.5, 0, 0.5 covered",
            sorted({r["alpha"] for r in matched}) == [-0.5, 0.0, 0.5],
        ),
        ("matched defects <= 5e-5", all(r["defect"] <= 5e-5 for r in matched)),
        ("endpoint alphas -1, 1 covered", sorted({r["alpha"] for r in limits}) == [-1.0, 1.0]),
        ("endpoint defects <= 5e-5", all(r["defect"] <= 5e-5 for r in limits)),
    ]
    _finish(2, "matched pairing is torsion-dual", checks, elapsed=t_a + t_b, limit=60.0)


def test_criterion_3_mismatched_metrics_are_falsified():
    code_a, rec_a, t_a = _run_cli(
        ["duality", "--metric", "bures,rld,wyd:0.75", "--alpha", "0", "--dim", "2", "--manifold", "state"]
    )
    code_b, rec_b, t_b = _run_cli(
        ["duality", "--metric", "bkm", "--alpha=-0.5,0.5", "--dim", "2", "--manifold", "state"]
    )
    rows_a, rows_b = _cases(rec_a), _cases(rec_b)
    by_metric = {r["metric"]: r["defect"] for r in rows_a}
    checks = [
        ("zero-order run exits 1", code_a == 1),
        ("bkm run exits 1", code_b == 1),
        ("bures, rld, wyd(p=0.75) all present", len(rows_a) == 3),
        ("bures defect >= 1e-2", by_metric.get("bures", 0.0) >= 1e-2),
        ("rld defect >= 1e-2", by_metric.get("rld", 0.0) >= 1e-2),
        ("wyd(p=0.75) defect >= 1e-2", by_metric.get("wyd(p=0.75)", 0.0) >= 1e-2),
        ("bkm at alpha +-0.5 defects >= 1e-2", len(rows_b) == 2 and all(r["defect"] >= 1e-2 for r in rows_b)),
    ]
    _finish(3, "wrong kernels break duality by a visible gap", checks, elapsed=t_a + t_b, limit=60.0)


def test_criterion_4_potential_hessian_and_dual_coordinates():
    code, records, elapsed = _run_cli(["potential"])
    rows = _cases(records)
    checks = [
        ("exit code 0", code == 0),
        ("alphas -0.5, 0, 0.5 covered", sorted({r["alpha"] for r in rows}) == [-0.5, 0.0, 0.5]),
        ("hessian residuals <= 1e-5", all(r["hessian_residual"] <= 1e-5 for r in rows)),
        ("gradient regressions <= 1e-6", all(r["gradient_residual"] <= 1e-6 for r in rows)),
        ("dual jacobian residuals <= 1e-5", all(r["jacobian_residual"] <= 1e-5 for r in rows)),
        ("legendre residuals <= 1e-5", all(r["legendre_residual"] <= 1e-5 for r in rows)),
    ]
    _finish(4, "trace potential generates the metric", checks, elapsed, 30.0)


def test_criterion_5_affine_flatness_and_path_dependence():
    code, records, elapsed = _run_cli(["flatness"])
    flat = [r for r in _cases(records) if r["check"].startswith("affine_chart_flatness")]
    path = [r for r in _cases(records) if r["check"] == "projected_transport_path_dependence"]
    checks = [
        ("exit code 0", code == 0),
        ("alphas -0.5, 0, 0.5 covered", sorted({r["alpha"] for r in flat}) == [-0.5, 0.0, 0.5]),
        ("flat derivatives at round-off, <= 1e-12", all(r["value"] <= 1e-12 for r in flat)),
        ("one path-dependence witness", len(path) == 1),
        ("projected transport path dependence >= 1e-3", path[0]["value"] >= 1e-3),
    ]
    _finish(5, "affine charts are flat, projected transport is not", checks, elapsed, 30.0)


def test_criterion_6_monotonicity_margins():
    code, records, elapsed = _run_cli(["monotonicity"])
    rows = _cases(records)
    names = {r["metric"] for r in rows}
    checks = [
        ("exit code 0", code == 0),
        (
            "six kernels scanned",
            names == {"wyd(p=0.2)", "wyd(p=0.5)", "wyd(p=0.8)", "bkm", "bures", "rld"},
        ),
        ("1000 trials per kernel", all(r["trials"] == 1000 for r in rows)),
        ("min margins >= -1e-9", all(r["min_margin"] >= -1e-9 for r in rows)),
        (
            "depolarizing strictly contracts >= 99%",
            all(r["depolarizing_strict_fraction"] >= 0.99 for r in rows),
        ),
    ]
    _finish(6, "channels never expand monotone metrics", checks, elapsed, 120.0)


def test_criterion_7_classical_reduction_and_convexity_failure():
    code, records, elapsed = _run_cli(["convexity-failure"])
    by_check = {r["check"]: r["value"] for r in _cases(records)}
    checks = [
        ("exit code 0", code == 0),
        (
            "diagonal family satisfies the convex identity <= 1e-8",
            by_check.get("diagonal_family_identity", 1.0) <= 1e-8,
        ),
        (
            "all kernels reduce to Fisher, alpha-independently, <= 1e-9",
            by_check.get("classical_fisher_reduction", 1.0) <= 1e-9,
        ),
        (
            "noncommuting witness breaks the identity >= 1e-4",
            by_check.get("noncommuting_witness_gap", 0.0) >= 1e-4,
        ),
        (
            "bkm is not self-dual at alpha 0.5, defect >= 1e-2",
            by_check.get("bkm_not_dual_at_alpha", 0.0) >= 1e-2,
        ),
    ]
    _finish(7, "classical limit holds, naive convexity does not", checks, elapsed, 30.0)


def test_criterion_8_entropy_projection():
    code, records, elapsed = _run_cli(["entropy-projection"])
    rows = _cases(records)
    instances = [r for r in rows if r["instance"] >= 0]
    agg_mean = [r for r in rows if r["instance"] == -1]
    agg_taylor = [r for r in rows if r["instance"] == -2]
    summary = records[-1]
    checks = [
        ("exit code 0", code == 0),
        ("20 instances", len(instances) == 20),
        ("every instance converged", all(r["converged"] for r in instances)),
        ("mean-matching residual <= 1e-7 on average", agg_mean[0]["mean_residual"] <= 1e-7),
        (
            "orthogonality residuals <= 1e-6",
            all(r["orthogonality_residual"] <= 1e-6 for r in instances),
        ),
        ("second-order expansion gap <= 1e-4", agg_taylor[0]["mean_residual"] <= 1e-4),
        ("summary carries the taylor gap", summary["taylor_gap"] <= 1e-4),
    ]
    _finish(8, "relative-entropy projection", checks, elapsed, 30.0)


def test_criterion_9_deterministic_output():
    args = ["duality", "--dim", "2", "--manifold", "state", "--seed", "3"]
    command = [sys.executable, "-m", "qiglab", *args]
    first = subprocess.run(command, capture_output=True, text=True, env=child_env())
    second = subprocess.run(command, capture_output=True, text=True, env=child_env())
    stripped_first = WALL_CLOCK.sub('"wall_clock_s":0', first.stdout)
    stripped_second = WALL_CLOCK.sub('"wall_clock_s":0', second.stdout)
    checks = [
        ("both runs produced records", bool(first.stdout) and bool(second.stdout)),
        ("wall clock present", WALL_CLOCK.search(first.stdout) is not None),
        ("byte-identical apart from wall clock", stripped_first == stripped_second),
        ("raw outputs differ only in the wall clock", first.stdout != second.stdout or stripped_first == stripped_second),
    ]
    _finish(9, "seeded runs are byte-reproducible", checks, elapsed=0.0, limit=60.0)
