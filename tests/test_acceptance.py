"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line; run with ``pytest -v -s`` to see
them.  Criteria cover the counterexample reproduction, the disk formulas,
grid-scale coefficient cross-validation and inequalities, the stability
sweeps, the geometric disk-image property, and CLI determinism, each with
its stated tolerance and runtime budget.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import janostab
from janostab.inequalities import (
    GridSpec,
    check_alternating_identity,
    check_coeff_lemmas,
)
from janostab.janowski import JanowskiParams, coeff_table, convolution_coeffs
from janostab.subordination import (
    KNOWN_COUNTEREXAMPLE,
    SampleGrid,
    check_stability_vs_base,
    disk_for,
    mobius_image_disk,
    reference_disk_comparison,
)

from oracles import grid_points, ratio_at

K = KNOWN_COUNTEREXAMPLE


def finish(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a01_counterexample_reproduction():
    t0 = time.perf_counter()
    ratio = ratio_at(K.params, K.n, K.z0)
    margin_closed = disk_for("closed_form", K.params, 0.98).margin(ratio)
    margin_mobius = disk_for("mobius_image", K.params, 0.983).margin(ratio)
    elapsed = time.perf_counter() - t0
    component_err = max(abs(ratio.real - 0.8697), abs(ratio.imag - 0.5845))
    ok = (
        component_err <= 1e-3
        and margin_closed > 0.0
        and margin_mobius > 0.0
        and elapsed < 1.0
    )
    finish(
        "A01 counterexample reproduction",
        ok,
        f"ratio={ratio:.6f}, component err {component_err:.2e} <= 1e-3, "
        f"margins closed@0.98={margin_closed:.4f} mobius@0.983={margin_mobius:.4f} "
        f"(both > 0), {elapsed:.3f}s < 1s",
    )


def test_a02_closed_form_disk_evaluation():
    from janostab.subordination import closed_form_disk

    disk = closed_form_disk(K.params, 0.98)
    a, b, r = K.params.A, K.params.B, 0.98
    den = b * b - r * r * a * a
    direct_center = (r * r * a - b) / den
    direct_radius = r * (a - b) / den
    cmp = reference_disk_comparison(K.params, 0.98)
    ok = (
        abs(disk.center.real - direct_center) <= 1e-6
        and abs(disk.radius - direct_radius) <= 1e-6
        and cmp["reference_center"] == 0.634444
        and cmp["reference_radius"] == 0.576521
        and cmp["flagged"]
        and 1e-3 < cmp["center_delta"] < 1e-2
        and 1e-3 < cmp["radius_delta"] < 1e-2
    )
    finish(
        "A02 closed-form disk evaluation",
        ok,
        f"computed ({disk.center.real:.6f}, {disk.radius:.6f}) matches direct "
        f"evaluation at 1e-6; reference (0.634444, 0.576521) recorded, "
        f"deltas ({cmp['center_delta']:.4f}, {cmp['radius_delta']:.4f}) flagged",
    )


def test_a03_coefficient_oracle_equivalence():
    t0 = time.perf_counter()
    grid = GridSpec.default(n_max=200, allow_positive_A=True)
    worst = 0.0
    count = 0
    for params in grid_points(grid):
        rec = coeff_table(params.A, params.B, params.lam, 200)
        conv = convolution_coeffs(params, 200)
        scale = np.maximum(1.0, np.abs(rec))
        worst = max(worst, float(np.max(np.abs(conv - rec) / scale)))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    finish(
        "A03 coefficient oracle equivalence",
        ok,
        f"{count} parameter points, n <= 200, worst relative gap {worst:.2e} "
        f"<= 1e-10, {elapsed:.1f}s < 30s",
    )


def test_a04_coefficient_positivity():
    t0 = time.perf_counter()
    grid = GridSpec.default(n_max=500)
    report, _, _ = check_coeff_lemmas(grid, tol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = not report.violations and elapsed < 60.0
    finish(
        "A04 coefficient positivity",
        ok,
        f"{report.checked} coefficients, {len(report.violations)} below -1e-12, "
        f"min margin {report.min_margin:.3e}, {elapsed:.1f}s < 60s",
    )


def test_a05_pair_inequalities():
    t0 = time.perf_counter()
    pair_grid = GridSpec.default(n_max=500)
    _, pair, _ = check_coeff_lemmas(pair_grid, tol=1e-12)
    weighted_grid = GridSpec.default(n_max=100, m_max=100)
    _, _, weighted = check_coeff_lemmas(weighted_grid, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = not pair.violations and not weighted.violations and elapsed < 60.0
    finish(
        "A05 pair inequalities",
        ok,
        f"pair: {pair.checked} values min {pair.min_margin:.3e} (tol 1e-12); "
        f"weighted: {weighted.checked} values min {weighted.min_margin:.3e} "
        f"(tol 1e-10); {elapsed:.1f}s < 60s",
    )


def test_a06_alternating_identity():
    worst = 0.0
    for lam in GridSpec.default(n_max=1).lambda_values:
        report = check_alternating_identity(lam, 100, tol=1e-10)
        assert not report.violations
        worst = max(worst, -report.min_margin)
    ok = worst <= 1e-10
    finish(
        "A06 alternating identity",
        ok,
        f"20 lambda values, n <= 100, max |sum| {worst:.2e} <= 1e-10",
    )


def test_a07_base_stability_sweep():
    t0 = time.perf_counter()
    lattice = [-1.0, -0.75, -0.5, -0.25, 0.0]
    pairs = [(a, b) for a in lattice for b in lattice if b < a]
    for alpha in (0.5, 0.75, 0.9):  # A = 1 - 2*alpha, B = -1
        pair = (1.0 - 2.0 * alpha, -1.0)
        if pair not in pairs:
            pairs.append(pair)
    grid = SampleGrid()  # radii (0.9, 0.99, 0.999) x 4096 angles
    worst = -np.inf
    checks = 0
    for a, b in sorted(pairs):
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            params = JanowskiParams(a, b, lam)
            for n in range(1, 33):
                report = check_stability_vs_base(params, n, grid, tol=1e-6)
                assert report.verdict == "pass", report
                worst = max(worst, report.worst_margin)
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 300.0
    finish(
        "A07 base stability sweep",
        ok,
        f"{checks} (params, n) checks incl. the B=-1 slope cases, "
        f"max margin {worst:.3e} <= 1e-6, {elapsed:.0f}s < 300s",
    )


def test_a10_mobius_image_correctness():
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(-0.95, -0.05)
        b = rng.uniform(-1.0, a - 0.01)
        r = rng.uniform(0.05, 0.99)
        params = JanowskiParams(a, b, 0.5)
        disk = mobius_image_disk(params, r)
        w = disk.boundary_points(10_000)
        z_back = (1.0 - w) / (a * w - b)
        worst = max(worst, float(np.max(np.abs(np.abs(z_back) - r))))
    ok = worst <= 1e-9
    finish(
        "A10 mobius image correctness",
        ok,
        f"20 random (A, B, r), 1e4 boundary points each, "
        f"max | |inverse| - r | = {worst:.2e} <= 1e-9",
    )


CLI_CASES = [
    ["coeffs", "--A", "-0.5", "--B", "-1", "--lambda", "0.5", "--n-max", "60",
     "--method", "both"],
    ["verify-lemmas", "--step", "0.5", "--lambda-step", "0.5", "--n-max", "40",
     "--m-max", "8", "--alt-n-max", "30"],
    ["check-stability", "--A", "-0.5", "--B", "-1", "--lambda", "0.5",
     "--n-max", "2", "--radii", "0.9,0.99", "--samples", "256"],
    ["self-check", "--samples", "256", "--radii", "0.9,0.99"],
    ["search", "--n-values", "1,2", "--coarse-angles", "32", "--refine-iters", "4"],
]

# Documented exit codes of the cases above: self-check probes the built-in
# counterexample and reports the violation with exit 1; the rest succeed.
CLI_EXIT_CODES = {"self-check": 1}

# Directory holding the imported janostab package, forwarded to the child
# processes so they run the code under test from any working directory,
# installed or not.
PACKAGE_ROOT = str(Path(janostab.__file__).resolve().parent.parent)


def test_a11_cli_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    bad_exits = []

    def run_cli(args, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "janostab", *args],
            capture_output=True,
            cwd=cwd,
            env=env,
        )
        expected = CLI_EXIT_CODES.get(args[0], 0)
        if proc.returncode != expected:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            bad_exits.append(
                f"{args[0]} exit {proc.returncode} != {expected} ({' | '.join(tail)})"
            )
        return proc.stdout, proc.returncode

    mismatches = []
    for args in CLI_CASES:
        first = run_cli(args, tmp_path)
        second = run_cli(args, tmp_path)
        if first != second or not first[0]:
            mismatches.append(args[0])
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        out_dir.mkdir()
        run_cli(
            ["plot", "--angles", "256", "--boundary-samples", "128",
             "--out", str(out_dir / "fig.svg"), "--csv-dir", str(out_dir)],
            tmp_path,
        )

    def output(tag, name):
        path = tmp_path / tag / name
        return path.read_bytes() if path.is_file() else None

    svg_a, svg_b = output("one", "fig.svg"), output("two", "fig.svg")
    if svg_a != svg_b or not svg_a:
        mismatches.append("plot-svg")
    for name in ("disk_boundary.csv", "g_curve.csv", "point.csv"):
        csv_a = output("one", name)
        if csv_a is None or csv_a != output("two", name):
            mismatches.append(name)
    ok = not mismatches and not bad_exits
    finish(
        "A11 CLI determinism",
        ok,
        "byte-identical repeats for coeffs, verify-lemmas, check-stability, "
        "self-check, search, plot (SVG + CSVs), documented exit codes"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + (f"; unexpected exits: {bad_exits}" if bad_exits else ""),
    )
