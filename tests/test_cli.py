"""CLI behavior: outputs, exit codes, determinism, round-trips."""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janostab.cli import LEMMA_PRICE, MAX_ORDER, main
from janostab import cli, inequalities, janowski, search, series
from janostab.series import MAX_DEGREE, MAX_POINTS, MAX_WORK, check_size
from janostab.inequalities import GridSpec
from oracles import grid_points
from test_acceptance import CLI_CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_hand_values_csv(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--A", "-0.5", "--B", "-1", "--lambda", "0.5", "--n-max", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,a_n"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == pytest.approx([1.0, 0.25, 0.21875], abs=1e-15)

    def test_zero_order_single_row(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--A", "-0.5", "--B", "-1", "--lambda", "0.5", "--n-max", "0"
        )
        assert code == 0
        assert out.splitlines()[1] == "0,1"

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--A", "-0.3", "--B", "-0.9", "--lambda", "0.4",
            "--n-max", "200", "--method", "both",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,a_convolution,a_recurrence,abs_diff"
        max_diff = max(float(line.split(",")[3]) for line in lines[1:])
        assert max_diff <= 1e-10

    def test_invalid_params_exit_two(self, capsys):
        code, _, err = run(
            capsys, "coeffs", "--A", "-1", "--B", "-0.5", "--lambda", "0.5"
        )
        assert code == 2
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--A", "-0.5", "--B", "-1", "--lambda", "0.5",
            "--n-max", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"A": -0.5, "B": -1.0, "lambda": 0.5}
        assert doc["rows"][1]["a_n"] == 0.25


class TestVerifyLemmas:
    def test_clean_grid_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify-lemmas", "--step", "0.5", "--lambda-step", "0.5",
            "--n-max", "60", "--m-max", "10", "--alt-n-max", "40",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations_total"] == 0
        assert doc["coeff_positivity"]["checked"] > 0
        assert doc["weighted_pair_inequality"]["min_margin"] > 0

    def test_zero_order_grid_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify-lemmas", "--step", "0.5", "--lambda-step", "0.5",
            "--n-max", "0", "--m-max", "3", "--alt-n-max", "10",
        )
        assert code == 0
        doc = json.loads(out)
        for section in ("coeff_pair_inequality", "weighted_pair_inequality"):
            assert doc[section]["checked"] == 0
            assert doc[section]["min_margin"] is None

    @pytest.mark.parametrize("alt_n_max", ["0", "-3"])
    def test_bad_alternating_order_names_its_flag(self, capsys, alt_n_max):
        code, out, err = run(capsys, "verify-lemmas", "--step", "0.5", "--lambda-step", "0.5",
                             "--n-max", "5", "--alt-n-max", alt_n_max)
        assert code == 2 and not out
        assert "error: --alt-n-max must be >= 1" in err

    def test_widened_grid_finds_violations(self, capsys):
        code, out, _ = run(
            capsys, "verify-lemmas", "--step", "0.5", "--lambda-step", "0.5",
            "--n-max", "40", "--m-max", "5", "--alt-n-max", "20", "--allow-outside",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["violations_total"] > 0
        assert doc["coeff_positivity"]["violations"]

    @pytest.mark.parametrize("flags, key, values", [
        (("--step", "0.5", "--lambda-step", "1"), "lambda_values", [1.0]),
        (("--step", "0.5", "--lambda-step", "0.6"), "lambda_values", [0.6]),
        (("--step", "0.5", "--lambda-step", "0.35"), "lambda_values", [0.35, 0.7]),
        (("--step", "0.35", "--lambda-step", "0.5"), "A_values", [-1.0, -0.65, -0.3]),
        (("--step", "2", "--lambda-step", "0.5"), "B_values", [-1.0]),
        (("--step", "0.5", "--lambda-step", "inf"), None, None),
        (("--step", "0", "--lambda-step", "0.5"), None, None),
    ])
    def test_lattice_holds_the_steps_up_to_the_top(self, capsys, flags, key, values):
        code, out, err = run(capsys, "verify-lemmas", *flags,
                             "--n-max", "5", "--m-max", "2", "--alt-n-max", "3")
        if key is None:
            assert code == 2 and "finite and positive" in err
        else:
            assert code == 0
            assert json.loads(out)["grid"][key] == values

    def test_listing_cap_keeps_counts_and_exit_code(self, capsys, monkeypatch):
        argv = ("verify-lemmas", "--step", "0.5", "--lambda-step", "0.5", "--n-max", "40",
                "--m-max", "5", "--alt-n-max", "20", "--allow-outside")
        whole = json.loads(run(capsys, *argv)[1])
        monkeypatch.setattr(inequalities, "MAX_LISTED_VIOLATIONS", 3)
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1
        assert doc["violations_total"] == whole["violations_total"]
        for name in ("coeff_positivity", "coeff_pair_inequality", "weighted_pair_inequality"):
            assert "violations_found" not in whole[name]
            assert doc[name]["violations"] == whole[name]["violations"][:3]
            assert doc[name]["violations_found"] == len(whole[name]["violations"])


class TestCheckStability:
    def test_exit_zero_and_one_report_per_order(self, capsys):
        code, out, _ = run(
            capsys, "check-stability", "--A", "-0.5", "--B", "-1", "--lambda", "0.5",
            "--n-max", "3", "--radii", "0.9,0.99", "--samples", "256",
        )
        assert code == 0
        reports = json.loads(out)
        assert [rep["n"] for rep in reports] == [1, 2, 3]
        assert all(rep["verdict"] == "pass" for rep in reports)

    def test_out_of_range_exit_two(self, capsys):
        code, _, err = run(
            capsys, "check-stability", "--A", "0.5", "--B", "-1", "--lambda", "0.5",
            "--n-max", "1", "--samples", "256",
        )
        assert code == 2
        assert "allow_outside" in err

    def test_root_inside_the_circle_exit_three(self, capsys):
        # s_1 = 1 + 1.17z vanishes at -0.8547, inside |z| <= 0.999: the
        # premise of the one-circle argument fails
        code, out, _ = run(
            capsys, "check-stability", "--A", "0.3", "--B", "-1", "--lambda", "0.9",
            "--n-max", "1", "--allow-outside",
        )
        assert code == 3
        assert json.loads(out)[0]["verdict"] == "branch_failure"


class TestSelfCheck:
    def test_violated_with_witness(self, capsys):
        code, out, _ = run(capsys, "self-check", "--samples", "256", "--radii", "0.9,0.99")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "violated"
        assert doc["worst_margin"] > 0.10
        assert "witness" in doc
        w = doc["witness"]
        assert w["margin"] == doc["worst_margin"]
        # the witness ratio is the evaluated value that gave the margin
        ratio = complex(w["ratio"]["re"], w["ratio"]["im"])
        center = complex(doc["disk"]["center"]["re"], doc["disk"]["center"]["im"])
        assert np.abs(ratio - center) - doc["disk"]["radius"] == w["margin"]

    def test_closed_form_reference_block(self, capsys):
        code, out, _ = run(
            capsys, "self-check", "--r", "0.98", "--disk-source", "closed_form",
            "--samples", "256", "--radii", "0.9,0.99",
        )
        assert code == 1
        doc = json.loads(out)
        ref = doc["reference_disk"]
        assert ref["flagged"] is True
        assert ref["reference_center"] == 0.634444
        assert ref["reference_radius"] == 0.576521
        assert 1e-3 < ref["center_delta"] < 1e-2
        assert 1e-3 < ref["radius_delta"] < 1e-2

    def test_root_inside_the_circle_exit_three(self, capsys):
        # s_2 has roots at -0.535 +- 0.793i, inside |z| <= 0.99 * 0.999 and
        # on no sampled ray
        code, out, _ = run(
            capsys, "self-check", "--A", "0.3", "--B", "-1", "--lambda", "0.9", "--n", "2",
            "--r", "0.99", "--z0", "",
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "branch_failure"

    def test_point_beyond_a_root_exit_three(self, capsys):
        # -0.97 lies beyond both roots of s_2 (modulus 0.956) although the
        # sampled circle |z| = 0.4995 holds none: the ratio is not analytic
        # on |zeta| <= 0.97, so no margin there is reported
        code, out, _ = run(
            capsys, "self-check", "--A", "0.3", "--B", "-1", "--lambda", "0.9", "--n", "2",
            "--r", "0.5", "--radii", "0.999", "--samples", "64", "--z0", "-0.97,0",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "branch_failure"
        assert doc["worst_point"]["re"] != -0.97

    def test_pass_at_small_radius(self, capsys):
        code, out, _ = run(
            capsys, "self-check", "--r", "0.2", "--z0", "", "--samples", "256",
            "--radii", "0.9,0.99",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"


class TestSearch:
    def test_csv_header_and_positive_margin(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n-values", "1", "--coarse-angles", "32", "--refine-iters", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "A,B,lambda,n,margin,z_re,z_im,G_re,G_im,"
            "disk_center_re,disk_center_im,disk_radius,disk_source"
        )
        assert float(lines[1].split(",")[4]) > 0.10

    def test_negative_value_lists_parse(self, capsys):
        # comma lists of negative floats must survive argparse tokenization
        code, out, _ = run(
            capsys, "search", "--A-values", "-0.7,-0.679", "--B-values", "-0.97",
            "--lambda-values", "0.3", "--n-values", "1", "--coarse-angles", "32",
            "--refine-iters", "0",
        )
        assert code == 0
        assert len(out.splitlines()) == 3  # header + one row per A value

    @pytest.mark.parametrize(
        "flags",
        [
            ("--coarse-angles", "1"),
            ("--refine-iters", "-3"),
            ("--refine-iters", "65"),
            ("--A-values", ""),
            ("--B-values", ""),
            ("--lambda-values", ""),
        ],
        ids=[
            "one-point-grid", "negative-refine", "refine-above-bound",
            "empty-A", "empty-B", "empty-lambda",
        ],
    )
    def test_bad_grid_or_refinement_exit_two(self, capsys, flags):
        code, out, err = run(capsys, "search", "--n-values", "1", *flags)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_too_many_cells_exit_two(self, capsys):
        # 16 x 16 pairs B < A, 16 lambdas, 17 orders: 69,632 cells > 2**16,
        # each charged 2**12 on top of 18 x (256 + 60) coefficient-samples
        def values(lo):
            return ",".join(f"{lo + 0.01 * k:.2f}" for k in range(16))

        code, out, err = run(
            capsys, "search", "--A-values", values(-0.5), "--B-values", values(-1.0),
            "--lambda-values", values(0.5), "--n-values", ",".join(map(str, range(1, 18))),
        )
        assert code == 2
        assert out == ""
        assert "681279488 coefficient-samples exceed 268435456" in err

    def test_probes_over_the_work_bound_exit_two(self, capsys):
        # one cell at n = 255: 256 coefficients times 2**20 - 547 scan points
        # and 26 * 21 + 2 tree probes of 64 rounds is 2**28 + 256, and the
        # cell's price 2**12
        code, out, err = run(
            capsys, "search", "--n-values", "255", "--coarse-angles", "1048029",
            "--refine-iters", "64",
        )
        assert code == 2
        assert out == ""
        assert "268439808 coefficient-samples exceed 268435456" in err

    def test_negative_witness_point_parses(self, capsys):
        code, out, _ = run(
            capsys, "self-check", "--z0", "-0.5,0.25", "--samples", "128",
            "--radii", "0.9,0.99",
        )
        assert code == 1
        assert "witness" in out


class TestPlot:
    def test_writes_svg_and_csvs(self, capsys, tmp_path):
        out_svg = tmp_path / "fig.svg"
        csv_dir = tmp_path / "csvs"
        code, _, _ = run(
            capsys, "plot", "--angles", "256", "--boundary-samples", "128",
            "--out", str(out_svg), "--csv-dir", str(csv_dir),
        )
        assert code == 0
        text = out_svg.read_text()
        assert text.startswith("<?xml") and "</svg>" in text
        names = sorted(p.name for p in csv_dir.iterdir())
        assert names == ["disk_boundary.csv", "g_curve.csv", "point.csv"]
        assert (csv_dir / "g_curve.csv").read_text().splitlines()[0] == "re,im"
        boundary = (csv_dir / "disk_boundary.csv").read_text().splitlines()
        assert boundary[0] == "source,re,im"
        sources = {line.split(",")[0] for line in boundary[1:]}
        assert sources == {"closed_form", "mobius_image"}

    def test_replot_from_csv_is_byte_identical(self, capsys, tmp_path):
        out_a = tmp_path / "a.svg"
        out_b = tmp_path / "b.svg"
        csv_dir = tmp_path / "csvs"
        run(
            capsys, "plot", "--angles", "256", "--boundary-samples", "128",
            "--out", str(out_a), "--csv-dir", str(csv_dir),
        )
        code, _, _ = run(
            capsys, "plot", "--replot-from", str(csv_dir), "--out", str(out_b)
        )
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("name, edit", [
        ("point.csv", lambda text: "re,im\n"),
        ("point.csv", lambda text: "re,im\nnan,inf\n"),
        ("point.csv", lambda text: text + "0.5,0.5\n"),
        ("g_curve.csv", lambda text: "re,im\n"),
        ("g_curve.csv", lambda text: text.split("\n", 1)[1]),
        ("disk_boundary.csv", lambda text: ""),
        ("disk_boundary.csv", lambda text: text.replace("mobius_image", "other")),
        ("disk_boundary.csv", lambda text: text + "closed_form,1\n"),
    ])
    def test_malformed_replot_csv_exit_two(self, capsys, tmp_path, name, edit):
        csv_dir = tmp_path / "csvs"
        run(capsys, "plot", "--angles", "64", "--boundary-samples", "64",
            "--out", str(tmp_path / "a.svg"), "--csv-dir", str(csv_dir))
        path = csv_dir / name
        path.write_text(edit(path.read_text()))
        out_svg = tmp_path / "b.svg"
        code, _, err = run(capsys, "plot", "--replot-from", str(csv_dir), "--out", str(out_svg))
        assert code == 2
        assert err.startswith("error: ") and name in err
        assert not out_svg.exists()

    def test_small_radius_curve_stays_near_one(self, capsys, tmp_path):
        csv_dir = tmp_path / "csvs"
        code, _, _ = run(
            capsys, "plot", "--r", "0.1", "--angles", "64", "--boundary-samples", "64",
            "--out", str(tmp_path / "small.svg"), "--csv-dir", str(csv_dir),
        )
        assert code == 0
        rows = (csv_dir / "g_curve.csv").read_text().splitlines()[1:]
        for row in rows:
            re_s, im_s = row.split(",")
            assert abs(complex(float(re_s), float(im_s)) - 1.0) < 0.2

    @pytest.mark.parametrize("count", ["0", "-1", "7"])
    def test_too_few_boundary_samples_exit_two(self, capsys, tmp_path, count):
        out_svg = tmp_path / "fig.svg"
        code, _, err = run(
            capsys, "plot", "--boundary-samples", count, "--out", str(out_svg),
            "--csv-dir", str(tmp_path),
        )
        assert code == 2
        assert "boundary_samples" in err
        assert not out_svg.exists()

    def test_branch_failure_exit_three(self, capsys, tmp_path):
        # 1 + 2z vanishes at z = -0.5, exactly on the sampled curve |z| = 0.5
        code, _, err = run(
            capsys, "plot", "--A", "1", "--B", "-1", "--lambda", "1", "--n", "1",
            "--r", "0.5", "--angles", "1024", "--out", str(tmp_path / "x.svg"),
        )
        assert code == 3
        assert "error" in err

    def test_curve_around_a_root_exit_three(self, capsys):
        # the roots of s_2 at modulus 0.956 lie inside |z| = 0.99: no curve
        code, out, err = run(
            capsys, "plot", "--A", "0.3", "--B", "-1", "--lambda", "0.9", "--n", "2",
            "--r", "0.99", "--z0", "0.5,0",
        )
        assert code == 3
        assert out == ""
        assert "undefined" in err and "root in" in err

    @pytest.mark.parametrize("command", ["plot", "self-check"])
    def test_witness_at_the_pole_exit_two(self, capsys, command):
        # -1/A for the default A = -0.679, outside the disk |z| < 1
        code, out, err = run(capsys, command, "--z0", "1.4727540500736376,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "|z| < 1" in err

    @pytest.mark.parametrize("z0", ["1.2,0", "0,1"])
    @pytest.mark.parametrize("command", ["plot", "self-check"])
    def test_witness_outside_the_disk_exit_two(self, capsys, command, z0):
        # beyond the unit circle, and on it: no verdict and no figure
        code, out, err = run(capsys, command, "--z0", z0)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "|z| < 1" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify-lemmas", "--step", "0.5", "--lambda-step", "0.5", "--n-max", "5"),
        ("check-stability", "--A", "-0.5", "--B", "-1", "--lambda", "0.5", "--n-max", "1"),
        ("self-check", "--samples", "128"),
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_tol_exit_two(capsys, argv, tol):
    # a nan or infinite tolerance silently flips verdicts (verify-lemmas
    # finds no violation at either): argument parsing rejects both
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--tol" in err and "finite" in err


def _count_tables(monkeypatch) -> list:
    """Count the coefficient tables and lemma grids built, one entry per call,
    wherever the commands reach them."""
    built = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (janowski, search, cli):
        monkeypatch.setattr(module, "coeff_table", counted("coeff_table", module.coeff_table))
    monkeypatch.setattr(GridSpec, "default", classmethod(counted("GridSpec.default", GridSpec.default.__func__)))
    return built


BASE = ("--A", "-0.5", "--B", "-1", "--lambda", "0.5")


class TestSizeGuard:
    def test_limits(self):
        # one rule: a degree, the samples of one evaluation, the samples x
        # (degree + 1) of one run; the coefficient commands bound the order
        check_size(MAX_DEGREE, MAX_POINTS, MAX_WORK)
        check_size(MAX_ORDER, 0, MAX_WORK, MAX_ORDER)
        with pytest.raises(ValueError, match="series degree 257 exceeds 256"):
            check_size(MAX_DEGREE + 1, 1, 1)
        with pytest.raises(ValueError, match="order 10001 exceeds 10000"):
            check_size(MAX_ORDER + 1, 0, 0, MAX_ORDER)
        with pytest.raises(ValueError, match="sample points"):
            check_size(1, MAX_POINTS + 1, 1)
        with pytest.raises(ValueError, match=f"{MAX_WORK + 1} coefficient-samples exceed {MAX_WORK}"):
            check_size(1, 1, MAX_WORK + 1)
        with pytest.raises(ValueError, match=f"inf coefficient-samples exceed {MAX_WORK}"):
            check_size(1, 0, float("inf"), MAX_ORDER)
        assert MAX_WORK == MAX_DEGREE * MAX_POINTS == 2**28

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-stability", *BASE, "--n-max", "257"),
            ("self-check", "--n", "257"),
            ("search", "--n-values", "1,257"),
            ("plot", "--n", "257"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_degree_above_limit_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "degree 257" in err

    def test_plot_counts_its_witness(self, capsys, monkeypatch, tmp_path):
        # the curve and z0 are one evaluation of --angles + 1 points
        monkeypatch.setattr(series, "MAX_POINTS", 64)
        fig = ("--boundary-samples", "8", "--out", str(tmp_path / "fig.svg"))
        code, out, err = run(capsys, "plot", "--angles", "64", *fig)
        assert code == 2
        assert out == ""
        assert "65 sample points in one evaluation exceed 64" in err
        assert run(capsys, "plot", "--angles", "63", *fig)[0] == 0


class TestCoeffSizeGuard:
    def test_limits(self, capsys, monkeypatch):
        # the default verify-lemmas grid: 32 x (4,200 points x 501 orders +
        # 101 x 500 weighted values + 20 lambdas x 101 terms), 0.26 of the bound
        built = _count_tables(monkeypatch)
        defaults = LEMMA_PRICE * (4200 * 501 + 101 * 500 + 20 * 101)
        assert defaults == 69015040 < MAX_WORK
        # the lemma price makes the parent's 2**23 pairs and 2**23 weighted values fill the bound
        assert LEMMA_PRICE * 2**23 == MAX_WORK

        def ran(grid, tol):  # an admitted run stops here, with its grid built
            raise ValueError("ran")

        monkeypatch.setattr(cli, "check_coeff_lemmas", ran)
        for argv in ((), ("--allow-outside",), ("--n-max", str(MAX_ORDER), "--step", "1", "--lambda-step", "1",
                                                 "--m-max", "0", "--alt-n-max", str(MAX_ORDER))):
            assert run(capsys, "verify-lemmas", *argv)[2] == "error: ran\n"
        assert len(built) == 3
        built.clear()
        for argv, text in (
            (("--n-max", "-1", "--step", "1e-300"), "--n-max and --m-max must be >= 0"),
            (("--m-max", "-1"), "--n-max and --m-max must be >= 0"),
            (("--step", "5e-324"), "inf coefficient-samples"),
            (("--alt-n-max", str(MAX_ORDER + 1)), "order 10001 exceeds 10000"),
        ):
            code, out, err = run(capsys, "verify-lemmas", *argv)
            assert (code, out) == (2, "")
            assert text in err
        assert built == []

    def test_default_grid_size_is_counted_from_the_steps(self):
        for step, lam_step, outside in ((0.05, 0.05, False), (0.05, 0.05, True), (0.25, 0.5, True)):
            grid = GridSpec.default(n_max=1, step=step, lambda_step=lam_step, allow_positive_A=outside)
            kept = len(grid_points(grid))
            assert GridSpec.default_size(step, lam_step, outside) == kept
        assert GridSpec.default_size(5e-324, 0.5) == float("inf")

    @pytest.mark.parametrize(
        "argv",
        [
            # step 1/32 and lambda step 1/8 keep 33 * 32 / 2 * 8 = 4,224 points;
            # 4,224 x 1,986 orders = 8,388,864 pairs is just above 2**23
            ("verify-lemmas", "--step", "0.03125", "--lambda-step", "0.125", "--n-max", "1985"),
            ("verify-lemmas", "--m-max", "16777"),
            ("verify-lemmas", "--alt-n-max", "10001"),
            ("verify-lemmas", "--step", "1e-9"),
            ("coeffs", *BASE, "--n-max", "10001"),
        ],
        ids=("table", "m-max", "alt-n-max", "fine-step", "coeffs"),
    )
    def test_oversized_request_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceed" in err


# 128 (A, B, lambda) groups of 512 rows, 511 at n = 1 and one at n = 256
MIXED_SEARCH = (
    "search", "--A-values", "-0.8,-0.7,-0.6,-0.5,-0.4,-0.3,-0.2,-0.1", "--B-values", "-1,-0.99,-0.98,-0.97",
    "--lambda-values", "0.25,0.5,0.75,1", "--n-values", ",".join(["1"] * 511 + ["256"]),
    "--coarse-angles", "1600", "--refine-iters", "0",
)


class TestAdmission:
    @pytest.mark.parametrize(
        "argv, count",
        [
            # 256 checks of 349,525 samples: 349,525 x (2 + 3 + ... + 257)
            (("check-stability", *BASE, "--n-max", "256", "--samples", "349525"), "11587452800"),
            # (256 + 1) x (2**20 - 1 + 1) + 2 x 2**20
            (("plot", "--n", "256", "--angles", "1048575", "--boundary-samples", "1048576"), "271581184"),
            # 32 x (10**6 points x 8 orders + 1 x 7 + 10**6 lambdas x 101 terms)
            (("verify-lemmas", "--step", "1", "--lambda-step", "1e-6", "--n-max", "7", "--m-max", "0",
              "--alt-n-max", "100"), "3488000224"),
            # 65,536 cells x (257 x 1,600 + 2**12): every row counted at the top degree
            (MIXED_SEARCH, "27216838656"),
        ],
        ids=("check-stability", "plot", "verify-lemmas", "search"),
    )
    def test_runs_over_the_work_bound_exit_two_before_any_table(self, capsys, monkeypatch, argv, count):
        # each fits the degree and the samples of one evaluation: the
        # coefficient-samples of the whole run reject it
        built = _count_tables(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {count} coefficient-samples exceed 268435456" in err
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [
            # degree 257 per command
            ("check-stability", *BASE, "--n-max", "257"),
            ("self-check", "--n", "257"),
            ("search", "--n-values", "1,257"),
            ("plot", "--n", "257"),
            # MAX_POINTS + 1 samples in one evaluation per command
            ("check-stability", *BASE, "--n-max", "1", "--radii", "0.9", "--samples", str(MAX_POINTS + 1)),
            ("check-stability", *BASE, "--n-max", "1", "--radii", "0.5,0.9", "--samples", str(MAX_POINTS // 2 + 1)),
            ("self-check", "--radii", "0.9", "--samples", str(MAX_POINTS)),  # and --z0
            ("search", "--coarse-angles", str(MAX_POINTS + 1)),
            ("plot", "--angles", str(MAX_POINTS), "--boundary-samples", "8"),  # and --z0
            ("plot", "--angles", "8", "--boundary-samples", str(MAX_POINTS + 1)),
            # 2**16 + 1 cells at the smallest work
            ("search", "--n-values", ",".join(["1"] * (2**16 + 1)), "--coarse-angles", "16", "--refine-iters", "0"),
            # the parent's sweep count, 256 x (2**20 + 2) = 2**28 + 512
            ("search", "--n-values", "255", "--coarse-angles", str(MAX_POINTS), "--refine-iters", "1"),
            # 4,224 points x 1,986 orders, the first pair count above 2**23 on these steps
            ("verify-lemmas", "--step", "0.03125", "--lambda-step", "0.125", "--n-max", "1985"),
            # an m block of 2**23 + 1 weighted values
            ("verify-lemmas", "--n-max", "1", "--m-max", str(2**23)),
            ("verify-lemmas", "--n-max", "2", "--m-max", str(2**22)),
            # MAX_ORDER + 1
            ("coeffs", *BASE, "--n-max", str(MAX_ORDER + 1)),
            ("verify-lemmas", "--n-max", str(MAX_ORDER + 1)),
            ("verify-lemmas", "--alt-n-max", str(MAX_ORDER + 1)),
        ],
        ids=lambda argv: " ".join(argv)[:60],
    )
    def test_the_parent_limits_stay_rejected(self, capsys, monkeypatch, argv):
        # every edge of the six limits the one rule replaced still exits 2
        # before any table or grid is built
        built = _count_tables(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceed" in err
        assert built == []


_TRIPLES = [(-0.5, -1.0, 0.5), (-0.679, -0.97, 0.3), (-0.2, -0.5, 0.5), (-0.3, -0.9, 0.7), (-0.75, -1.0, 1.0)]
_RADII = st.lists(st.sampled_from(["0.5", "0.9", "0.99", "0.999"]), max_size=3, unique=True)
_POINT = st.builds(lambda m, t: f"{m * math.cos(t)!r},{m * math.sin(t)!r}",
                   st.floats(0.0, 0.95), st.floats(-math.pi, math.pi))


def _params(triple) -> tuple:
    return ("--A", repr(triple[0]), "--B", repr(triple[1]), "--lambda", repr(triple[2]))


def _csv(values) -> str:
    return ",".join(map(repr, values))


_SERIES_COMMANDS = st.one_of(
    st.builds(
        lambda p, n, radii, samples: ("check-stability", *_params(p), "--n-max", str(n),
                                      "--radii", ",".join(radii), "--samples", str(samples)),
        st.sampled_from(_TRIPLES), st.integers(1, 24), _RADII, st.integers(8, 300),
    ),
    st.builds(
        lambda p, n, r, radii, samples, z0: ("self-check", *_params(p), "--n", str(n), "--r", repr(r),
                                             "--radii", ",".join(radii), "--samples", str(samples), "--z0", z0),
        st.sampled_from(_TRIPLES), st.integers(1, 48), st.floats(0.3, 0.99), _RADII, st.integers(8, 300),
        st.one_of(st.just(""), _POINT),
    ),
    st.builds(
        lambda ps, ns, r, angles, iters: (
            "search", "--A-values", _csv({p[0] for p in ps}), "--B-values", _csv({p[1] for p in ps}),
            "--lambda-values", _csv({p[2] for p in ps}), "--n-values", _csv(ns), "--r", repr(r),
            "--coarse-angles", str(angles), "--refine-iters", str(iters),
        ),
        st.lists(st.sampled_from(_TRIPLES), min_size=1, max_size=2),
        st.lists(st.integers(1, 40), min_size=1, max_size=6),  # mixed and repeated n
        st.floats(0.3, 0.99), st.integers(16, 96), st.integers(0, 10),
    ),
    st.builds(
        lambda p, n, r, angles, boundary, z0: ("plot", *_params(p), "--n", str(n), "--r", repr(r),
                                               "--angles", str(angles), "--boundary-samples", str(boundary),
                                               "--z0", z0),
        st.sampled_from(_TRIPLES), st.integers(1, 24), st.floats(0.3, 0.99), st.integers(8, 300),
        st.integers(8, 200), _POINT,
    ),
)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


class TestAdmittedWork:
    @settings(deadline=None, max_examples=60)
    @given(_SERIES_COMMANDS)
    def test_series_commands_evaluate_at_most_their_count(self, argv):
        # every coefficient-sample Horner's rule evaluates (padded rows
        # included) was counted by the one admission of the run; a search
        # cell's price is set to 0, so that it cannot cover a row undercounted
        admitted, evaluated = [], []
        polyval, admit = series._polyval_grid, check_size

        def counted_polyval(cols, pts):
            evaluated.append(cols.shape[0] * pts.size)
            return polyval(cols, pts)

        def counted_admit(degree, points, work, *rest):
            admitted.append(work)
            return admit(degree, points, work, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series, "_polyval_grid", counted_polyval)
            patch.setattr(search, "_CELL_PRICE", 0)
            for module in (cli, search):
                patch.setattr(module, "check_size", counted_admit)
            code = _quiet_main(argv)
        assert len(admitted) == 1
        assert code in (0, 1, 2, 3)
        assert sum(evaluated) <= admitted[0]

    @settings(deadline=None, max_examples=25)
    @given(
        st.sampled_from([0.2, 0.25, 0.5, 1.0]), st.sampled_from([0.1, 0.25, 0.5, 1.0]), st.integers(0, 80),
        st.integers(0, 20), st.integers(1, 40), st.booleans(),
    )
    def test_lemma_pairs_are_at_most_their_count(self, step, lam_step, n_max, m_max, alt_n_max, outside):
        # the pairs the recurrence computes, orders 1.. of each kept point,
        # are at most the count over the lemma price
        admitted, pairs = [], []
        chunks, admit = inequalities.next_pair_chunk, check_size

        def counted_chunks(stream):
            chunk = chunks(stream)
            if chunk is not None:
                j0, u = chunk[:2]
                pairs.append((len(u) - (j0 == 0)) * (u.size // len(u)))
            return chunk

        def counted_admit(degree, points, work, *rest):
            admitted.append(work)
            return admit(degree, points, work, *rest)

        argv = ["verify-lemmas", "--step", repr(step), "--lambda-step", repr(lam_step), "--n-max", str(n_max),
                "--m-max", str(m_max), "--alt-n-max", str(alt_n_max)] + ["--allow-outside"] * outside
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inequalities, "next_pair_chunk", counted_chunks)
            patch.setattr(cli, "check_size", counted_admit)
            assert _quiet_main(argv) in (0, 1)
        assert len(admitted) == 1
        assert pairs and sum(pairs) <= admitted[0] / LEMMA_PRICE


class TestCrossingSolves:
    SELF_CHECK = ("self-check", "--n", "64", "--samples", "256")
    PLOT = ("plot", "--n", "64", "--angles", "256", "--boundary-samples", "64")
    # a_0 > sum |a_k| r**k fails on both circles: the arcs decide each radius
    DECIDED = ("--A", "-0.5", "--B", "-1", "--lambda", "0.9")

    @pytest.mark.parametrize(
        "argv, decided",
        [
            (SELF_CHECK + DECIDED, [64, 64]),
            (PLOT + DECIDED, [64, 64]),
            # the defaults: the triangle bound settles both radii, no arcs
            (SELF_CHECK, []),
            (PLOT, []),
        ],
        ids=["self-check", "plot", "self-check-bounded", "plot-bounded"],
    )
    def test_one_crossing_solve_per_radius(self, capsys, monkeypatch, argv, decided):
        # the branch rule is decided on arcs at most once per radius: the
        # sampled circle and the witness z0, each a degree-64 series
        degrees = []
        arcs_meet = series._arcs_meet

        def counted(b):
            degrees.append(b.size - 1)
            return arcs_meet(b)

        monkeypatch.setattr(series, "_arcs_meet", counted)
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and out
        assert degrees == decided


class TestDeterminism:
    COMMANDS = [
        ("coeffs", "--A", "-0.5", "--B", "-1", "--lambda", "0.5", "--n-max", "40",
         "--method", "both"),
        ("verify-lemmas", "--step", "0.5", "--lambda-step", "0.5", "--n-max", "30",
         "--m-max", "5", "--alt-n-max", "20"),
        ("check-stability", "--A", "-0.5", "--B", "-1", "--lambda", "0.5",
         "--n-max", "2", "--radii", "0.9,0.99", "--samples", "128"),
        ("self-check", "--samples", "128", "--radii", "0.9,0.99"),
        ("search", "--n-values", "1", "--coarse-angles", "32", "--refine-iters", "2"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_repeat_runs_are_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestParserReuse:
    # A11's cases and its plot export, then two failing calls in between
    CASES = [
        *CLI_CASES,
        ["plot", "--angles", "256", "--boundary-samples", "128",
         "--out", "{dir}/fig.svg", "--csv-dir", "{dir}"],
    ]
    ERRORS = [["search", "--n-values", "x"], ["self-check", "--z0", "2,0"]]

    @staticmethod
    def call(capsys, argv, out_dir):
        """(exit code, stdout, stderr, {file name: bytes}) of one main call;
        a usage error's SystemExit code counts as the exit code."""
        out_dir.mkdir()
        argv = [arg.replace("{dir}", str(out_dir)) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        return code, out, err, files

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, tmp_path):
        calls = [*self.CASES, *self.ERRORS, *self.CASES[::-1]]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [self.call(capsys, argv, tmp_path / f"fresh{k}") for k, argv in enumerate(calls)]
        parser = cli.build_parser()
        reused = [self.call(capsys, argv, tmp_path / f"reused{k}") for k, argv in enumerate(calls)]
        assert cli.build_parser() is parser
        for argv, got, want in zip(calls, reused, fresh):
            assert got == want, argv
        errors = reused[len(self.CASES):len(self.CASES) + len(self.ERRORS)]
        assert [result[0] for result in errors] == [("SystemExit", 2), 2]

    def test_every_default_is_immutable(self):
        # a list or dict default would carry one call's state into the next
        immutable = (type(None), bool, int, float, complex, str)
        root, commands = cli.build_parser()
        (sub,) = [a for a in root._actions if isinstance(a, argparse._SubParsersAction)]
        assert commands is sub.choices and len(commands) == 6
        for parser in (root, *commands.values()):
            defaults = [action.default for action in parser._actions]
            for value in defaults + list(parser._defaults.values()):
                items = value if isinstance(value, tuple) else (value,)
                assert all(isinstance(item, immutable) for item in items), (parser.prog, value)


def _golden_cases() -> list:
    """The argv lists of ``tools/golden_cli.py``, ``{dir}`` unreplaced."""
    path = Path(__file__).resolve().parents[1] / "tools" / "golden_cli.py"
    spec = importlib.util.spec_from_file_location("golden_cli", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return [shlex.split(case) for case in golden.CASES]


class TestOneParse:
    # anything but a subcommand's own flags: unknown flags, stray positionals,
    # "--", abbreviations, negative values, errors and help
    ODD = [
        ["search", "--bogus", "1"],
        ["search", "stray"],
        ["search", "--n-values", "1", "stray"],
        ["search", "--"],
        ["search", "--", "--n-values", "1"],
        ["--", "search"],
        ["search", "--lam", "0.5", "--n-values", "1", "--coarse-angles", "16", "--refine-iters", "1"],
        ["self-check", "--lam", "0.5", "--samples", "64", "--radii", "0.9"],
        ["search", "--A-values", "-0.5,-0.3", "--B-values", "-0.9", "--n-values", "1",
         "--coarse-angles", "16", "--refine-iters", "0"],
        ["search", "--A-values=-0.5", "--n-values=1,2", "--coarse-angles=16"],
        ["search", "--A-values", "-0.5", "-0.3"],
        ["self-check", "--z0", "-0.5,-0.25", "--samples", "64", "--radii", "0.9"],
        ["coeffs", "--A", "-0.5", "--B", "-1"],
        ["search", "--r", "x"],
        ["coeffs", "--A", "-0.5", "--B", "-1", "--lambda", "0.5", "--n-max", "1.5"],
        ["search", "-h"],
        ["plot", "--help"],
        ["search", "--n-values", "1", "-h"],
        ["-h"],
        [],
        ["frobnicate"],
        ["search", "search"],
        ["verify-lemmas", "--step"],
    ]

    @staticmethod
    def call(capsys, argv):
        """(exit code, stdout, stderr) of one main call; a SystemExit's code
        counts as the exit code."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err

    def test_one_parse_answers_as_the_whole_parser(self, capsys, monkeypatch, tmp_path):
        # each handler prints the namespace it gets, so stdout shows any parsed
        # value that differs; the whole parser runs only where the subcommand's
        # parser leaves arguments over or no subcommand leads the call
        parser, commands = cli.build_parser()
        for name in commands:
            monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                                lambda args: print(sorted(vars(args).items())) or 0)
        whole = []
        monkeypatch.setattr(parser, "parse_known_args",
                            lambda *a, **k: whole.append(1) or type(parser).parse_known_args(parser, *a, **k))
        golden = _golden_cases()
        corpus = [[arg.replace("{dir}", str(tmp_path)) for arg in argv] for argv in golden + self.ODD]
        once = []
        for argv in corpus:
            whole.clear()
            once.append((self.call(capsys, argv), len(whole)))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda: (parser, {}))
            forced = [self.call(capsys, argv) for argv in corpus]
        for argv, (got, _), want in zip(corpus, once, forced):
            assert got == want, argv
        assert [passes for _, passes in once[:len(golden)]] == [0] * len(golden)
        # every golden case reaches its handler, but for the one usage error
        # argparse itself raises
        failing = [argv[-2:] for argv, ((code, _, _), _) in zip(golden, once) if code != 0]
        assert failing == [["--tol", "nan"]]
        odd = {tuple(argv): result for argv, result in zip(self.ODD, once[len(golden):])}
        assert odd[("search", "--bogus", "1")][0][0] == ("SystemExit", 2)
        assert odd[("search", "--bogus", "1")][1] == 1
        assert odd[("search", "-h")][0][0] == ("SystemExit", 0)
        assert odd[("search", "-h")][1] == 0
        assert odd[("coeffs", "--A", "-0.5", "--B", "-1")][0][0] == ("SystemExit", 2)
