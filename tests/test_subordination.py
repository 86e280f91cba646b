"""Subordination machinery: ratio, disks, stability checks."""

import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import janostab
from janostab.janowski import JanowskiParams, janowski_series
from janostab.serialize import dumps
from janostab.series import BranchFailureError, TruncatedSeries, _circle_points, ray_log_values
from janostab.subordination import (
    KNOWN_COUNTEREXAMPLE,
    DiskSpec,
    SampleGrid,
    check_stability_vs_base,
    check_stability_vs_self,
    closed_form_disk,
    disk_for,
    mobius_image_disk,
    ratio_samples,
    reference_disk_comparison,
)

from oracles import horner, ratio_at

K = KNOWN_COUNTEREXAMPLE
SMALL = SampleGrid(radii=(0.9, 0.99), points_per_circle=512)


def ratio_oracle(params, a1, z):
    """Independent single-coefficient ratio: the partial sum stays in the
    right half-plane on these rays, so the principal power is analytic."""
    s_val = horner([1.0, a1], z)
    return (1 + params.B * z) / (1 + params.A * z) * s_val ** (1.0 / params.lam)


def mobius(params, z):
    """(1+Bz)/(1+Az), the univalent target of the self-stability check."""
    return (1 + params.B * z) / (1 + params.A * z)


class TestMobiusTarget:
    def test_value_at_zero(self):
        assert mobius(K.params, 0) == 1.0

    def test_positive_axis_value(self):
        got = mobius(K.params, 0.98)
        assert got.real == pytest.approx((1 - 0.9506) / (1 - 0.66542), abs=1e-12)
        assert got.real == pytest.approx(0.14765, abs=1e-5)

    def test_negative_axis_value(self):
        got = mobius(K.params, -0.98)
        assert got.real == pytest.approx(1.17124, abs=1e-5)

    def test_pole_guard(self):
        # the pole of the target lies outside |z| < 1: an explicit probe
        # there is an error, not a branch failure, in the stability checks
        pole = -1.0 / K.params.A
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            check_stability_vs_self(K.params, K.n, 0.983, SampleGrid((0.9,), 8, (0.5, pole)))
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            check_stability_vs_base(K.params, K.n, SampleGrid((), 8, (pole,)))

    @pytest.mark.parametrize("z", (
        1.0, -1.0, 0.6 + 0.8j, 2j, float("nan"), complex("inf"), complex(0.5, float("nan")),
    ))
    def test_refuses_points_outside_the_disk(self, z):
        # on and beyond the unit circle, and non-finite: an error, not a
        # sample that no margin comparison sees
        grid = SampleGrid(radii=(0.9,), points_per_circle=64, extra_points=(0.5, z))
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 3, grid)
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            check_stability_vs_self(K.params, K.n, 0.983, grid)


class TestStabilityRatio:
    def test_value_at_origin_is_exactly_one(self):
        assert ratio_at(K.params, K.n, 0) == 1.0

    @settings(deadline=None, max_examples=30)
    @given(
        st.floats(-0.95, 1.0, allow_nan=False),
        st.floats(0.01, 0.95, allow_nan=False),
        st.floats(0.05, 1.0, allow_nan=False),
        st.integers(1, 6),
    )
    def test_origin_value_is_one_for_any_parameters(self, a, gap, lam, n):
        b = max(a - gap, -1.0)
        if not b < a:
            return
        assert ratio_at(JanowskiParams(a, b, lam), n, 0) == 1.0

    def test_counterexample_witness_value(self):
        got = ratio_at(K.params, K.n, K.z0)
        expect = ratio_oracle(K.params, 0.3 * (-0.679 + 0.97), K.z0)
        assert abs(got - expect) < 1e-12
        # four printed decimals of the known value
        assert abs(got - complex(0.8697, 0.5845)) < 1e-3

    def test_pole_and_branch_failure_raise(self):
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            ratio_at(K.params, K.n, -1.0 / K.params.A)
        # s_1 = 1 + 2z vanishes at -0.5
        with pytest.raises(BranchFailureError):
            ratio_at(JanowskiParams(1.0, -1.0, 1.0), 1, -0.5)

    @pytest.mark.parametrize("z", (1.0, 1j, 1.2, float("nan")))
    def test_rejects_points_outside_the_open_disk(self, z):
        # the unit circle, beyond it, and NaN: the message names the point
        with pytest.raises(ValueError, match=r"\|z\| < 1") as exc:
            ratio_at(JanowskiParams(-0.5, -1.0, 0.5), 64, z)
        assert repr(complex(z)) in str(exc.value)

    @settings(deadline=None, max_examples=100)
    @given(
        st.one_of(st.just(1.0), st.floats(-0.99, 1.0)),
        st.floats(0.001, 1.0),
        st.floats(0.05, 1.0),
        st.integers(1, 32),
        st.lists(
            st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.0, 1e-15), st.floats(-1e-8, 1e-8)),
            max_size=8,
        ),
    )
    def test_pole_is_out_of_reach_in_the_disk(self, a, gap, lam, n, near):
        # points of |z| < 1 within 1e-15 of +-1: Re(1 + Az) > 0 in floating
        # point, so every value off a branch failure is finite; the next
        # double beyond, -1 (the pole when A = 1), is rejected
        params = JanowskiParams(a, max(a - gap, -1.0), lam)
        series = janowski_series(params, n)
        points = [complex(sign * (1.0 - d), y) for sign, d, y in near]
        points = [z for z in points if np.abs(z) < 1.0]
        zs = np.array(points + [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)], dtype=complex)
        assert ((1.0 + params.A * zs).real > 0.0).all()
        vals, _, bad = ratio_samples(series, params, zs)
        assert np.isfinite(vals[~bad]).all()
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            ratio_samples(series, params, np.append(zs, -1.0))


class TestDisks:
    def test_closed_form_values_at_known_configuration(self):
        disk = closed_form_disk(K.params, 0.98)
        a, b, r = K.params.A, K.params.B, 0.98
        den = b * b - r * r * a * a
        assert disk.center.real == pytest.approx((r * r * a - b) / den, abs=1e-15)
        assert disk.radius == pytest.approx(r * (a - b) / den, abs=1e-15)
        # frozen from the direct evaluation above
        assert disk.center.real == pytest.approx(0.638181181296501, abs=1e-12)
        assert disk.radius == pytest.approx(0.5725169879811158, abs=1e-12)

    def test_closed_form_small_radius_limit(self):
        disk = closed_form_disk(K.params, 0.0)
        assert disk.center.real == pytest.approx(-1.0 / K.params.B, abs=1e-15)
        assert disk.radius == 0.0

    def test_closed_form_degenerate_denominator(self):
        with pytest.raises(ValueError):
            closed_form_disk(JanowskiParams(1.0, -1.0, 0.5), 1.0 - 1e-13)

    def test_reference_values_match_evaluation_at_witness_modulus(self):
        # recorded reference numbers equal the closed-form expressions at
        # r = |z0| rather than at r = 0.98
        disk = closed_form_disk(K.params, abs(K.z0))
        assert disk.center.real == pytest.approx(0.634444, abs=1e-6)
        assert disk.radius == pytest.approx(0.576521, abs=1e-6)

    def test_reference_comparison_is_flagged(self):
        cmp = reference_disk_comparison(K.params, 0.98)
        assert cmp["flagged"]
        assert 1e-3 < cmp["center_delta"] < 1e-2
        assert 1e-3 < cmp["radius_delta"] < 1e-2

    def test_mobius_image_matches_diameter_midpoint(self):
        r = 0.98
        disk = mobius_image_disk(K.params, r)
        h_plus = mobius(K.params, r)
        h_minus = mobius(K.params, -r)
        assert disk.center.real == pytest.approx((h_plus + h_minus).real / 2, abs=1e-12)
        assert disk.radius == pytest.approx(abs(h_minus - h_plus) / 2, abs=1e-12)
        assert disk.center.real == pytest.approx(0.6594419409148014, abs=1e-12)
        assert disk.radius == pytest.approx(0.5117941436764727, abs=1e-12)

    def test_mobius_image_boundary_maps_back_to_circle(self):
        for r in (0.25, 0.7, 0.983):
            disk = mobius_image_disk(K.params, r)
            w = disk.boundary_points(257)
            z_back = (1 - w) / (K.params.A * w - K.params.B)
            assert np.max(np.abs(np.abs(z_back) - r)) < 1e-9

    def test_mobius_image_zero_radius(self):
        disk = mobius_image_disk(K.params, 0.0)
        assert disk.center == 1.0 and disk.radius == 0.0

    def test_mobius_image_radius_shrinks_with_parameter_gap(self):
        near = mobius_image_disk(JanowskiParams(-0.5, -0.51, 0.5), 0.9)
        far = mobius_image_disk(JanowskiParams(-0.5, -0.9, 0.5), 0.9)
        assert near.radius < 0.02 < far.radius


class TestSampleGrid:
    def test_validates_radii(self):
        with pytest.raises(ValueError):
            SampleGrid(radii=(0.9, 0.5))
        with pytest.raises(ValueError):
            SampleGrid(radii=(1.2,))
        with pytest.raises(ValueError):
            SampleGrid(points_per_circle=4)

    def test_allows_points_only(self):
        grid = SampleGrid(radii=(), extra_points=(0.5 + 0.1j,))
        assert grid.radii == () and grid.extra_points == (0.5 + 0.1j,)

    def test_numpy_integer_count_is_a_python_int(self):
        grid = SampleGrid(radii=(0.9,), points_per_circle=np.int64(16))
        assert type(grid.points_per_circle) is int
        report = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 2, grid)
        assert '"points": 16' in dumps(report.to_json_dict())

    @pytest.mark.parametrize("count", [8.5, 16.0, "16", None])
    def test_rejects_non_integer_counts(self, count):
        with pytest.raises(ValueError, match="points_per_circle must be an integer"):
            SampleGrid(points_per_circle=count)


class TestBaseStability:
    def test_passes_in_established_range(self):
        report = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 5, SMALL)
        assert report.verdict == "pass"
        assert report.worst_margin <= 1e-6

    def test_origin_sample_has_full_negative_margin(self):
        grid = SampleGrid(radii=(), extra_points=(0.0,))
        report = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 3, grid)
        assert report.worst_margin == -1.0  # |B| = 1
        assert report.worst_point == 0.0

    def test_rejects_params_outside_range(self):
        with pytest.raises(ValueError):
            check_stability_vs_base(JanowskiParams(0.5, -1.0, 0.5), 2, SMALL)

    def test_allow_outside_runs_and_reports(self):
        report = check_stability_vs_base(
            JanowskiParams(0.5, -1.0, 0.5), 2, SMALL, allow_outside=True
        )
        assert report.verdict in ("pass", "violated")

    def test_special_slope_parameterization_passes(self):
        # A = 1 - 2*alpha, B = -1 at alpha = 0.75
        report = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.3), 8, SMALL)
        assert report.verdict == "pass"

    def test_pass_means_all_samples_inside_disk(self):
        params = JanowskiParams(-0.5, -1.0, 0.5)
        report = check_stability_vs_base(params, 4, SMALL, tol=1e-6)
        assert report.verdict == "pass"
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            z = 0.99 * cmath.exp(1j * theta)
            assert abs(ratio_at(params, 4, z) - 1) <= abs(params.B) + 1e-6

    def test_deterministic_report_bytes(self):
        a = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 3, SMALL)
        b = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 3, SMALL)
        assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())

    def test_branch_failure_verdict(self):
        # 1 + 2z vanishes exactly at the probe point
        grid = SampleGrid(radii=(), extra_points=(-0.5,))
        report = check_stability_vs_base(
            JanowskiParams(1.0, -1.0, 1.0), 1, grid, allow_outside=True
        )
        assert report.verdict == "branch_failure"
        assert report.to_json_dict()["worst_margin"] is None

    def test_report_schema(self):
        doc = check_stability_vs_base(JanowskiParams(-0.5, -1.0, 0.5), 2, SMALL).to_json_dict()
        assert set(doc) == {"verdict", "worst_margin", "worst_point", "n", "params", "grid", "disk"}
        assert set(doc["grid"]) == {"radii", "points"}
        assert set(doc["params"]) == {"A", "B", "lambda"}


class TestSelfStability:
    def test_violated_at_known_configuration(self):
        report = check_stability_vs_self(K.params, K.n, 0.983, SMALL)
        assert report.verdict == "violated"
        assert report.worst_margin >= 0.10

    def test_witness_only_grid_closed_form(self):
        grid = SampleGrid(radii=(), extra_points=(K.z0,))
        report = check_stability_vs_self(
            K.params, K.n, 0.98, grid, disk_source="closed_form"
        )
        assert report.verdict == "violated"
        assert report.worst_margin > 0
        assert report.worst_point == K.z0
        # the report carries the value that gave its margin
        assert report.worst_ratio == ratio_at(K.params, K.n, K.z0)
        assert np.abs(report.worst_ratio - report.disk.center) - report.disk.radius == (
            report.worst_margin
        )

    def test_origin_is_inside_every_target_disk(self):
        for source in ("closed_form", "mobius_image"):
            grid = SampleGrid(radii=(), extra_points=(0.0,))
            report = check_stability_vs_self(K.params, K.n, 0.983, grid, disk_source=source)
            assert report.worst_margin < 0
            assert report.verdict == "pass"

    def test_margin_at_witness_against_both_disks(self):
        ratio = ratio_at(K.params, K.n, K.z0)
        disk = disk_for("mobius_image", K.params, 0.983)
        margin_mobius = disk.margin(ratio)
        assert margin_mobius == pytest.approx(0.1065779488, abs=1e-9)
        assert abs(ratio - disk.center) - disk.radius == margin_mobius
        margin_closed = disk_for("closed_form", K.params, 0.98).margin(ratio)
        assert margin_closed == pytest.approx(0.0561655402, abs=1e-9)

    def test_first_call_imports_no_masked_arrays(self):
        # no call may pull in numpy.ma (~1.5 MB RSS), as np.unique would in
        # the crossing test's sort of distinct radii: a circle and two
        # explicit points at other radii
        script = (
            "import sys\n"
            "from janostab.subordination import KNOWN_COUNTEREXAMPLE as K\n"
            "from janostab.subordination import SampleGrid, check_stability_vs_self\n"
            "check_stability_vs_self(K.params, 3, 0.983, SampleGrid((0.9,), 64, (0.5, 0.3j)))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(janostab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_sample_radii_scale_with_r(self):
        report = check_stability_vs_self(K.params, K.n, 0.5, SMALL)
        assert report.sample_radii == tuple(f * 0.5 for f in SMALL.radii)

    @settings(deadline=None, max_examples=100)
    @given(
        st.floats(-0.99, -0.01),
        st.floats(0.001, 1.0),
        st.floats(0.01, 1.0),
        st.integers(1, 32),
        st.floats(0.05, 0.99),
        st.floats(0.05, 0.999),
        st.integers(8, 256),
    )
    def test_circle_and_point_paths_agree(self, a, gap, lam, n, r, f, count):
        # the same circle as grid samples and as explicit points: one path
        params = JanowskiParams(a, max(a - gap, -1.0), lam)
        points = tuple(_circle_points([f * r], count)[0])
        circle = check_stability_vs_self(params, n, r, SampleGrid((f,), count))
        explicit = check_stability_vs_self(params, n, r, SampleGrid((), count, points))
        assert circle.worst_margin == explicit.worst_margin
        assert circle.worst_point == explicit.worst_point
        assert circle.verdict == explicit.verdict


class TestOneCircle:
    """The disk checks sample their largest circle only: with no root of s_n
    in its disk, the maximum modulus principle puts the worst margin there."""

    def test_root_inside_the_circle_off_every_sample_is_branch_failure(self):
        # s_2 has roots at -0.535 +- 0.793i, inside |z| <= 0.999 and on no
        # sampled ray; the continued branch is not analytic in that disk,
        # so every sample of the circle fails and no margin is left
        report = check_stability_vs_base(JanowskiParams(0.3, -1.0, 0.9), 2, allow_outside=True)
        assert report.verdict == "branch_failure"
        assert report.sample_radii == SampleGrid().radii
        assert np.isnan(report.worst_margin) and report.worst_point is None
        assert report.to_json_dict()["worst_margin"] is None

    @settings(deadline=None, max_examples=40)
    @given(st.floats(-0.99, 0.0), st.floats(0.001, 2.0), st.floats(0.01, 1.0), st.integers(1, 32))
    def test_inner_circles_never_beat_the_outer_one(self, a, gap, lam, n):
        params = JanowskiParams(a, max(a - gap, -1.0), lam)
        series = janowski_series(params, n)
        vals, _, bad = ratio_samples(series, params, _circle_points((0.9, 0.99, 0.999), 4096).ravel())
        assert not bad.any()
        for disk in (DiskSpec(1.0, abs(params.B)), mobius_image_disk(params, 0.999)):
            worst = disk.margin(vals).reshape(3, -1).max(axis=1)
            assert worst[:2].max() <= worst[2] + 1e-12


def _bits(values) -> list:
    """Raw IEEE bits of each entry, NaN payloads and signed zeros included."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).tolist()


class TestWitnessIdentity:
    """A disk check's worst ratio is the value at its worst point that any
    other caller gets, and its worst margin is that ratio's margin."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(-0.99, 0.0),
        st.floats(0.001, 2.0),
        st.floats(0.01, 1.0),
        st.integers(1, 32),
        st.sampled_from(((0.9,), (0.5, 0.99), (0.9, 0.99, 0.999))),
        st.sampled_from((8, 64, 512)),
        st.floats(0.05, 0.99),
    )
    def test_worst_ratio_is_the_ratio_at_the_worst_point(self, a, gap, lam, n, radii, count, r):
        params = JanowskiParams(a, max(a - gap, -1.0), lam)
        grid = SampleGrid(radii, count)
        for report in (
            check_stability_vs_base(params, n, grid),
            check_stability_vs_self(params, n, r, grid),
        ):
            assert report.worst_point is not None
            expect = ratio_at(params, n, report.worst_point)
            assert _bits([report.worst_ratio]) == _bits([expect])
            assert report.disk.margin(report.worst_ratio) == report.worst_margin


class TestBatchIndependence:
    """A point's ratio does not depend on the batch it is evaluated in; the
    search's witnesses rely on it."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(-0.99, -0.01),
        st.floats(0.001, 1.0),
        st.floats(0.05, 1.0),
        st.integers(1, 32),
        st.lists(
            st.tuples(st.floats(0.0, 1.2), st.floats(-np.pi, np.pi)), min_size=1, max_size=8
        ),
        st.sampled_from(((), (0.5,), (0.3, 0.9, 0.999))),
        st.sampled_from((8, 64)),
    )
    def test_each_point_alone_and_in_a_batch(self, a, gap, lam, n, polar, radii, angles):
        params = JanowskiParams(a, max(a - gap, -1.0), lam)
        series = janowski_series(params, n)
        ws = np.roots(series.coeffs)  # reciprocal roots: the coefficients read in reverse
        root = 1.0 / ws[np.argmax(np.abs(ws))]  # the root nearest the origin
        points = [rho * cmath.exp(1j * phi) for rho, phi in polar]
        # a root on [0, z], one just off it, the pole, the origin, signed zeros
        points += [1.5 * root, root * (1 + 1e-13j), -1.0 / a, 0j, complex(0.5, -0.0)]
        disk = [z for z in points if np.abs(z) < 1.0]  # where the ratio is evaluated
        args = (series, params)
        circles = _circle_points(radii, angles).ravel()
        vals, zs, bad = ratio_samples(*args, np.concatenate([circles, disk]))
        k = circles.size
        if radii:
            circles, _, circles_bad = ratio_samples(*args, circles)
            assert _bits(vals[:k]) == _bits(circles)
            assert bad[:k].tolist() == circles_bad.tolist()
        for i, z in enumerate(disk):
            alone, _, alone_bad = ratio_samples(*args, [z])
            assert _bits(vals[k + i : k + i + 1]) == _bits(alone)
            assert bad[k + i] == alone_bad[0]
        logs, failed = ray_log_values(series, np.array(points))
        for i, z in enumerate(points):
            log, log_failed = ray_log_values(series, np.asarray(z))
            assert np.ndim(log) == 0 and np.ndim(log_failed) == 0
            assert _bits([log]) == _bits(logs[i : i + 1])
            assert log_failed == failed[i]

    # finite points of |z| < 1 in all four quadrants and on both axes, signed zeros included
    _parts = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-0.7, 0.7))

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=1, max_size=41),
            min_size=1, max_size=5,
        ),
        st.integers(0, 5),
        st.integers(1, 6),
        st.data(),
    )
    def test_each_row_of_a_stack_alone(self, rows, failing_at, size, data):
        # 1 + 2z meets (-inf, 0] on every circle |z| >= 0.5: its points there fail
        failing_at = min(failing_at, len(rows))
        rows = [*rows[:failing_at], [1.0, 2.0], *rows[failing_at:], [0.5, 1.0, 0.0]]
        stack = [TruncatedSeries(row) for row in rows]
        points = np.array(
            data.draw(st.lists(st.tuples(self._parts, self._parts), min_size=size * len(rows),
                               max_size=size * len(rows))),
        ).view(complex).reshape(len(rows), size)
        params = JanowskiParams(-0.679, -0.97, 0.3)
        vals, _, bad = (a.reshape(points.shape) for a in ratio_samples(stack, params, points))
        for row, pts, row_vals, row_bad in zip(rows, points, vals, bad):
            alone, _, alone_bad = ratio_samples(TruncatedSeries(row), params, pts)
            assert _bits(row_vals) == _bits(alone)
            assert row_bad.tolist() == alone_bad.tolist()
        moduli = np.abs(points[failing_at])
        clear = np.abs(moduli - 0.5) > 1e-6  # away from the rounding of |z| and the slack
        assert bad[failing_at][clear].tolist() == (moduli[clear] > 0.5).tolist()


class TestDiskSpec:
    def test_margin_sign(self):
        disk = DiskSpec(1.0 + 0j, 0.5)
        assert disk.margin(1.2) < 0 < disk.margin(2.0)

    def test_boundary_points_lie_on_circle(self):
        disk = DiskSpec(0.3 - 0.2j, 0.75)
        w = disk.boundary_points(64)
        assert np.max(np.abs(np.abs(w - disk.center) - disk.radius)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(1.0, -0.1)
