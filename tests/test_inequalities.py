"""Inequality sweeps: positivity, pair forms, alternating identity."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from janostab import inequalities
from janostab.inequalities import (
    GridSpec,
    check_alternating_identity,
    check_coeff_lemmas,
)
from janostab.janowski import PAIR_BLOCK, PAIR_CHUNK, JanowskiParams
from janostab.serialize import dumps

from oracles import alternating_sum_exact, coeff_recurrence_scalar, grid_points, table_sweep_reports

POINT = GridSpec(A_values=(-0.5,), B_values=(-1.0,), lambda_values=(0.5,), n_max=2, m_max=1)
# the reports of check_coeff_lemmas, in order
CHECKS = ("positivity", "pair", "weighted")


def lemmas(grid: GridSpec, tol: float = 1e-12) -> dict:
    """The three coefficient reports of one pass, by name."""
    return dict(zip(CHECKS, check_coeff_lemmas(grid, tol)))


def pair_scale(a, n):
    """max(|a_n|, |a_{n+1}|), the scale every statement at index n is divided by."""
    return max(abs(a[n]), abs(a[n + 1]))


class TestGridSpec:
    def test_default_lattice_shape(self):
        grid = GridSpec.default(n_max=10, m_max=5)
        assert len(grid.A_values) == 21
        assert len(grid.lambda_values) == 20
        assert grid.A_values[0] == -1.0 and grid.A_values[-1] == 0.0
        pairs = {(p.A, p.B) for p in grid_points(grid)}
        assert len(pairs) == 210

    def test_widened_lattice(self):
        grid = GridSpec.default(n_max=5, allow_positive_A=True)
        assert grid.A_values[-1] == 1.0
        assert any(p.A > 0 for p in grid_points(grid))

    def test_pairs_respect_range(self):
        grid = GridSpec(
            A_values=(-0.5, 0.5), B_values=(-1.0, -0.2, 0.8), lambda_values=(0.5,),
            n_max=3,
        )
        kept = {(p.A, p.B) for p in grid_points(grid)}
        assert kept == {(-0.5, -1.0)}  # positive A dropped without the flag

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            GridSpec(A_values=(-0.5,), B_values=(-1.0,), lambda_values=(0.0,), n_max=3)


class TestPositivity:
    def test_single_point_margin(self):
        # a = 1, 1/4, 7/32: the values a_n / max(|a_{n-1}|, |a_n|) are 1, 1/4, 7/8
        a = coeff_recurrence_scalar(-0.5, -1.0, 0.5, 2)
        report = lemmas(POINT)["positivity"]
        assert not report.violations
        assert report.checked == 3
        assert report.min_margin == pytest.approx(a[1] / pair_scale(a, 0), abs=1e-15)
        assert report.min_margin == pytest.approx(0.25, abs=1e-15)

    def test_zero_order_grid_sees_only_a0(self):
        grid = GridSpec(A_values=(-0.3,), B_values=(-0.9,), lambda_values=(0.7,), n_max=0)
        report = lemmas(grid)["positivity"]
        assert report.checked == 1 and report.min_margin == 1.0

    def test_detects_negative_coefficients_outside_range(self):
        grid = GridSpec(
            A_values=(1.0,), B_values=(0.5,), lambda_values=(0.5,),
            n_max=4, allow_positive_A=True,
        )
        report = lemmas(grid)["positivity"]
        assert report.violations
        assert report.min_margin < 0

    def test_violations_keep_grid_then_order_sequence(self):
        # a per-point loop on the scalar oracle, in grid then order sequence;
        # the scale-free values flag every (point, n) the raw coefficients
        # flag, plus negative coefficients smaller than tol in magnitude
        grid = GridSpec.default(n_max=30, step=0.25, lambda_step=0.25, allow_positive_A=True)
        expected = []
        extra = 0
        for p in grid_points(grid):
            a = np.array(coeff_recurrence_scalar(p.A, p.B, p.lam, grid.n_max))
            assert not np.any((a != 0) & (np.abs(a) < 1e-200))  # raw values stay normal
            scale = np.maximum(np.abs(a), np.abs(np.concatenate(([0.0], a[:-1]))))
            vals = a / np.where(scale > 0, scale, 1.0)  # a run of exact zeros reads 0
            flagged = np.flatnonzero(vals <= -1e-12)
            assert set(np.flatnonzero(a <= -1e-12)) <= set(flagged)
            assert np.all(a[flagged] < 0)
            extra += int(np.sum(a[flagged] > -1e-12))
            expected.extend(
                {"A": p.A, "B": p.B, "lambda": p.lam, "n": int(n), "m": None, "value": float(vals[n])}
                for n in flagged
            )
        report = lemmas(grid)["positivity"]
        assert len(expected) > 10 and extra > 0
        assert report.violations == tuple(expected)


class TestAlternatingIdentity:
    def test_lam_one_first_order_exact(self):
        report = check_alternating_identity(1.0, 1)
        assert report.min_margin == 0.0 and not report.violations

    def test_small_order(self):
        report = check_alternating_identity(0.7, 3)
        assert not report.violations
        assert report.min_margin > -1e-15

    def test_hundred_orders(self):
        report = check_alternating_identity(0.3, 100)
        assert not report.violations
        assert report.min_margin > -1e-12
        assert report.checked == 100

    def test_oracle_agrees_the_sum_is_zero(self):
        assert alternating_sum_exact(Fraction(7, 10), 5) == 0

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            check_alternating_identity(0.0, 10)


class TestPairInequality:
    def test_single_point_value(self):
        # (2 a_2 + B a_1) / max(a_1, a_2) = (7/16 - 1/4) / (1/4)
        a = coeff_recurrence_scalar(-0.5, -1.0, 0.5, 2)
        report = lemmas(POINT)["pair"]
        assert not report.violations
        assert report.checked == 1  # n = 1 only for n_max = 2
        assert report.min_margin == pytest.approx((2 * a[2] - a[1]) / pair_scale(a, 1), abs=1e-15)
        assert report.min_margin == pytest.approx(0.75, abs=1e-15)

    def test_equal_coefficients_shape(self):
        # with a_{n+1} == a_n and B = -1 the value collapses to a_n > 0
        a = 0.37
        n = 5
        assert (n + 1) * a + (-1.0) * n * a == pytest.approx(a)


class TestWeightedPairInequality:
    def test_m_zero_collapse(self):
        # with m_max = 0 the weighted values are (n+1)*a_{n+1} / max(|a_n|, |a_{n+1}|)
        grid = GridSpec(A_values=(-0.3,), B_values=(-0.8,), lambda_values=(0.6,), n_max=7)
        a = coeff_recurrence_scalar(-0.3, -0.8, 0.6, 8)
        report = lemmas(grid)["weighted"]
        assert report.checked == 7
        assert report.min_margin == min((n + 1) * a[n + 1] / pair_scale(a, n) for n in range(1, 8))

    def test_grid_minimum_comes_from_m_zero_row(self):
        # rows m = 0, 1 at n = 1, 2: 1.75, 2.5 and 2.68, 3.36
        a = coeff_recurrence_scalar(-0.5, -1.0, 0.5, 3)
        report = lemmas(POINT)["weighted"]
        assert not report.violations
        assert report.min_margin == pytest.approx(2 * a[2] / pair_scale(a, 1), abs=1e-15)
        assert report.min_margin == pytest.approx(1.75, abs=1e-15)

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(-0.95, -0.05, allow_nan=False),
        st.floats(0.01, 0.9, allow_nan=False),
        st.floats(0.05, 1.0, allow_nan=False),
        st.integers(0, 6),
        st.integers(1, 9),
    )
    def test_decomposition_identity(self, a, gap, lam, m, n):
        b = max(a - gap, -1.0)
        if not b < a:
            return
        params = JanowskiParams(a, b, lam)
        coeffs = coeff_recurrence_scalar(params.A, params.B, params.lam, n + 1)
        rebuilt = []
        for mm in range(m + 1):
            for nn in range(1, n + 1):
                pair = (nn + 1) * coeffs[nn + 1] + params.B * nn * coeffs[nn]
                rebuilt.append((mm * pair + (nn + 1) * coeffs[nn + 1]) / pair_scale(coeffs, nn))
        grid = GridSpec(A_values=(a,), B_values=(b,), lambda_values=(lam,), n_max=n, m_max=m)
        report = lemmas(grid)["weighted"]
        assert report.checked == len(rebuilt)
        assert report.min_margin == pytest.approx(min(rebuilt), abs=1e-12)

    def test_zero_order_grid_has_no_weighted_terms(self):
        grid = GridSpec(A_values=(-0.3,), B_values=(-0.9,), lambda_values=(0.7,), n_max=0, m_max=3)
        report = lemmas(grid)["weighted"]
        assert report.checked == 0 and not report.violations
        assert '"min_margin": null' in dumps(report.to_json_dict())

    def test_pass_is_implied_by_pair_and_positivity(self):
        grid = GridSpec(
            A_values=(-0.7, -0.2), B_values=(-1.0, -0.8), lambda_values=(0.3, 0.9),
            n_max=40, m_max=20,
        )
        reports = lemmas(grid)
        assert not reports["positivity"].violations
        assert not reports["pair"].violations
        assert not reports["weighted"].violations


def raw_statements(grid: GridSpec) -> dict:
    """Every statement of the three coefficient checks in raw form, from the
    scalar oracle: {(check, A, B, lambda, n, m): (raw value, scale)}, where
    scale is the max(|a_n|, |a_{n+1}|) the check divides by (for positivity
    of a_n, max(|a_{n-1}|, |a_n|) with a_{-1} = 0).  Statements are kept only
    while every coefficient up to a_{n+1} exceeds 1e-200 in magnitude."""
    out = {}
    for p in grid_points(grid):
        a = coeff_recurrence_scalar(p.A, p.B, p.lam, grid.n_max + 1)
        normal = len(a)
        for k, c in enumerate(a):
            if not abs(c) > 1e-200:
                normal = k
                break
        key = (p.A, p.B, p.lam)
        for n in range(min(grid.n_max, normal - 1) + 1):
            scale = max(abs(a[n - 1]) if n else 0.0, abs(a[n]))
            out[("positivity", *key, n, None)] = (a[n], scale)
        for n in range(1, min(grid.n_max + 1, normal - 1)):
            scale = max(abs(a[n]), abs(a[n + 1]))
            if n < grid.n_max:
                out[("pair", *key, n, None)] = ((n + 1) * a[n + 1] + p.B * n * a[n], scale)
            for m in range(grid.m_max + 1):
                raw = (m + 1) * (n + 1) * a[n + 1] + p.B * m * n * a[n]
                out[("weighted", *key, n, m)] = (raw, scale)
    return out


class TestScaleFreeValues:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=2, unique=True),
        st.integers(0, 60),
        st.integers(0, 5),
        st.booleans(),
    )
    def test_agree_with_raw_statements(self, a_vals, b_vals, lam_vals, n_max, m_max, outside):
        # in the lemma range (A <= 0) and, with allow_positive_A, beyond it
        grid = GridSpec(a_vals, b_vals, lam_vals, n_max, m_max, allow_positive_A=outside)
        assume(grid_points(grid))
        raw = raw_statements(grid)
        # tol = -inf lists every value as a violation, in report order
        everies, flags = lemmas(grid, -np.inf), lemmas(grid)
        for name in CHECKS:
            every = everies[name].violations
            flagged = {(v["A"], v["B"], v["lambda"], v["n"], v["m"]) for v in flags[name].violations}
            seen = 0
            for v in every:
                key = (name, v["A"], v["B"], v["lambda"], v["n"], v["m"])
                if key not in raw:
                    continue
                seen += 1
                value, scale = raw[key]
                expect = value / scale if scale else 0.0
                assert np.sign(v["value"]) == np.sign(expect), key
                assert abs(v["value"] - expect) <= 1e-14 * abs(expect), key
                # a raw violation is still found where the scale is at most
                # 1, which holds throughout the lemma range
                if value <= -1e-12 and scale <= 1.0:
                    assert key[1:] in flagged, key
            assert seen == sum(1 for key in raw if key[0] == name)


class TestStreamedChecks:
    @settings(deadline=None, max_examples=20)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9, unique=True),
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9, unique=True),
        st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=7, unique=True),
        st.integers(0, 6),
        st.booleans(),
        st.sampled_from([1e-12, 0.0, -1.0]),
        st.integers(0, 8),
        st.sampled_from([None, 1, 7, 60]),
    )
    # 567 points, where a chunk is one block
    @example([k / 9 for k in range(9)], [k / 9 - 1 for k in range(9)], [k / 7 for k in range(1, 8)],
             3, True, 1e-12, 4, None)
    # every statement reads 0 at some order and none reads below: minima of 0
    @example([0.5, 1.0], [0.0], [1.0], 3, True, 0.0, 1, None)
    def test_reports_equal_the_table_sweep(self, a_vals, b_vals, lam_vals, m_max, outside, tol, pick, cap):
        grid = GridSpec(a_vals, b_vals, lam_vals, 0, m_max, allow_positive_A=outside)
        points = len(grid_points(grid))
        assume(points)
        # the pairs run to column n_max + 1; chunks end after columns
        # orders, 2 orders, ...
        orders = PAIR_BLOCK * max(1, PAIR_CHUNK // (PAIR_BLOCK * points))
        edges = {PAIR_BLOCK} | {e for e in (orders, 2 * orders) if e <= 400}
        n_maxes = sorted(e + d for e in edges for d in (-1, 0, 1))
        n_max = n_maxes[pick % len(n_maxes)]
        grid = dataclasses.replace(grid, n_max=n_max)
        with pytest.MonkeyPatch.context() as patch:
            # a small listing cap drops kept columns between chunks
            if cap is not None:
                patch.setattr(inequalities, "MAX_LISTED_VIOLATIONS", cap)
            pairs = zip(check_coeff_lemmas(grid, tol), table_sweep_reports(grid, tol))
        for got, want in pairs:
            # min_margin's sign of zero included
            assert dumps(got.to_json_dict()) == dumps(want.to_json_dict())

    def test_three_checks_peak_below_one_table(self):
        # the table sweep held three (n_max + 2) x P tables and swept them
        # with table-sized temporaries
        tracemalloc.start()
        try:
            grid = GridSpec.default(n_max=500, step=0.1, lambda_step=0.1)
            check_coeff_lemmas(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points = len(grid_points(grid))
        assert points == 550
        assert peak < (grid.n_max + 2) * points * np.dtype(float).itemsize


class TestReports:
    def test_deterministic_bytes(self):
        grid = GridSpec(
            A_values=(-0.6, -0.1), B_values=(-0.9,), lambda_values=(0.25, 0.75),
            n_max=25, m_max=10,
        )
        first = dumps(lemmas(grid)["weighted"].to_json_dict())
        second = dumps(lemmas(grid)["weighted"].to_json_dict())
        assert first == second

    def test_violation_schema(self):
        grid = GridSpec(
            A_values=(1.0,), B_values=(0.5,), lambda_values=(0.5,),
            n_max=4, allow_positive_A=True,
        )
        report = lemmas(grid)["positivity"]
        doc = report.to_json_dict()
        assert set(doc) == {"checked", "violations", "min_margin"}
        assert doc["violations"], "expected violations outside the proven range"
        assert set(doc["violations"][0]) == {"A", "B", "lambda", "n", "m", "value"}

    def test_violations_are_the_records_printed(self):
        # a listed violation is the JSON record itself, keys in print order
        grid = GridSpec.default(n_max=12, m_max=3, step=0.5, lambda_step=0.5, allow_positive_A=True)
        for report in (*check_coeff_lemmas(grid), check_alternating_identity(0.5, 5, -np.inf)):
            assert report.violations
            for v in report.violations:
                assert type(v) is dict and list(v) == ["A", "B", "lambda", "n", "m", "value"]
            assert report.to_json_dict()["violations"] == list(report.violations)

    def test_a_zero_minimum_reads_plus_zero(self):
        # every minimum on this lattice is 0; for 1 + z (A = 1, B = 0,
        # lambda = 1) the recurrence gives a_2 = 0 and a_3 = -0
        for report in check_coeff_lemmas(GridSpec.default(3, 0, 1, 1, True)):
            assert not report.violations and report.min_margin == 0.0
            assert not np.signbit(report.min_margin)
            assert '"min_margin": 0' in dumps(report.to_json_dict())

    def test_listing_stops_at_the_cap_and_counting_does_not(self, monkeypatch):
        grid = GridSpec.default(n_max=40, m_max=5, step=0.5, lambda_step=0.5, allow_positive_A=True)

        def run_all():
            # the grid's lemma reports list violations at the default tol;
            # tol = -inf makes every finite value of the identity's a violation
            return {**lemmas(grid),
                    "alternating": check_alternating_identity((0.5, 1.0), 20, -np.inf)}

        full = run_all()
        monkeypatch.setattr(inequalities, "MAX_LISTED_VIOLATIONS", 3)
        for name, capped in run_all().items():
            whole = full[name]
            assert len(whole.violations) > 3 and "violations_found" not in whole.to_json_dict()
            assert capped.violations == whole.violations[:3]
            assert capped.found == whole.found == len(whole.violations)
            doc = capped.to_json_dict()
            assert list(doc) == ["checked", "violations", "violations_found", "min_margin"]
            assert doc["violations_found"] == whole.found
            assert capped.min_margin == whole.min_margin and capped.violations
