"""Series container, the logarithms of partial sums on the analytic branch
and their powers, the crossing rule, and the series helpers kept in the
test oracles."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from janostab import series
from janostab.janowski import JanowskiParams, janowski_series
from janostab.series import (
    CROSSING_SLACK,
    EPS,
    TruncatedSeries,
    _arcs_meet,
    _circle_points,
    _meets_negative_axis,
    _unit_roots,
    ray_log_values,
)

from oracles import (
    binomial_series,
    coeff_exact,
    crosses_negative_axis,
    crossing_solve,
    derivative,
    evaluate,
    horner,
    multiply,
    partial_sum,
    power_sums,
    root_counted_logs,
    sampled_ray_logs,
)

Z0 = complex(0.915282, -0.357037)

finite_coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_coeff, min_size=1, max_size=8)


def s(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=complex))


def same(f, g) -> bool:
    """Whether two series have the same coefficients, bit for bit."""
    return f.coeffs.tobytes() == g.coeffs.tobytes()


def ray_power(f, p, z):
    """f(z)**p on the branch continued along [0, z], from the continued log."""
    L, failed = ray_log_values(f, np.asarray(z))
    assert not failed
    return complex(np.exp(p * complex(L)))


class TestConstruction:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            s(1.0, float("nan"))
        with pytest.raises(ValueError):
            s(1.0, float("inf"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries(np.array([], dtype=complex))

    def test_coeffs_are_immutable(self):
        f = s(1.0, 2.0)
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_root_in_the_closed_disk(self):
        f = s(1, 2)  # root at -0.5: every point of |z| = 0.5 fails, none inside
        assert ray_log_values(f, _circle_points([0.5], 8))[1].all()
        assert not ray_log_values(f, _circle_points([0.4999], 8))[1].any()


class TestMultiply:
    def test_difference_of_squares(self):
        out = multiply(s(1, 1), s(1, -1), 2)
        assert same(out, s(1, 0, -1))

    def test_binomial_reciprocal_pair_telescopes(self):
        # (1-z)**lam * (1-z)**(-lam) = 1
        lam = 0.7
        prod = multiply(binomial_series(-1.0, lam, 6), binomial_series(-1.0, -lam, 6), 6)
        expect = np.zeros(7, dtype=complex)
        expect[0] = 1.0
        assert np.max(np.abs(prod.coeffs - expect)) < 1e-14

    def test_factor_series_product_matches_rational_convolution(self):
        # (1+Az)**lam * (1+Bz)**(-lam) at (A,B,lam)=(-1/2,-1,1/2)
        prod = multiply(binomial_series(-0.5, 0.5, 2), binomial_series(-1.0, -0.5, 2), 2)
        exact = [
            coeff_exact(Fraction(-1, 2), Fraction(-1), Fraction(1, 2), n)
            for n in range(3)
        ]
        assert exact == [Fraction(1), Fraction(1, 4), Fraction(7, 32)]
        assert np.allclose(prod.coeffs, [float(v) for v in exact], rtol=0, atol=1e-15)

    def test_truncation_beyond_degrees_pads_zero(self):
        out = multiply(s(1, 1), s(1), 3)
        assert same(out, s(1, 1, 0, 0))

    @settings(deadline=None, max_examples=60)
    @given(coeff_lists, coeff_lists)
    def test_commutes(self, a, b):
        # mathematically exact; in floats the two orders sum the same
        # products in reverse, so agreement is to the last ulp or two
        fa, fb = TruncatedSeries(np.array(a)), TruncatedSeries(np.array(b))
        order = len(a) + len(b) - 2
        ab = multiply(fa, fb, order).coeffs
        ba = multiply(fb, fa, order).coeffs
        scale = np.maximum(1.0, np.abs(ab))
        assert np.max(np.abs(ab - ba) / scale) < 1e-15


class TestPartialSum:
    def test_prefix(self):
        assert same(partial_sum(s(1, 2, 3), 1), s(1, 2))

    def test_identity_case(self):
        f = s(1, 2, 3)
        assert same(partial_sum(f, f.coeffs.size - 1), f)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partial_sum(s(1, 2), 2)
        with pytest.raises(ValueError):
            partial_sum(s(1, 2), -1)


class TestDerivativeRelations:
    """Exact coefficient identities linking truncation and differentiation."""

    @pytest.fixture()
    def f(self):
        rng = np.random.default_rng(7)
        return TruncatedSeries(rng.normal(size=12) + 1j * rng.normal(size=12))

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_derivative_of_partial_sum(self, f, n):
        lhs = derivative(partial_sum(f, n))
        rhs = partial_sum(derivative(f), n - 1)
        assert same(lhs, rhs)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_z_times_derivative(self, f, n):
        z = s(0, 1)
        lhs = multiply(z, derivative(partial_sum(f, n)), n)
        rhs = partial_sum(multiply(z, derivative(f), f.coeffs.size - 1), n)
        assert same(lhs, rhs)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_z_squared_times_derivative(self, f, n):
        z2 = s(0, 0, 1)
        lhs = multiply(z2, derivative(partial_sum(f, n)), n)
        rhs = partial_sum(multiply(z2, derivative(f), f.coeffs.size - 1 + 1), n)
        assert same(lhs, rhs)

    def test_derivative_of_constant_is_zero(self):
        assert same(derivative(s(3.5)), s(0))


class TestEvaluate:
    def test_constant_term(self):
        assert evaluate(s(1, 0.0873), 0) == 1.0

    def test_witness_point_matches_plain_horner(self):
        got = evaluate(s(1, 0.0873), Z0)
        assert got == horner([1, 0.0873], Z0)
        assert got == pytest.approx(complex(1.079904, -0.031169), abs=5e-7)

    def test_alternating_sum(self):
        assert evaluate(s(1, -1, 1), 1) == 1.0

    def test_matches_naive_power_accumulation(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=201) + 1j * rng.normal(size=201)
        f = TruncatedSeries(coeffs)
        for z in (0.3 + 0.7j, -0.99, 0.5j, cmath.rect(1.0, 2.2)):
            got = evaluate(f, z)
            ref = power_sums(coeffs, z)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError):
            evaluate(s(1, 2), complex(float("nan"), 0))


class TestBinomialSeries:
    def test_inverse_sqrt_one_minus_z(self):
        out = binomial_series(-1.0, -0.5, 2)
        assert np.allclose(out.coeffs, [1.0, 0.5, 0.375], rtol=0, atol=1e-15)

    def test_zeroth_power(self):
        # c (mu - k + 1) / k with c < 0 and mu = 0 gives -0 at every k >= 1
        assert same(binomial_series(-0.3, 0.0, 3), s(1, -0.0, -0.0, -0.0))

    def test_exact_linear_polynomial(self):
        assert same(binomial_series(-0.5, 1.0, 2), s(1, -0.5, 0))

    def test_rejects_large_ratio(self):
        with pytest.raises(ValueError):
            binomial_series(1.5, 0.5, 3)


class TestRayPower:
    def test_constant_one(self):
        assert ray_power(s(1), 17.3, 0.5 + 0.5j) == 1.0

    def test_degree_one_matches_principal_power(self):
        # 1 + 0.0873*z stays in the right half-plane on the segment to Z0,
        # so the principal power is the analytic branch there.
        f = s(1, 0.0873)
        expect = horner([1, 0.0873], Z0) ** (1.0 / 0.3)
        got = ray_power(f, 1.0 / 0.3, Z0)
        assert abs(got - expect) < 1e-12

    def test_exact_square(self):
        got = ray_power(s(1, -0.5), 2.0, 0.4)
        assert got == pytest.approx(0.64, abs=1e-12)

    def test_analytic_branch_differs_from_principal(self):
        # f = q**4 with q = (1 - mu*z)(1 - conj(mu)*z) is real, with no root
        # in |z| <= 1.05.  Along the ray to z = i its continued logarithm
        # winds past the negative real axis: the continued fourth root is q,
        # while the principal root lands on another branch.  So f meets
        # (-inf, 0] on |z| = 1 and z fails, as no subordination checked
        # here can hold where |Arg f| > pi.
        mu = 0.95 * cmath.exp(1.3j)
        q = [1.0, -2.0 * mu.real, abs(mu) ** 2]
        f = s(*np.polynomial.polynomial.polypow(q, 4))
        continued, ref_failed = root_counted_logs(f.coeffs, [1j])
        assert not ref_failed[0] and abs(continued[0].imag) > np.pi
        assert abs(np.exp(continued[0] / 4) - horner(q, 1j)) < 1e-12
        principal = horner(f.coeffs.tolist(), 1j) ** 0.25
        assert abs(principal - horner(q, 1j)) > 0.5
        L, failed = ray_log_values(f, np.asarray(1j))
        assert failed and np.isnan(L.real)

    def test_branch_failure_on_ray_zero(self):
        L, failed = ray_log_values(s(1, -1), np.asarray(1.0))
        assert failed and np.isnan(L.real)

    def test_branch_failure_at_a_far_root_on_the_ray(self):
        # s_1 vanishes at -18285.7; t*z misses that root by more than 1e-12
        # in rounding, so the test on [0, z] scales with |root|
        f = janowski_series(JanowskiParams(-0.5, -0.501, 0.0546875), 1)
        root = -1.0 / f.coeffs[1].real
        for k in (1.0, 1.5, 2.0):
            L, failed = ray_log_values(f, np.asarray(k * root))
            assert failed and np.isnan(L.real), k
        assert not ray_log_values(f, np.asarray(0.5 * root))[1]

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_power_consistency_identities(self, p):
        # exp of the tracked log reproduces the value, and exponents compose,
        # inside the root-free disk |z| < 0.7867; beyond it every point fails
        rng = np.random.default_rng(3)
        coeffs = np.concatenate([[1.0], 0.4 * rng.normal(size=6) / (1 + np.arange(6))])
        f = TruncatedSeries(coeffs)
        assert 0.78 < 1.0 / np.abs(np.roots(coeffs)).max() < 0.79
        assert ray_log_values(f, np.array([0.8 + 0.3j, -0.6 + 0.6j, 0.95]))[1].all()
        for z in (0.7 + 0.3j, -0.55 + 0.55j, 0.78):
            value = evaluate(f, z)
            L, failed = ray_log_values(f, np.asarray(z))
            assert not failed
            assert abs(np.exp(complex(L)) - value) < 1e-9 * max(1.0, abs(value))
            w_p = ray_power(f, p, z)
            w_minus = ray_power(f, -p, z)
            w_rest = ray_power(f, 1.0 - p, z)
            assert abs(w_p * w_minus - 1.0) < 1e-9
            assert abs(w_p * w_rest - value) < 1e-9 * max(1.0, abs(value))


class TestCircleEngine:
    """The branch rule on circle samples, built by ``_circle_points``."""

    def test_flags_rays_through_zeros(self):
        # (1 - 2z) vanishes at 0.5, exactly on the angle-0 ray: its disk
        # holds the root, so every point of the circle fails
        f = s(1, -2)
        L, failed = ray_log_values(f, _circle_points([0.5], 8))
        assert failed.all()
        assert np.isnan(L.real).all()
        L, failed = ray_log_values(f, _circle_points([0.4999], 8))
        assert not failed.any() and np.isfinite(L).all()

    def test_flags_root_between_ray_samples(self):
        # 1 + 1.17z vanishes at -0.8547, between the samples 0.84375 and
        # 0.8578 of a 64-step theta = pi ray to 0.9, inside all three circles:
        # every point of them fails, and no point of |z| = 0.85
        L, failed = ray_log_values(s(1, 1.17), _circle_points([0.9, 0.99, 0.999], 4096))
        assert failed.all()
        assert np.isnan(L).all()
        L, failed = ray_log_values(s(1, 1.17), _circle_points([0.85], 4096))
        assert not failed.any() and np.isfinite(L).all()

    def test_root_count_sets_the_turns(self):
        # five conjugate root pairs near the negative axis just outside
        # |z| = 0.9: a real series with no root in the disk whose turns, as
        # the root count and a fine ray sampling agree, reach beyond pi on
        # the circle.  So it meets (-inf, 0] there and every sample fails.
        # |s| falls to ~2e-10 on the circle, still above EPS_ZERO.
        roots = [
            0.92 * cmath.exp(1j * sign * (np.pi - a))
            for a in (0.04, 0.08, 0.12, 0.16, 0.2)
            for sign in (1, -1)
        ]
        coeffs = np.polynomial.polynomial.polyfromroots(roots).real
        f = TruncatedSeries(coeffs / coeffs[0])
        pts = _circle_points([0.9], 64)[0]
        ref, ref_failed = root_counted_logs(f.coeffs, pts)
        assert not ref_failed.any() and np.abs(ref.imag).max() > 2 * np.pi
        sampled, sampled_failed, turn = sampled_ray_logs(f.coeffs, pts, steps=4096)
        assert not sampled_failed.any() and turn.max() < np.pi / 4
        assert np.max(np.abs(ref - sampled)) < 1e-12
        L, failed = ray_log_values(f, pts)
        assert failed.all() and np.isnan(L).all()


# Janowski parameter points -1 <= B < A <= 1, 0 < lam <= 1 (B as a gap below A).
JANOWSKI_POINT = st.tuples(
    st.floats(-0.999, 1.0, allow_nan=False),
    st.floats(0.0, 2.0, exclude_min=True, allow_nan=False),
    st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
).map(lambda t: (t[0], max(t[0] - t[1], -1.0), t[2])).filter(lambda t: t[1] < t[0])

# Partial sums s_n, n <= 64: Janowski ones, and random unit-constant vectors.
PARTIAL_SUMS = st.one_of(
    st.tuples(JANOWSKI_POINT, st.integers(1, 64)).map(
        lambda t: janowski_series(JanowskiParams(*t[0]), t[1]).coeffs
    ),
    st.lists(finite_coeff, min_size=1, max_size=64).map(lambda c: np.array([1.0] + c)),
)

TARGETS = st.lists(
    st.tuples(st.floats(0.0, 0.999), st.floats(-np.pi, np.pi)).map(
        lambda t: t[0] * np.exp(1j * t[1])
    ),
    min_size=1,
    max_size=32,
).map(np.array)


class TestSampledReference:
    """The branch rule against a 64-step ray sampler, and its crossings
    against a second crossing test (``oracles.crosses_negative_axis``)."""

    @settings(deadline=None, max_examples=200)
    @given(PARTIAL_SUMS, TARGETS)
    def test_agrees_where_the_sampler_resolves_the_turns(self, coeffs, targets):
        L, failed = ray_log_values(TruncatedSeries(coeffs), targets)
        ref, ref_failed, turn = sampled_ray_logs(coeffs, targets)
        root_inside = np.abs(targets) * np.abs(np.roots(coeffs)).max(initial=0.0) >= 1.0
        assert failed[root_inside].all()
        crossing = [crosses_negative_axis(coeffs, abs(z), 1e-12) for z in targets]
        assert failed[crossing].all()
        near = [crosses_negative_axis(coeffs, abs(z), 1e-6) for z in targets]
        resolved = ~root_inside & ~np.array(near) & ~ref_failed & (turn < np.pi / 4)
        assert not failed[resolved].any()
        assert np.all(np.abs(L - ref)[resolved] <= 1e-12)

    @settings(deadline=None, max_examples=200)
    @given(PARTIAL_SUMS, TARGETS)
    def test_exp_reproduces_the_value(self, coeffs, targets):
        L, failed = ray_log_values(TruncatedSeries(coeffs), targets)
        for z, log, bad in zip(targets, L, failed):
            if not bad:
                value = horner(coeffs, z)
                assert abs(np.exp(log) - value) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("params", [(-0.5, -1.0, 0.5), (0.0, -1.0, 1.0)])
    @pytest.mark.parametrize("n", [128, 256])
    def test_high_degree_janowski_circles(self, params, n):
        # beyond the property test's n <= 64: every ray resolved by a fine
        # sampler, no false failure, on circle samples
        f = janowski_series(JanowskiParams(*params), n)
        pts = _circle_points([0.9, 0.99, 0.999], 512)
        L, failed = ray_log_values(f, pts)
        ref, ref_failed, turn = sampled_ray_logs(f.coeffs, pts, steps=256)
        assert not ref_failed.any() and turn.max() < np.pi / 4
        assert not failed.any()
        assert np.max(np.abs(L - ref)) < 1e-12


class TestCrossingRule:
    """A sample is kept only where s_n does not meet (-inf, 0] on its circle."""

    @settings(deadline=None, max_examples=200)
    @given(PARTIAL_SUMS, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(8, 64))
    def test_no_crossing_means_no_root_and_the_root_counted_branch(self, coeffs, rho, count):
        pts = _circle_points([rho], count)[0]
        L, failed = ray_log_values(TruncatedSeries(coeffs), pts)
        if not failed.any():  # no crossing on |z| = rho, nor |s| < 1e-12
            assert (np.abs(np.roots(coeffs)) * rho < 1.0).all()
            ref, ref_failed = root_counted_logs(coeffs, pts)
            assert not ref_failed.any()
            assert np.abs(L - ref).max() <= 1e-12

    def test_complex_series_is_rejected(self):
        with pytest.raises(ValueError, match="real coefficients"):
            ray_log_values(s(1, 0.5j), np.asarray(0.1))

    @staticmethod
    def scaled(coeffs, rho, gap):
        # a_0 free, or within 1% of sum_(k>=1) |a_k| rho**k: both sides of the bound
        a = np.array(coeffs)
        if gap is not None:
            a[0] = (1.0 + gap) * np.abs(a[1:] * rho ** np.arange(1, a.size)).sum()
        b = a * rho ** np.arange(a.size)
        assume(np.abs(b).max() > 0.0)
        return a, b / np.abs(b).max()

    CIRCLES = (
        st.lists(finite_coeff, min_size=2, max_size=65),
        st.floats(0.0, 1.0, exclude_min=True),
        st.none() | st.floats(-0.01, 0.01),
    )

    @settings(deadline=None, max_examples=300)
    @given(*CIRCLES)
    def test_triangle_bound_settles_only_what_the_solve_settles(self, coeffs, rho, gap):
        a, b = self.scaled(coeffs, rho, gap)
        rest = np.abs(b[1:]).sum()
        if b[0] - rest > CROSSING_SLACK + 4 * (b.size + 2) * EPS * (abs(b[0]) + rest):
            assert not _meets_negative_axis(a, rho)
            assert not crossing_solve(b) and not crosses_negative_axis(a, rho, 1e-12)

    @settings(deadline=None, max_examples=300)
    @given(*CIRCLES)
    def test_arcs_clear_no_circle_an_oracle_flags(self, coeffs, rho, gap):
        # the arcs run on every circle here, also where the triangle bound settles it
        a, b = self.scaled(coeffs, rho, gap)
        flagged = crossing_solve(b) or crosses_negative_axis(a, rho, 1e-12)
        verdict = _arcs_meet(b)
        if verdict and not flagged:
            print(f"the arcs flag a circle the oracles clear: a = {a.tolist()}, rho = {rho!r}")
        assert verdict or not flagged

    @staticmethod
    def decided(monkeypatch, coeffs, rho):
        """The verdict and the (points, circle size) of each arc level."""
        levels = []
        arc_sums = series._arc_sums

        def counted(b3, odd, count):
            levels.append((odd.size, count))
            return arc_sums(b3, odd, count)

        monkeypatch.setattr(series, "_arc_sums", counted)
        return _meets_negative_axis(np.array(coeffs), rho), levels

    @pytest.mark.parametrize(
        "coeffs, rho, points",
        [
            ((1.0, 2.0), 0.75, 0),  # s(-rho) = -0.5, before any arc
            ((1.0, -2.0), 0.75, 0),  # s(rho) = -0.5
            ((0.6, 1.0), 0.6, 0),  # tangent: s(-rho) = 0
            ((0.999, 1.0), 0.999, 0),
            # Im s changes sign where Re s < 0: at pi/2 (s(+-i rho) = -0.215), and near 2.43
            ((1.0, 0.0, 1.5), 0.9, 16 + 4),
            ((1.0, 0.5, 0.0, 0.0, 1.3), 0.97, 32),
        ],
    )
    def test_crossings_are_proven_before_the_cap(self, monkeypatch, coeffs, rho, points):
        verdict, levels = self.decided(monkeypatch, coeffs, rho)
        assert verdict
        assert sum(size for size, _ in levels) == points
        assert all(count < 4 * 2**16 for _, count in levels)

    def test_a_touch_without_a_sign_change_counts_as_a_crossing_at_the_cap(self, monkeypatch):
        # Im s = sin(theta) (cos(theta) + 0.75)**2 >= 0 touches 0 where
        # Re s = -0.035; s(0), s(pi) > 0: no proof, so the arcs there stay open
        verdict, levels = self.decided(monkeypatch, (0.34, 0.8125, 0.75, 0.25), 1.0)
        assert verdict
        assert levels[-1][1] == 4 * 2**16 and sum(size for size, _ in levels) < 2**16


class TestCirclePoints:
    @pytest.mark.parametrize("count", [8, 256, 720, 1024, 4096])
    def test_unit_roots_are_built_once_and_shared_read_only(self, count):
        radii = [0.5, 0.9, 0.999]
        theta = 2.0 * np.pi * np.arange(count) / count
        expect = np.asarray(radii)[:, None] * np.exp(1j * theta)[None, :]
        got = _circle_points(radii, count)
        assert got.tobytes() == expect.tobytes()
        got[...] = 0.0
        again = _circle_points(radii, count)
        assert again.flags.writeable and again.tobytes() == expect.tobytes()
        assert _unit_roots(count) is _unit_roots(count)
        with pytest.raises(ValueError):
            _unit_roots(count)[0] = 0.0
