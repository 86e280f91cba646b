"""Coefficient construction: factor series, convolution, recurrence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from janostab.janowski import (
    PAIR_BLOCK,
    PAIR_CHUNK,
    JanowskiParams,
    PairStream,
    _falling_over_factorial,
    coeff_table,
    convolution_coeffs,
    janowski_series,
    next_pair_chunk,
)
from oracles import (
    binomial_series,
    coeff_exact,
    coeff_recurrence_exact,
    coeff_recurrence_scalar,
    multiply,
    partial_sum,
    sequential_coeff_pairs,
)


class TestFactorials:
    """Falling and rising factorials through the factor-series terms
    binom(lam, k) * c**k and (lam)_k / k! * c**k = binom(-lam, k) * (-c)**k
    at c = 1, so each expected value is the factorial divided by k!."""

    def test_falling_empty_product(self):
        assert _falling_over_factorial(0.5, 1.0, 0).tolist() == [1.0]

    def test_falling_two_terms(self):
        assert _falling_over_factorial(0.5, 1.0, 2)[2] == -0.25 / 2

    def test_falling_vanishes_at_integer(self):
        assert _falling_over_factorial(1.0, 1.0, 3)[3] == 0.0

    def test_rising_three_terms(self):
        # (lam)_k / k! * c**k as binom(-lam, k) * (-c)**k
        assert _falling_over_factorial(-0.5, -1.0, 3)[3] == pytest.approx(1.875 / 6, abs=1e-15)

    def test_rising_is_factorial_at_one(self):
        assert _falling_over_factorial(-1.0, -1.0, 4)[4] == 1.0

    def test_rising_single_factor(self):
        assert _falling_over_factorial(-0.3, -1.0, 1)[1] == pytest.approx(0.3, abs=1e-15)

    def test_negative_k_rejected(self):
        params = JanowskiParams(-0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            convolution_coeffs(params, -1)
        with pytest.raises(ValueError):
            coeff_table(params.A, params.B, params.lam, -1)


class TestParams:
    @pytest.mark.parametrize(
        "a,b,lam",
        [
            (-0.5, -0.5, 0.5),  # B == A
            (-0.5, -0.4, 0.5),  # B > A
            (1.2, -1.0, 0.5),  # A > 1
            (0.5, -1.2, 0.5),  # B < -1
            (0.5, -1.0, 0.0),  # lam == 0 (degenerate member rejected)
            (0.5, -1.0, 1.2),  # lam > 1
            (float("nan"), -1.0, 0.5),
        ],
    )
    def test_invalid_rejected(self, a, b, lam):
        with pytest.raises(ValueError):
            JanowskiParams(a, b, lam)

    def test_range_flag(self):
        assert JanowskiParams(-0.1, -0.9, 0.5).base_stable_range
        assert JanowskiParams(0.0, -0.9, 0.5).base_stable_range
        assert not JanowskiParams(0.5, -0.9, 0.5).base_stable_range

    def test_json_dict_uses_lambda_key(self):
        assert JanowskiParams(-0.5, -1.0, 0.5).as_dict() == {
            "A": -0.5,
            "B": -1.0,
            "lambda": 0.5,
        }


PARAM_CASES = [
    (Fraction(-1, 2), Fraction(-1), Fraction(1, 2)),
    (Fraction(-679, 1000), Fraction(-97, 100), Fraction(3, 10)),
    (Fraction(1, 4), Fraction(-3, 4), Fraction(1)),
    (Fraction(1), Fraction(-1), Fraction(1, 5)),
]


class TestConvolution:
    def test_a0_is_one(self):
        assert convolution_coeffs(JanowskiParams(-0.5, -1.0, 0.5), 0)[0] == 1.0

    def test_hand_value_n2(self):
        got = convolution_coeffs(JanowskiParams(-0.5, -1.0, 0.5), 2)[2]
        assert got == pytest.approx(0.21875, abs=1e-15)

    def test_first_coefficient_is_lam_times_gap(self):
        got = convolution_coeffs(JanowskiParams(-0.679, -0.97, 0.3), 1)[1]
        assert got == pytest.approx(0.0873, abs=1e-15)

    @pytest.mark.parametrize("a,b,lam", PARAM_CASES)
    def test_matches_rational_oracle(self, a, b, lam):
        params = JanowskiParams(float(a), float(b), float(lam))
        vals = convolution_coeffs(params, 12)
        for n in range(13):
            exact = float(coeff_exact(a, b, lam, n))
            assert vals[n] == pytest.approx(exact, abs=1e-13 * max(1.0, abs(exact)))


class TestRecurrence:
    def test_hand_step(self):
        a = coeff_table(-0.5, -1.0, 0.5, 2)
        assert a[2] == pytest.approx(((0.25 + 1.5) * 0.25) / 2, abs=1e-16)

    def test_normalization(self):
        assert coeff_table(0.3, -0.2, 0.7, 0).tolist() == [1.0]

    def test_base_member_binomial_closed_form(self):
        # A = 0 reduces to (1+Bz)**(-lam)
        a = coeff_table(0.0, -1.0, 0.5, 30)
        ref = binomial_series(-1.0, -0.5, 30)  # (1-z)^(-1/2)
        assert np.max(np.abs(a - ref.coeffs.real)) < 1e-12
        assert a[2] == pytest.approx(0.375, abs=1e-15)

    def test_lam_one_closed_form(self):
        # lam = 1: a_n = (A-B) * (-B)**(n-1)
        for a, b in ((-0.5, -1.0), (0.3, -0.7)):
            coeffs = coeff_table(a, b, 1.0, 20)
            n = np.arange(1, 21)
            expect = (a - b) * (-b) ** (n - 1)
            assert np.max(np.abs(coeffs[1:] - expect)) < 1e-12

    def test_reciprocal_pair_truncates_to_one(self):
        # ((1+z)/(1-z))**lam times its reciprocal built from binomials
        lam, order = 0.5, 40
        v = janowski_series(JanowskiParams(1.0, -1.0, lam), order)
        recip = multiply(
            binomial_series(-1.0, lam, order), binomial_series(1.0, -lam, order), order
        )
        prod = multiply(v, recip, order).coeffs
        expect = np.zeros(order + 1, dtype=complex)
        expect[0] = 1.0
        assert np.max(np.abs(prod - expect)) < 1e-10

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(-0.999, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    def test_agrees_with_convolution(self, a, gap, lam):
        b = max(a - gap, -1.0)
        if not b < a:
            return
        params = JanowskiParams(a, b, lam)
        rec = coeff_table(a, b, lam, 60)
        conv = convolution_coeffs(params, 60)
        scale = np.maximum(1.0, np.abs(rec))
        assert np.max(np.abs(rec - conv) / scale) < 1e-10


# Parameter points in -1 <= B < A <= 1, 0 < lam <= 1 (B drawn as a gap below A).
PARAM_POINT = st.tuples(
    st.floats(-0.999, 1.0, allow_nan=False),
    st.floats(0.0, 2.0, exclude_min=True, allow_nan=False),
    st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
).map(lambda t: (t[0], max(t[0] - t[1], -1.0), t[2])).filter(lambda t: t[1] < t[0])


# |A|, |B| down to 1e-300 and A = 0: raw coefficients that leave the double
# range within one block of orders
SCALED = st.builds(lambda m, k: m * 10.0**-k, st.floats(1.0, 10.0), st.integers(1, 300))
TINY_POINT = st.tuples(
    st.one_of(st.just(0.0), SCALED, SCALED.map(lambda x: -x)),
    SCALED,
    st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
).map(lambda t: (t[0], t[0] - t[1], t[2])).filter(lambda t: t[1] < t[0])
# where 32-order blocks scaled without a range check differ from the table
HAZARDS = [(0.0, -1e-12, 1.0), (0.0, -1e-100, 0.3)]


class TestCoeffTable:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(PARAM_POINT, min_size=1, max_size=12), st.integers(0, 600))
    def test_rows_match_the_scalar_recurrence(self, points, n_max):
        # pins the operation order: the pair stream makes the same one;
        # TestExactCoefficients bounds the error of that order
        for pa, pb, plam in points:
            row = coeff_table(pa, pb, plam, n_max)
            assert row.shape == (n_max + 1,)
            assert np.array_equal(row, coeff_recurrence_scalar(pa, pb, plam, n_max))

    def test_parameter_arrays_are_rejected(self):
        # one point per call: an array raises rather than give a table
        with pytest.raises(TypeError):
            coeff_table(np.array([-0.5, -0.2]), np.array([-1.0, -0.8]), np.array([0.5, 0.3]), 4)

    def test_one_point_view(self):
        # pins the operation order at a point outside the paper's range
        a = coeff_table(0.4, -0.9, 0.35, 50)
        assert a.shape == (51,)
        assert np.array_equal(a, coeff_recurrence_scalar(0.4, -0.9, 0.35, 50))


def _error_in_bounds(table, exact) -> float:
    """The largest |table[n] - a_n| / |a_n| over (n + 1)**2 eps / 2, eps =
    2**-52, against the exact a_n, over the orders before the first |a_n|
    below 2**-960 (further down the float recurrence leaves the normal
    range); above 1 the bound fails."""
    worst = 0.0
    for n, (got, want) in enumerate(zip(table.tolist(), exact)):
        if abs(want) < Fraction(1, 2**960):
            break
        worst = max(worst, float(abs(Fraction(got) - want) / abs(want)) / ((n + 1) ** 2 * 2.0**-53))
    return worst


# -1 <= B < A <= 0 and 0 < lambda <= 1, with B often within 1e-3 of A, where
# the recurrence's two terms nearly cancel
PAPER_POINT = st.tuples(
    st.floats(-1.0, 0.0, exclude_min=True),
    st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats(1e-12, 1e-3)),
    st.floats(0.0, 1.0, exclude_min=True),
).map(lambda t: (t[0], max(t[0] - t[1], -1.0), t[2])).filter(lambda t: t[1] < t[0])


class TestExactCoefficients:
    """``coeff_table`` against the recurrence in exact rationals at the
    floats' dyadic values: relative error at most (n + 1)**2 eps / 2 at
    order n.  The largest measured share of that bound was 0.22, over
    400 random points of the paper's range to n = 300."""

    # ROADMAP's points; at (-0.75, -1, 1) the table is exact
    @pytest.mark.parametrize(
        "point", [(-0.5, -1.0, 0.5), (-0.2, -0.5, 0.5), (-0.75, -1.0, 1.0), (-0.679, -0.97, 0.3), (-0.05, -0.5, 0.3)]
    )
    def test_five_points_to_order_500(self, point):
        exact = coeff_recurrence_exact(*point, 500)
        assert _error_in_bounds(coeff_table(*point, 500), exact) <= 1.0
        # 9.4e-14 relative at most, measured
        assert all(abs(Fraction(got) - want) <= Fraction(1, 10**13) * want
                   for got, want in zip(coeff_table(*point, 500).tolist(), exact))

    @settings(deadline=None, max_examples=40)
    @given(PAPER_POINT, st.integers(0, 150))
    def test_paper_range_within_the_bound(self, point, n_max):
        assert _error_in_bounds(coeff_table(*point, n_max), coeff_recurrence_exact(*point, n_max)) <= 1.0

    def test_a_perturbed_recurrence_breaks_the_bound(self):
        # a_1 scaled by 1 + 1e-12, or lambda multiplied into A and B one at
        # a time (lam*A - lam*B for lam*(A - B)), which loses digits when B
        # is near A (where A and B lie far apart, the bound does not see it)
        point = (-0.4, -0.4000001, 0.3)
        exact = coeff_recurrence_exact(*point, 60)
        assert _error_in_bounds(coeff_table(*point, 60), exact) <= 1.0
        scaled = coeff_table(*point, 60)
        scaled[1] *= 1.0 + 1e-12
        assert _error_in_bounds(scaled, exact) > 1.0
        a, b, lam = point
        lead, s, p = lam * a - lam * b, a + b, a * b
        out = [1.0, lead]
        for n in range(1, 60):
            out.append(((lead - s * n) * out[n] - p * (n - 1) * out[n - 1]) / (n + 1))
        assert _error_in_bounds(np.array(out), exact) > 1.0


def streamed_pairs(a, b, lam, n_max: int):
    """``(u, v, m)``, one row per point (1-D for floats): the chunks of
    ``next_pair_chunk`` put together, column j of the stream in column j."""
    stream = PairStream(a, b, lam, n_max)
    out = np.empty((3, n_max + 1) + np.shape(stream.lead))
    while (chunk := next_pair_chunk(stream)) is not None:
        j0, *uvm = chunk
        out[:, j0 : j0 + len(uvm[0])] = uvm
    return tuple(x.T for x in out)


class TestCoeffPairs:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(PARAM_POINT, min_size=1, max_size=12), st.integers(0, 600))
    def test_pairs_are_power_of_two_scalings_of_the_table(self, points, n_max):
        a, b, lam = (np.array(col) for col in zip(*points))
        u, v, pair_max = streamed_pairs(a, b, lam, n_max)
        table = np.array([[0.0, *coeff_table(*point, n_max)] for point in points])
        assert u.shape == v.shape == (len(points), n_max + 1)
        scale = np.maximum(np.abs(u), np.abs(v))
        assert np.array_equal(pair_max, scale)
        assert np.all((scale == 0) | ((0.5 <= scale) & (scale < 1.0)))
        for j in range(n_max + 1):
            # wherever the raw coefficients stay normal, u and v are a_{j-1}
            # and a_j (table columns j and j + 1) times one power of two
            normal = np.all(np.abs(table[:, 1 : j + 2]) > 1e-300, axis=1)
            _, e = np.frexp(np.maximum(np.abs(table[:, j]), np.abs(table[:, j + 1])))
            assert np.array_equal(u[normal, j], np.ldexp(table[normal, j], -e[normal]))
            assert np.array_equal(v[normal, j], np.ldexp(table[normal, j + 1], -e[normal]))

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(st.one_of(PARAM_POINT, TINY_POINT, st.sampled_from(HAZARDS)), min_size=1, max_size=8),
        st.one_of(st.sampled_from([0, 1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1]), st.integers(0, 300)),
        st.booleans(),
    )
    @example([HAZARDS[0]], 100, True)
    @example([HAZARDS[1]], 100, False)
    def test_blocks_match_rescaling_after_every_order(self, points, n_max, scalar):
        # bit for bit, signs of zero and the blocks the range check redoes included
        args = points[0] if scalar else [np.array(col) for col in zip(*points)]
        u, v = sequential_coeff_pairs(*args, n_max)
        got = streamed_pairs(*args, n_max)
        for g, w in zip(got, (u, v, np.maximum(np.abs(u), np.abs(v)))):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_exact_zeros_and_deep_decay_keep_their_signs(self):
        # A = 0.5, B = 0, lambda = 1 is 1 + z/2: exact zeros from a_2 on;
        # A = -0.05, B = -0.1, lambda = 0.05 decays below the double range
        u, v, _ = streamed_pairs(np.array([0.5, -0.05]), np.array([0.0, -0.1]), np.array([1.0, 0.05]), 500)
        assert u[0, 0] == 0 and np.all(u[0, 3:] == 0) and np.all(v[0, 2:] == 0)
        assert coeff_table(-0.05, -0.1, 0.05, 500)[-1] == 0.0
        assert np.all(u[1, 1:] > 0) and np.all(v[1] > 0)


class TestPairStream:
    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.one_of(PARAM_POINT, TINY_POINT, st.sampled_from(HAZARDS)), min_size=1, max_size=8),
        st.integers(1, 700),
        st.data(),
    )
    def test_chunks_are_whole_blocks_of_the_table(self, points, size, data):
        # ``size`` points cycled from the drawn ones; beyond 512 points a
        # chunk is one block
        a, b, lam = (np.resize(np.array(col), size) for col in zip(*points))
        orders = PAIR_BLOCK * max(1, PAIR_CHUNK // (PAIR_BLOCK * size))
        edges = [k * orders + d for k in (1, 2) for d in (-1, 0, 1) if k * orders < 700]
        n_max = data.draw(st.sampled_from(edges) if edges else st.integers(0, 300))
        u, v = sequential_coeff_pairs(a, b, lam, n_max)
        stream = PairStream(a, b, lam, n_max)
        end = 0
        while (chunk := next_pair_chunk(stream)) is not None:
            j0, *got = chunk
            assert j0 == end and len(got[0]) == min(orders + (j0 == 0), n_max + 1 - j0)
            cols = slice(j0, j0 + len(got[0]))
            for g, w in zip(got, (u[:, cols], v[:, cols], np.maximum(np.abs(u), np.abs(v))[:, cols])):
                assert np.array_equal(g.view(np.uint64), w.T.view(np.uint64))
            end += len(got[0])
        assert end == n_max + 1

    def test_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            PairStream(-0.5, -1.0, 0.5, -1)


class TestJanowskiSeries:
    def test_order_zero(self):
        assert janowski_series(JanowskiParams(-0.5, -1.0, 0.5), 0).coeffs.tolist() == [1]

    def test_lam_one_hand_values(self):
        got = janowski_series(JanowskiParams(-0.5, -1.0, 1.0), 3)
        assert np.allclose(got.coeffs, [1, 0.5, 0.5, 0.5], rtol=0, atol=1e-15)

    def test_first_order_convolution_method(self):
        got = convolution_coeffs(JanowskiParams(-0.679, -0.97, 0.3), 1)
        assert got[1] == pytest.approx(0.0873, abs=1e-15)
        assert got.dtype == np.float64

    def test_partial_sum_of_longer_series(self):
        full = janowski_series(JanowskiParams(-0.679, -0.97, 0.3), 8)
        head = partial_sum(full, 1)
        assert head.coeffs.size - 1 == 1
        assert np.allclose(head.coeffs, [1.0, 0.0873], rtol=0, atol=1e-15)
