"""Independent oracles used to freeze expected test values.

Everything here recomputes quantities from first principles (rational
arithmetic, plain complex arithmetic, scalar loops, step-by-step sampling) and never
touches the package implementations beyond the ``TruncatedSeries``
container, so agreement is meaningful cross-validation.  The series helpers
(``multiply``, ``partial_sum``, ``derivative``, ``evaluate``,
``binomial_series``) have no caller in the package and live here for the
tests that build reference series from them.
``sequential_coeff_pairs`` is the renormalised coefficient-pair table
rescaled after every order, and ``table_sweep_reports`` the three
coefficient checks as they ran on that whole table, swept once per check,
with a minimum of 0 reported as +0 (it builds the package's report type,
and reads the grid's points).  ``grid_points`` lists a grid's kept points
as ``JanowskiParams``, in the order the reports list them.
``root_counted_logs`` is the branch rule the
package used before its crossing test: the continued logarithm from the
roots of the series, one ``arctan2`` pass per root; ``crosses_negative_axis``
decides a crossing from the roots of a degree-2n polynomial, and
``crossing_solve`` from the roots of a Chebyshev series (the colleague
eigensolve the package ran before its arc test).
``search_rows_by_round`` is the counterexample search refined one round
per evaluator call; it runs on the evaluator it is given and so checks the
plan of the package's search, not its arithmetic.
``ratio_at`` is no oracle: it is the package's own evaluator at one point,
for tests that compare other callers' values with it bit for bit.
``ratio_reference`` and ``report_reference`` are the stability ratio and a
disk check's worst sample as the package computed them before its
evaluator wrote into preallocated buffers: the reference for their bits.
"""

import cmath
from fractions import Fraction
from math import factorial

import numpy as np
from numpy.polynomial import chebyshev

from janostab import inequalities
from janostab.inequalities import InequalityReport
from janostab.janowski import JanowskiParams, janowski_series
from janostab.series import CROSSING_SLACK, EPS, TruncatedSeries, _circle_points, ray_log_values
from janostab.subordination import _defined, ratio_samples


def falling_exact(lam: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= lam - j
    return out


def rising_exact(lam: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= lam + j
    return out


def coeff_exact(a: Fraction, b: Fraction, lam: Fraction, n: int) -> Fraction:
    """Exact rational convolution coefficient of ((1+Az)/(1+Bz))**lam."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            falling_exact(lam, k)
            / factorial(k)
            * rising_exact(lam, n - k)
            / factorial(n - k)
            * a**k
            * (-b) ** (n - k)
        )
    return total


def alternating_sum_exact(lam: Fraction, n: int) -> Fraction:
    """Exact value of the alternating factor-series convolution (zero for n >= 1)."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            falling_exact(lam, k)
            / factorial(k)
            * rising_exact(lam, n - k)
            / factorial(n - k)
            * (-1) ** k
        )
    return total


def coeff_recurrence_scalar(a: float, b: float, lam: float, n_max: int):
    """The three-term recurrence run for one parameter point with scalar
    arithmetic, in the operation order of ``coeff_table`` and the pair
    stream: the bit-for-bit tests against it pin that order, and
    :func:`coeff_recurrence_exact` bounds its error."""
    out = [1.0, lam * (a - b)][: n_max + 1]
    lead = lam * (a - b)
    s = a + b
    p = a * b
    for n in range(1, n_max):
        out.append(((lead - s * n) * out[n] - p * (n - 1) * out[n - 1]) / (n + 1))
    return out


def coeff_recurrence_exact(a: float, b: float, lam: float, n_max: int) -> list:
    """The three-term recurrence in exact rationals at the exact (dyadic)
    values of the floats ``a``, ``b`` and ``lam``: a_0..a_n_max of
    ((1+Az)/(1+Bz))**lam at those values, as ``Fraction``s."""
    a, b, lam = Fraction(a), Fraction(b), Fraction(lam)
    lead, s, p = lam * (a - b), a + b, a * b
    out = [Fraction(1), lead]
    for n in range(1, n_max):
        out.append(((lead - s * n) * out[n] - p * (n - 1) * out[n - 1]) / (n + 1))
    return out[: n_max + 1]


def sequential_coeff_pairs(a, b, lam, n_max: int):
    """Consecutive coefficient pairs rescaled after every order: the three-term
    recurrence on (a_{j-1}, a_j) (a_{-1} = 0), with both values multiplied by
    the power of two that puts the larger modulus in [0.5, 1) before the next
    order is computed.  Returns ``(u, v)`` with row i for point i."""
    lead = lam * (a - b)
    s = a + b
    p = a * b
    u = np.empty((n_max + 1,) + np.shape(lead))
    v = np.empty_like(u)
    prev, cur = 0.0 * lead, lead**0
    for j in range(n_max + 1):
        if j:
            n = j - 1
            prev, cur = cur, ((lead - s * n) * cur - p * (n - 1) * prev) / (n + 1)
        _, e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        prev = np.ldexp(prev, -e, out=u[j, ...])
        cur = np.ldexp(cur, -e, out=v[j, ...])
    return u.T, v.T


def _table_sweep(points, u, v, pair_max, tol, n_lo, n_hi, shift, statement, m_max=None):
    """Report on ``statement(B, u, v, m, n)`` for the points, orders
    n_lo <= n < n_hi (pair column n + ``shift``) and m = 0..m_max (no m when
    None), each divided by its pair's max(|a_{j-1}|, |a_j|), over blocks of
    128 points.  Only (point, n) columns whose value at m = 0 or m_max lies
    within rounding slack of -tol are evaluated at every m.  A minimum of 0
    reads +0, whichever zero the blocks met first."""
    a, b, lam = points
    top = m_max or 0
    n = np.arange(n_lo, n_hi)
    m = np.arange(top + 1)[:, None]
    slack = 16.0 * np.finfo(float).eps * top * (n + 1)
    low_all, violations, unlisted = np.inf, [], 0
    for start in range(0, b.size, 128):
        rows, cols = slice(start, start + 128), slice(n_lo + shift, n_hi + shift)
        pb, pu, pv = b[rows, None], u[rows, cols], v[rows, cols]
        scale = np.maximum(pair_max[rows, cols], 0.5)
        low = statement(pb, pu, pv, 0, n) / scale
        if top:
            np.minimum(low, statement(pb, pu, pv, top, n) / scale, out=low)
        low_all = min(low_all, low.min(initial=np.inf))
        near = low <= slack - tol
        for i in np.flatnonzero(near.any(axis=1)):
            k, pt = np.flatnonzero(near[i]), start + i
            vals = np.atleast_2d(statement(pb[i], pu[i, k], pv[i, k], m, n[k]) / scale[i, k])
            low_all = min(low_all, vals.min())
            for hit in np.argwhere(vals <= -tol):
                if len(violations) < inequalities.MAX_LISTED_VIOLATIONS:
                    violations.append({
                        "A": float(a[pt]), "B": float(b[pt]), "lambda": float(lam[pt]), "n": int(n[k[hit[1]]]),
                        "m": None if m_max is None else int(hit[0]), "value": float(vals[tuple(hit)])})
                else:
                    unlisted += 1
    return InequalityReport(b.size * n.size * (top + 1), tuple(violations), float(low_all + 0.0), unlisted)


def grid_points(grid) -> list:
    """The grid's kept points, in lexicographic (A, B, lambda) order."""
    return [JanowskiParams(a, b, lam) for a, b, lam in zip(*grid._point_arrays())]


def table_sweep_reports(grid, tol):
    """The positivity, pair and weighted reports of ``grid``: one table of
    scaled pairs (a_{j-1}, a_j), j <= n_max + 1, shared by three sweeps."""
    points = grid._point_arrays()
    u, v = sequential_coeff_pairs(*points, grid.n_max + 1)
    pair_max = np.maximum(np.abs(u), np.abs(v))
    sweep = lambda *args, **kw: _table_sweep(points, u, v, pair_max, tol, *args, **kw)  # noqa: E731
    return (
        sweep(0, grid.n_max + 1, 0, lambda b, u, v, m, n: v),
        sweep(1, grid.n_max, 1, lambda b, u, v, m, n: b * n * u + (n + 1) * v),
        sweep(1, grid.n_max + 1, 1, lambda b, u, v, m, n: b * m * n * u + (m + 1) * (n + 1) * v,
              grid.m_max),
    )


def horner(coeffs, z):
    """Plain-python Horner evaluation."""
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + complex(c)
    return acc


def power_sums(coeffs, z):
    """Naive power-accumulation evaluation (independent of Horner)."""
    acc = 0j
    zp = 1.0 + 0j
    for c in coeffs:
        acc += complex(c) * zp
        zp *= z
    return acc


def multiply(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Cauchy product of two series, truncated at ``order``.

    Coefficients beyond either factor's truncation order are treated as zero.
    Each output coefficient is reduced with numpy's pairwise summation, which
    keeps convolution roundoff near machine level even for long series.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    ca, cb = a.coeffs, b.coeffs
    out = np.zeros(order + 1, dtype=np.complex128)
    for n in range(order + 1):
        lo = max(0, n - (cb.size - 1))
        hi = min(n, ca.size - 1)
        if lo > hi:
            continue
        out[n] = np.sum(ca[lo : hi + 1] * cb[n - hi : n - lo + 1][::-1])
    return TruncatedSeries(out)


def partial_sum(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """First n+1 coefficients of ``f`` as a degree-n series."""
    if not 0 <= n <= f.coeffs.size - 1:
        raise ValueError(
            f"partial sum order {n} out of range [0, {f.coeffs.size - 1}]"
        )
    return TruncatedSeries(f.coeffs[: n + 1])


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; a degree-N series maps to degree N-1.

    The derivative of a constant series is the zero series of degree 0.
    """
    if f.coeffs.size - 1 == 0:
        return TruncatedSeries(np.zeros(1, dtype=np.complex128))
    k = np.arange(1, f.coeffs.size)
    return TruncatedSeries(f.coeffs[1:] * k)


def evaluate(f: TruncatedSeries, z) -> complex:
    """Horner-scheme value of the polynomial at a finite ``z``."""
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z!r}")
    return horner(f.coeffs, z)


def binomial_series(c: float, mu: float, order: int) -> TruncatedSeries:
    """Series of (1 + c*z)**mu, coefficient k = binom(mu, k) * c**k.

    Built by the stable ratio recurrence
    ``coeff[k] = coeff[k-1] * c * (mu - k + 1) / k`` so no large factorial
    quotients ever appear.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not np.isfinite(c) or not np.isfinite(mu):
        raise ValueError("c and mu must be finite")
    if abs(c) > 1.0 + 1e-15:
        raise ValueError(f"|c| must be <= 1, got {c!r}")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = 1.0
    acc = 1.0
    for k in range(1, order + 1):
        acc = acc * c * (mu - k + 1) / k
        out[k] = acc
    return TruncatedSeries(out)


def sampled_ray_logs(coeffs, targets, steps: int = 64):
    """Logarithm of a polynomial continued along each ray 0 -> target by
    sampling: Horner values at ``steps + 1`` equispaced points of the ray,
    with the phase unwrapped from sample to sample.

    Returns ``(L, failed, max_turn)``: ``failed`` marks rays with a sample
    of modulus below 1e-12 (``L`` is NaN there), ``max_turn`` is the largest
    phase change between neighbouring samples.  Where ``max_turn`` is well
    below pi the unwrap cannot have skipped a turn.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    targets = np.asarray(targets, dtype=np.complex128)
    t = np.linspace(0.0, 1.0, steps + 1).reshape((-1,) + (1,) * targets.ndim)
    pts = t * targets
    vals = np.full(pts.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        vals = vals * pts + c
    failed = (np.abs(vals) < 1e-12).any(axis=0)
    phase = np.unwrap(np.angle(vals), axis=0)
    max_turn = np.abs(np.diff(phase, axis=0)).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log(np.abs(vals[-1])) + 1j * phase[-1]
    return np.where(failed, np.nan + 1j * np.nan, L), failed, max_turn


def root_counted_logs(coeffs, targets):
    """The logarithm of a polynomial continued along [0, z] from the origin,
    with its turns counted from the roots: log|s| + i*(Arg s + 2*pi*m),
    where m makes Arg s(z) + 2*pi*m equal Arg s(0) + sum_k Arg(1 - z*w_k)
    over the reciprocal roots w_k (the roots of the coefficients read in
    reverse).  Returns flat ``(L, failed)``; a target fails, with L NaN,
    when some |w_k| * |z| >= 1 (a root in |zeta| <= |z|), when |s(z)| or
    |s(0)| is below 1e-12, or when the root sum lies more than a quarter
    turn from every Arg s(z) + 2*pi*m.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    pts = np.asarray(targets, dtype=np.complex128).ravel()
    vals = np.polynomial.polynomial.polyval(pts, coeffs)
    ws = np.roots(coeffs)
    turns = np.full(pts.shape, np.angle(coeffs[0]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for w in ws:
            turns += np.angle(1.0 - pts * w)
        turns = (turns - np.angle(vals)) / (2.0 * np.pi)
        m = np.rint(turns)
        failed = ~(np.abs(turns - m) <= 0.25)
        failed |= (np.abs(vals) < 1e-12) | (abs(coeffs[0]) < 1e-12)
        failed |= np.abs(pts) * np.abs(ws).max(initial=0.0) >= 1.0
        L = np.log(np.abs(vals)) + 1j * (np.angle(vals) + 2.0 * np.pi * (m + 0.0))
    return np.where(failed, np.nan + 1j * np.nan, L), failed


def crosses_negative_axis(coeffs, rho: float, slack: float) -> bool:
    """Whether the real polynomial s meets (-inf, 0] on |z| = rho, within
    ``slack``.  On |t| = 1, s(rho t) is real exactly where
    t**n * (s(rho t) - s(rho / t)) = sum_k b_k (t**(n+k) - t**(n-k)) vanishes
    (b_k = a_k rho**k / max |b|, without the top terms that sum to less
    than rounding on the circle); a root within ``slack`` of |t| = 1 where
    Re s(rho t) <= slack counts as a crossing.
    """
    a = np.asarray(coeffs, dtype=np.complex128).real
    b = a * rho ** np.arange(a.size)
    b = b / np.abs(b).max()
    b = b[: np.count_nonzero(np.abs(b[::-1]).cumsum()[::-1] > 1e-16 * np.abs(b).sum())]
    n = b.size - 1
    poly = np.zeros(2 * n + 1)  # coefficients of t**0 .. t**(2n)
    poly[n:] += b
    poly[n::-1] -= b
    ts = np.roots(poly[::-1]) if n else np.empty(0)
    ts = np.append(ts[np.abs(np.abs(ts) - 1.0) <= slack], (1.0, -1.0))
    re = np.polynomial.polynomial.polyval(ts / np.abs(ts), b).real
    return bool((re <= slack).any())


def crossing_solve(b) -> bool:
    """Whether s(theta) = sum_k b_k e^(ik theta) (real b, max |b_k| = 1) meets
    (-inf, 0] on the circle, up to ``CROSSING_SLACK``: with x = cos(theta),
    Re s = sum b_k T_k(x) and Im s = sin(theta) sum_(k>=1) b_k U_(k-1)(x), so
    s crosses where Re s <= ``CROSSING_SLACK`` at x = +-1 or at a real root
    of that U series, solved in the T basis by a colleague eigensolve.
    """
    # U_m = 2 (T_m + T_(m-2) + ...), with T_0 once: suffix sums of b[1:] per parity
    d = np.empty(b.size - 1)
    for p in (0, 1):
        d[p::2] = b[1 + p::2][::-1].cumsum()[::-1]
    d[1:] *= 2.0
    # drop a tail below rounding on [-1, 1]: it would swamp the colleague matrix
    tail = np.abs(d[::-1]).cumsum()[::-1]
    d = d[: np.count_nonzero(tail > EPS * tail.sum(initial=0.0))]
    x = chebyshev.chebroots(d) if d.size else np.empty(0)
    near = (np.abs(x.imag) <= CROSSING_SLACK) & (np.abs(x.real) <= 1.0 + CROSSING_SLACK)
    theta = np.arccos(np.append(np.clip(x.real[near], -1.0, 1.0), (-1.0, 1.0)))
    return bool((np.cos(np.outer(theta, np.arange(b.size))) @ b <= CROSSING_SLACK).any())


def search_rows_by_round(stack, params, disk, r, angles, iters, evaluate):
    """The lock-step search of ``janostab.search`` as it ran with one
    evaluator call per refine round, every row's two probes in each: the
    reference for the probe trees.
    ``evaluate`` is the evaluator (``ratio_samples`` or a stand-in with its
    signature).  A row with a bad sample anywhere in a call is dropped with
    the rows above it; the end raises at the first bad sample of the lowest
    row dropped."""
    live, failure = len(stack), None
    rows = np.arange(live)

    def samples(points):
        nonlocal live, failure
        vals, zs, bad = (a.reshape(live, -1) for a in evaluate(stack[:live], params, points))
        if bad.any():
            live = int(np.flatnonzero(bad.any(axis=1))[0])
            failure = vals[live], zs[live], bad[live]
        return disk.margin(vals[:live]), zs[:live], vals[:live]

    margins, zs, vals = samples(np.repeat(_circle_points([r], angles), live, axis=0))
    pick = rows[:live], margins.argmax(axis=1)
    best_m, best_z, best_v = margins[pick], zs[pick], vals[pick]
    theta, step = 2.0 * np.pi * pick[1] / angles, np.pi / angles
    for _ in range(iters):
        if not live:
            break
        probes = theta[:live, None] + (-step, step)
        margins, zs, vals = samples([cmath.rect(r, t) for t in probes.ravel().tolist()])
        pick = rows[:live], margins.argmax(axis=1)
        up = margins[pick] > best_m[:live]
        for best, probe in ((best_m, margins), (best_z, zs), (best_v, vals), (theta, probes)):
            np.copyto(best[:live], probe[pick], where=up)
        step *= 0.5
    if failure is not None:
        _defined(failure)
    return list(zip(best_m.tolist(), best_z.tolist(), best_v.tolist()))


def ratio_at(params, n, z):
    """The stability ratio of s_n at one point z of |z| < 1, as
    ``ratio_samples`` evaluates it in any batch; ``ValueError`` at any other
    z, ``BranchFailureError`` where z fails the branch rule."""
    return _defined(ratio_samples(janowski_series(params, n), params, (z,)))[0][0]


def ratio_reference(series, params, points):
    """``(vals, zs, bad)`` of the stability ratio at flat ``points`` by the
    expression ``(1.0 + B*z) / (1.0 + A*z) * exp(L/lam)`` over
    ``ray_log_values``, each step a new array (L/lam taken as L times
    fl(1/lam), in place, as the package always did); ``ValueError`` at the
    first point not in |z| < 1."""
    zs = np.asarray(points, dtype=complex).ravel()
    outside = ~(np.abs(zs) < 1.0)
    if outside.any():
        raise ValueError(f"sample point z = {complex(zs[outside][0])!r} is not in |z| < 1")
    L, bad = ray_log_values(series, zs)
    with np.errstate(invalid="ignore", over="ignore"):
        L *= 1.0 / params.lam
        vals = (1.0 + params.B * zs) / (1.0 + params.A * zs) * np.exp(L)
    return vals, zs, bad


def report_reference(params, n, disk, radii, grid, tol=1e-6):
    """``(verdict, worst_margin, worst_point, worst_ratio)`` of a disk check
    of s_n against ``disk``: :func:`ratio_reference` on the largest circle of
    ``radii`` and the grid's explicit points, margins |w - center| - radius,
    the max finite margin, ties to the smallest (re, im)."""
    points = np.concatenate([
        _circle_points(radii[-1:], grid.points_per_circle).ravel(),
        np.asarray(grid.extra_points, dtype=complex),
    ])
    vals, zs, bad = ratio_reference(janowski_series(params, n), params, points)
    margins = np.abs(vals - disk.center) - disk.radius
    valid = np.isfinite(margins)
    if not valid.any():
        worst, point, ratio = float("nan"), None, None
    else:
        ties = np.flatnonzero(margins == margins[valid].max())
        k = ties[np.lexsort((zs[ties].imag, zs[ties].real))[0]]
        worst, point, ratio = float(margins[k]), complex(zs[k]), complex(vals[k])
    verdict = "branch_failure" if bad.any() else "pass" if worst <= tol else "violated"
    return verdict, worst, point, ratio
