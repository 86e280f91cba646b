"""Truncated complex power-series arithmetic.

A series here is a Maclaurin polynomial with a fixed truncation order.
Multiplication, partial sums, evaluation and termwise differentiation are
exact coefficient operations.  Analytic real powers track the continuous
logarithm along the straight ray from the origin, so results follow the
branch normalized to the value 1 at z = 0 rather than the pointwise
principal branch (which can jump when the tracked value crosses the
negative real axis).

All values are immutable after construction; every function is pure and
safe to call from concurrent workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BranchFailureError",
    "TruncatedSeries",
    "binomial_series",
    "circle_log_values",
    "derivative",
    "evaluate",
    "multiply",
    "partial_sum",
    "ray_log_values",
    "real_power_on_ray",
]

DEFAULT_RAY_STEPS = 64
EPS_ZERO = 1e-12


class BranchFailureError(ArithmeticError):
    """The tracked value came within ``EPS_ZERO`` of 0, so the continuous
    logarithm (and any power built from it) is undefined along the ray."""


def _require_finite_scalar(z, name: str) -> complex:
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Degree-N Maclaurin polynomial; ``coeffs[k]`` multiplies z**k."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation_order(self) -> int:
        return self.coeffs.size - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and np.array_equal(
            self.coeffs, other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs.tolist()!r})"


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
    if not 0 <= n <= f.truncation_order:
        raise ValueError(
            f"partial sum order {n} out of range [0, {f.truncation_order}]"
        )
    return TruncatedSeries(f.coeffs[: n + 1])


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; a degree-N series maps to degree N-1.

    The derivative of a constant series is the zero series of degree 0.
    """
    if f.truncation_order == 0:
        return TruncatedSeries(np.zeros(1, dtype=np.complex128))
    k = np.arange(1, f.coeffs.size)
    return TruncatedSeries(f.coeffs[1:] * k)


def evaluate(f: TruncatedSeries, z) -> complex:
    """Horner-scheme value of the polynomial at ``z``."""
    z = _require_finite_scalar(z, "z")
    acc = complex(f.coeffs[-1])
    for c in f.coeffs[-2::-1]:
        acc = acc * z + complex(c)
    return acc


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


def _polyval_grid(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Horner evaluation broadcast over an array of points."""
    acc = np.full(pts.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc = acc * pts + c
    return acc


def ray_log_values(f: TruncatedSeries, targets: np.ndarray, steps: int = DEFAULT_RAY_STEPS):
    """Continuous logarithm of ``f`` along straight rays from 0 to each target.

    Samples each ray at ``steps + 1`` points (including the origin), unwraps
    the phase radially, and returns ``(L, failed)`` where ``L`` has the shape
    of ``targets`` and ``exp(L) == f(target)`` on the branch continued from
    the origin.  ``failed`` marks rays on which some sample had modulus below
    ``EPS_ZERO``; the corresponding entries of ``L`` are NaN.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    targets = np.asarray(targets, dtype=np.complex128)
    t = np.linspace(0.0, 1.0, steps + 1).reshape((-1,) + (1,) * targets.ndim)
    vals = _polyval_grid(f.coeffs, t * targets)
    failed = (np.abs(vals) < EPS_ZERO).any(axis=0)
    phase = np.unwrap(np.angle(vals), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log(np.abs(vals[-1])) + 1j * phase[-1]
    if np.any(failed):
        L = np.where(failed, np.nan + 1j * np.nan, L)
    return L, failed


def circle_log_values(f: TruncatedSeries, radii, num_angles: int, steps: int = DEFAULT_RAY_STEPS):
    """Ray-continued logarithm of ``f`` on full equispaced circles.

    The circles share one polar grid: every ray runs from the origin to the
    outermost radius, with sample rows at the requested radii, so the branch
    at radius r_i is the same ray continuation ``ray_log_values`` computes
    point by point.  Rows are evaluated with an FFT when the polynomial
    degree allows it (angles are ``2*pi*k/num_angles``, k = 0..num_angles-1).

    Returns ``(L, failed, rho)``: ``L`` and ``failed`` have shape
    (len(radii), num_angles), ``rho`` holds the radius actually used for
    each requested circle (equal to the request up to one rounding).
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if num_angles < 1:
        raise ValueError("num_angles must be >= 1")
    r_max = max(radii)
    fracs = set(np.linspace(0.0, 1.0, steps + 1).tolist())
    want = [r / r_max for r in radii]
    fracs.update(want)
    frac_arr = np.array(sorted(fracs))
    rho = frac_arr * r_max
    deg = f.truncation_order
    powers = rho[:, None] ** np.arange(deg + 1)[None, :]
    scaled = f.coeffs[None, :] * powers
    if deg < num_angles:
        padded = np.zeros((rho.size, num_angles), dtype=np.complex128)
        padded[:, : deg + 1] = scaled
        vals = num_angles * np.fft.ifft(padded, axis=1)
    else:
        theta = 2.0 * np.pi * np.arange(num_angles) / num_angles
        ring = np.exp(1j * theta)
        vals = _polyval_grid(f.coeffs, rho[:, None] * ring[None, :])
    small = np.abs(vals) < EPS_ZERO
    failed_below = np.logical_or.accumulate(small, axis=0)
    phase = np.unwrap(np.angle(vals), axis=0)
    rows = [int(np.searchsorted(frac_arr, w)) for w in want]
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log(np.abs(vals[rows])) + 1j * phase[rows]
    failed = failed_below[rows]
    if np.any(failed):
        L = np.where(failed, np.nan + 1j * np.nan, L)
    return L, failed, rho[rows]


def real_power_on_ray(
    f: TruncatedSeries, exponent: float, z, steps: int = DEFAULT_RAY_STEPS
) -> complex:
    """Analytic branch of ``f(z) ** exponent`` continued along the ray 0 -> z.

    Requires ``f.coeffs[0] == 1`` so the branch is the one with value 1 at
    the origin.  Raises :class:`BranchFailureError` when the polynomial
    comes within ``EPS_ZERO`` of 0 at any ray sample, which signals the
    power is undefined there.
    """
    if abs(complex(f.coeffs[0]) - 1.0) > 1e-9:
        raise ValueError("constant term must be 1 for a normalized power")
    z = _require_finite_scalar(z, "z")
    L, failed = ray_log_values(f, np.asarray(z), steps=steps)
    if bool(failed):
        raise BranchFailureError(
            f"series value vanished (|value| < {EPS_ZERO:g}) on the ray to {z!r}"
        )
    return complex(np.exp(exponent * complex(L)))
