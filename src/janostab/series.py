"""Truncated complex power series and their ray-continued logarithms.

A series here is a Maclaurin polynomial with a fixed truncation order.
Every value is evaluated one way, by :func:`ray_log_values` at flat points
(circle samples come from :func:`_circle_points`).  Logarithms follow the
branch continued along the segment [0, z] from the origin, not the
pointwise principal branch.  It is taken only where it is analytic:
s(z) = s(0) * prod_k (1 - z/z_k) over the roots z_k = 1/w_k, and a point
z fails unless every |w_k| * |z| < 1, i.e. s has no root in |zeta| <= |z|.
Then each factor 1 - zeta/z_k stays in the right half-plane on that disk,
so the continued logarithm is Log s(0) plus sum_k Log(1 - z/z_k), the
analytic one on the disk.

All values are immutable after construction (a series computes its roots
once, on first use); every function is pure and safe to call from
concurrent workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BranchFailureError",
    "TruncatedSeries",
    "ray_log_values",
]

EPS_ZERO = 1e-12
# A winding count further than this from an integer means the computed
# roots do not reproduce the value, so the branch cannot be told.
WINDING_SLACK = 0.25


class BranchFailureError(ArithmeticError):
    """The continued branch is undefined or unresolved at z: s_n has a root
    in |zeta| <= |z|, |s_n| < ``EPS_ZERO``, or the roots are too inaccurate
    to fix the winding.  The continued logarithm, and any power built from
    it, is then not reported."""


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

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and np.array_equal(
            self.coeffs, other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs.tolist()!r})"

    @cached_property
    def reciprocal_roots(self) -> np.ndarray:
        """w_k = 1/z_k over the roots z_k: the roots of the coefficients read
        in reverse.  Their companion matrix has entries -c_k/c_0, so it
        cannot overflow when the top coefficients are tiny; a vanished top
        coefficient gives w_k = 0, a root at infinity."""
        roots = np.roots(self.coeffs)
        roots.flags.writeable = False
        return roots


def _polyval_grid(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Horner evaluation broadcast over an array of points."""
    acc = np.full(pts.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc = acc * pts + c
    return acc


def _circle_points(radii, count: int) -> np.ndarray:
    """``r * exp(2*pi*i*k/count)``, k = 0..count-1, one row per radius r."""
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.asarray(radii, dtype=np.float64)[:, None] * np.exp(1j * theta)[None, :]


def ray_log_values(f: TruncatedSeries, targets):
    """Continuous logarithm of ``f`` along the segment from 0 to each target.

    Returns ``(L, failed)`` where ``L`` has the shape of ``targets`` and is
    the logarithm of ``f(target)`` on the branch continued from the origin:
    log|s| + i*(Arg s + 2*pi*m), with s evaluated by Horner's rule and the
    turns m fixed by the root sum Arg s(0) + sum_k Arg(1 - z/z_k).
    ``failed`` marks the targets where that branch is undefined, and ``L``
    is NaN there: when some reciprocal root has |w_k| * |z| >= 1 (exact on
    the computed roots), i.e. ``f`` has a root in |zeta| <= |target|, when
    |s(z)| or |s(0)| is below ``EPS_ZERO``, or when the root sum is more
    than ``WINDING_SLACK`` turns from every Arg s(z) + 2*pi*m.

    Where no point of |zeta| <= rho fails, L is analytic on that closed disk,
    and so is g = (1+Bz) exp(L/lam) / (1+Az) - c (|A| rho < 1): by the
    maximum modulus principle |g| - R peaks over the disk on |z| = rho."""
    targets = np.asarray(targets, dtype=np.complex128)
    shape = targets.shape
    pts = targets.ravel()  # 1-d and contiguous: the passes below work in place
    vals = _polyval_grid(f.coeffs, pts)
    c0 = f.coeffs[0]
    ws = f.reciprocal_roots
    turns = np.full(pts.shape, np.angle(c0))
    modulus, phase = np.abs(vals), np.angle(vals)
    failed = (modulus < EPS_ZERO) | (abs(c0) < EPS_ZERO)
    failed |= np.abs(pts) * np.abs(ws).max(initial=0.0) >= 1.0  # a root in |zeta| <= |z|
    factor = np.empty_like(pts)
    arg = np.empty(pts.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for w in ws:  # in place: one root at a time over all the points
            np.multiply(pts, -w, out=factor)
            factor += 1.0
            turns += np.arctan2(factor.imag, factor.real, out=arg)
        turns -= phase
        turns /= 2.0 * np.pi
        m = np.rint(turns)
        turns -= m
        failed |= ~(np.abs(turns, out=turns) <= WINDING_SLACK)
        # integer turns: a zero turn adds +0.0, never the -0.0 that rint
        # gives for a tiny negative sum
        m += 0.0
        m *= 2.0 * np.pi
        L = np.empty_like(pts)
        np.log(modulus, out=L.real)
        np.add(phase, m, out=L.imag)
    if failed.any():
        L[failed] = np.nan + 1j * np.nan
    return L.reshape(shape)[()], failed.reshape(shape)[()]  # 0-d targets give scalars
