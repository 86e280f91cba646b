"""Truncated complex power series and their ray-continued logarithms.

A series here is a Maclaurin polynomial with a fixed truncation order.
Logarithms follow the branch continued along the segment [0, z] from the
origin, not the pointwise principal branch.  It is exact:
s(z) = s(0) * prod_k (1 - z/z_k) over the roots z_k, and each factor's
segment 1 - t*z/z_k, t in [0, 1], starts at 1 and reaches the negative real
axis only through 0, so the continued logarithm is Log s(0) plus
sum_k Log(1 - z/z_k), defined exactly when no root lies on [0, z].

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
    "circle_log_values",
    "ray_log_values",
]

EPS_ZERO = 1e-12
# A winding count further than this from an integer means the computed
# roots do not reproduce the value, so the branch cannot be told.
WINDING_SLACK = 0.25


class BranchFailureError(ArithmeticError):
    """The continued branch is undefined or unresolved on [0, z]: a root of
    s_n lies on the segment (within ``EPS_ZERO`` * max(1, |root|)),
    |s_n| < ``EPS_ZERO``, or the roots are too inaccurate to fix the
    winding.  The continued logarithm, and any power built from it, is then
    not reported."""


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

    @cached_property
    def reciprocal_roots(self) -> np.ndarray:
        """w_k = 1/z_k over the roots z_k: the roots of the coefficients read
        in reverse.  Their companion matrix has entries -c_k/c_0, so it
        cannot overflow when the top coefficients are tiny; a vanished top
        coefficient gives w_k = 0, a root at infinity."""
        roots = np.roots(self.coeffs)
        roots.flags.writeable = False
        return roots


def _root_in_disk(f: TruncatedSeries, rho: float) -> bool:
    """Whether s has a root in |z| <= rho: some |w_k| rho >= 1, exact on the
    computed roots.  If not, its continued log L is analytic on the closed
    disk, and so is g = (1+Bz) exp(L/lam) / (1+Az) - c (|A| rho < 1): by the
    maximum modulus principle |g| - R peaks over the disk on |z| = rho."""
    return bool(np.any(np.abs(f.reciprocal_roots) * rho >= 1.0))


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


def _continued_log(f: TruncatedSeries, pts: np.ndarray, vals: np.ndarray):
    """Continued logarithm ``(L, failed)`` of ``f`` at ``pts`` from its
    values ``vals`` there: log|s| + i*(Arg s + 2*pi*m), where the root sum
    Arg s(0) + sum_k Arg(1 - z/z_k) fixes the turns m.  A point fails (L is
    NaN) when a root z_k lies within ``EPS_ZERO`` * max(1, |z_k|) of [0, z],
    when |s(z)| or |s(0)| is below ``EPS_ZERO``, or when the root sum is
    more than ``WINDING_SLACK`` turns from every Arg s(z) + 2*pi*m."""
    shape = pts.shape
    pts, vals = pts.ravel(), vals.ravel()  # 1-d and contiguous: the passes below work in place
    c0 = f.coeffs[0]
    ws = f.reciprocal_roots
    turns = np.full(pts.shape, np.angle(c0))
    modulus, phase = np.abs(vals), np.angle(vals)
    failed = (modulus < EPS_ZERO) | (abs(c0) < EPS_ZERO)
    factor = np.empty_like(pts)
    arg = np.empty(pts.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for w in ws:  # in place: one root at a time over all the points
            np.multiply(pts, -w, out=factor)
            factor += 1.0
            turns += np.arctan2(factor.imag, factor.real, out=arg)
        # only a root within ``reach`` of 0 can come near a segment; 1.5 times
        # the largest |Re z| or |Im z|, plus 2 EPS_ZERO, bounds reach, so most
        # calls skip |z|**2
        bound = 1.5 * np.abs(pts.view(np.float64)).max(initial=0.0) + 2.0 * EPS_ZERO
        if np.any(np.abs(ws) * bound >= 1.0):
            norm2 = pts.real**2 + pts.imag**2
            # a root z_k is near the segment within EPS_ZERO * max(1, |z_k|):
            # the rounding of t*z grows with |z_k|
            reach = (np.sqrt(norm2.max(initial=0.0)) + EPS_ZERO) / (1.0 - EPS_ZERO)
            # the point of [0, z] nearest the root is t*z, t clipped to [0, 1]
            for root in 1.0 / ws[np.abs(ws) * reach >= 1.0]:
                t = np.clip(np.where(norm2 > 0, (root * pts.conj()).real / norm2, 0.0), 0.0, 1.0)
                failed |= np.abs(root - t * pts) < EPS_ZERO * max(1.0, abs(root))
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


def ray_log_values(f: TruncatedSeries, targets):
    """Continuous logarithm of ``f`` along the segment from 0 to each target.

    Returns ``(L, failed)`` where ``L`` has the shape of ``targets`` and is
    the logarithm of ``f(target)`` on the branch continued from the origin;
    ``failed`` marks the targets where that branch is undefined (see
    :func:`_continued_log`), whose entries of ``L`` are NaN.
    """
    targets = np.asarray(targets, dtype=np.complex128)
    return _continued_log(f, targets, _polyval_grid(f.coeffs, targets))


def circle_log_values(f: TruncatedSeries, radii, num_angles: int):
    """Ray-continued logarithm of ``f`` on full equispaced circles.

    Each requested circle is one row, evaluated with an FFT when the
    polynomial degree allows it (angles are ``2*pi*k/num_angles``,
    k = 0..num_angles-1), with the branch of :func:`ray_log_values`.

    Returns ``(L, failed, pts)``, each of shape (len(radii), num_angles):
    ``pts`` holds the points evaluated, on the radius ``(r / r_max) * r_max``
    (the request up to one rounding).
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if num_angles < 1:
        raise ValueError("num_angles must be >= 1")
    r_max = max(radii)
    rho = np.array([r / r_max for r in radii]) * r_max
    deg = f.truncation_order
    pts = _circle_points(rho, num_angles)
    if deg < num_angles:
        powers = rho[:, None] ** np.arange(deg + 1)[None, :]
        padded = np.zeros((rho.size, num_angles), dtype=np.complex128)
        padded[:, : deg + 1] = f.coeffs[None, :] * powers
        vals = num_angles * np.fft.ifft(padded, axis=1)
    else:
        vals = _polyval_grid(f.coeffs, pts)
    L, failed = _continued_log(f, pts, vals)
    return L, failed, pts

