"""Truncated real power series and the logarithms of their values.

A series is a Maclaurin polynomial of fixed order.  Its values come from
Horner's rule at flat points, its logarithm is log|s| + i*Arg s, kept only
where s, with real coefficients, does not meet (-inf, 0] on |zeta| = rho,
|z| rounded up to a multiple of 2**-30.  Then it is the analytic
logarithm L on |zeta| <= rho continued from the origin:

1. the image of the circle misses (-inf, 0], so it winds 0 times around
   the origin: by the argument principle s has no zero in the disk;
2. Im L, 0 on [0, rho] where s > 0, is never an odd multiple of pi on the
   circle, so |Im L| < pi there and, being harmonic, on the whole disk.

That is the premise of the maximum modulus argument of the disk checks.
The crossing test errs toward a crossing where rounding leaves it open.
The rounding of rho is exact in binary, so the moduli of one circle share
one test and a point's verdict depends on the series and the point alone.
One evaluation takes a stack of series, one per row of points; a single
series is the one-row stack, and each row's values are bit for bit those
of its series alone.
Series are immutable but for a cache of verdicts per radius, and the
module keeps a small cache of read-only unit roots per circle size
(``functools.lru_cache``, which is thread-safe); every function is safe to
call from concurrent workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

__all__ = [
    "BranchFailureError",
    "TruncatedSeries",
    "ray_log_values",
]

# The highest series degree the branch test solves for, and the most
# sample points one evaluation may hold (one n = 32 base check on 2**20
# points peaks at ~152 MB RSS with numpy 2.4 on x86-64 Linux).
MAX_DEGREE = 256
MAX_POINTS = 2**20

EPS_ZERO = 1e-12
EPS = np.finfo(float).eps
RADIUS_GRID = 2.0**30
# Slack off [-1, 1] and above Re s = 0 (scaled): more failures, never a wrong branch
CROSSING_SLACK = 1e-9


def check_size(degree: int, points: int) -> None:
    """Reject a series degree or a per-evaluation sample count beyond the
    limits; callers run it before any series is built."""
    if degree > MAX_DEGREE:
        raise ValueError(f"series degree {degree} exceeds {MAX_DEGREE}")
    if points > MAX_POINTS:
        raise ValueError(f"{points} sample points in one evaluation exceed {MAX_POINTS}")


class BranchFailureError(ArithmeticError):
    """No logarithm or power of s_n is reported at z: s_n meets (-inf, 0] on
    |zeta| = |z|, as with a root in |zeta| <= |z|, or |s_n| < ``EPS_ZERO``."""


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Degree-N Maclaurin polynomial; ``coeffs[k]`` multiplies z**k."""

    coeffs: np.ndarray
    _crossings: dict = field(default_factory=dict, init=False, repr=False)

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
        return isinstance(other, TruncatedSeries) and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs.tolist()!r})"


def _meets_negative_axis(a: np.ndarray, rho: float) -> bool:
    """Whether s(z) = sum_k a_k z**k (real a_k) meets (-inf, 0] on |z| = rho:
    with b_k = a_k rho**k / max |b| and x = cos(theta), Re s = sum b_k T_k(x)
    and Im s = sin(theta) sum_(k>=1) b_k U_(k-1)(x), so s crosses where Re s
    <= 0 at x = +-1 or at a real root of that U series (solved in the T
    basis), both up to ``CROSSING_SLACK``; a non-finite b is a crossing.

    No solve is needed where b_0 - sum_(k>=1) |b_k| > ``CROSSING_SLACK`` +
    4 (b.size + 2) eps sum_k |b_k|: Re s > 0 on the whole circle, and the
    solve would find no crossing either.  Its last step computes Re s =
    sum_k b_k cos(k theta) at theta = 0, pi and each candidate root, where
    cos(0 theta) = 1 exactly and |fl(cos)| <= 1; so each computed value is
    at least b_0 - sum_(k>=1) |b_k| less the dot product's rounding, under
    b.size eps/2 sum |b_k|, and the bound's own sum and difference round by
    as much again.  The margin covers both more than twice over, so every
    value the solve would compare exceeds ``CROSSING_SLACK``."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = a * rho ** np.arange(a.size)
        scale = np.abs(b).max()
    if not 0.0 < scale < np.inf:
        return True
    b = b / scale
    rest = np.abs(b[1:]).sum()
    if b[0] - rest > CROSSING_SLACK + 4 * (b.size + 2) * EPS * (abs(b[0]) + rest):
        return False
    return _crossing_solve(b)


def _crossing_solve(b: np.ndarray) -> bool:
    """The colleague-matrix solve of :func:`_meets_negative_axis` on the
    scaled b."""
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


def _polyval_grid(cols: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Horner's rule for each row of ``pts`` (rows, P), with coefficient k of
    row i at ``cols[k, i]``, out of place on contiguous operands.  A row
    zero-padded above its degree keeps its values bit for bit at finite
    points: (+0, +0) z + (+0) = (+0, +0), and (+0, +0) z + c = (c, +0) is
    the start from its top coefficient c."""
    # one row adds scalars, the cheaper ufunc call, with the same bits
    cols = cols[:, 0] if cols.shape[1] == 1 else np.ascontiguousarray(cols)[..., None]
    acc = np.full(pts.shape, cols[-1])
    for c in cols[-2::-1]:
        acc = acc * pts + c
    return acc


@functools.lru_cache(maxsize=8)
def _unit_roots(count: int) -> np.ndarray:
    """``exp(2*pi*i*k/count)``, k = 0..count-1, built once per ``count`` and
    shared, so read-only."""
    theta = 2.0 * np.pi * np.arange(count) / count
    roots = np.exp(1j * theta)
    roots.flags.writeable = False
    return roots


def _circle_points(radii, count: int) -> np.ndarray:
    """``r * exp(2*pi*i*k/count)``, k = 0..count-1, one row per radius r: a
    new array on each call."""
    return np.asarray(radii, dtype=np.float64)[:, None] * _unit_roots(count)[None, :]


def _principal_log(stack, pts: np.ndarray, vals: np.ndarray):
    """``(L, failed)`` at ``pts`` (rows, P) from ``vals``, each row's series
    of ``stack`` at its row: L = log|s| + i*(Arg s + 0.0), so Arg -0.0 reads
    +0.0; NaN where ``failed`` by the module's rule or |s| < ``EPS_ZERO``.
    ``ValueError`` unless every series is real.  The distinct rounded radii
    are found once per batch, and each series takes its cached verdict at
    each of them, also at radii only other rows hold (the search's rows
    share their points)."""
    rhos = np.ceil(np.fmin(np.abs(pts), np.inf) * RADIUS_GRID) / RADIUS_GRID  # NaN reads inf
    modulus = np.abs(vals)
    failed = modulus < EPS_ZERO
    srt = np.sort(rhos, axis=None)  # its distinct values; np.unique would import numpy.ma
    for rho in np.concatenate((srt[:1], srt[1:][srt[1:] != srt[:-1]])).tolist():
        for i, f in enumerate(stack):
            if rho not in f._crossings:
                if f.coeffs.imag.any():
                    raise ValueError("the branch test needs a series with real coefficients")
                f._crossings[rho] = _meets_negative_axis(f.coeffs.real, rho)
            if f._crossings[rho]:
                failed[i] |= rhos[i] == rho
    L = np.empty_like(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(modulus, out=L.real)
    np.add(np.arctan2(vals.imag, vals.real), 0.0, out=L.imag)  # np.angle, without its wrapper
    L[failed] = complex(np.nan, np.nan)
    return L, failed


def _padded(stack) -> np.ndarray:
    """The coefficients of ``stack`` as columns, zero-padded to the highest
    degree: coefficient k of series i at [k, i] (a view for a lone series)."""
    if len(stack) == 1:
        return stack[0].coeffs[:, None]
    cols = np.zeros((max(f.coeffs.size for f in stack), len(stack)), dtype=np.complex128)
    for i, f in enumerate(stack):
        cols[: f.coeffs.size, i] = f.coeffs
    return cols


def ray_log_values(f, targets):
    """:func:`_principal_log` at ``targets`` by Horner's rule, in the shape of
    ``targets`` (0-d targets give scalars).  ``f`` is one series, or a stack
    (sequence) of series that splits ``targets``, read in C order, into as
    many equal rows, row i evaluated by series i; at finite points each
    row's values are bit for bit those of its series alone."""
    stack = (f,) if isinstance(f, TruncatedSeries) else tuple(f)
    targets = np.asarray(targets, dtype=np.complex128)
    pts = np.ascontiguousarray(targets.reshape(len(stack), -1))
    L, failed = _principal_log(stack, pts, _polyval_grid(_padded(stack), pts))
    return L.reshape(targets.shape)[()], failed.reshape(targets.shape)[()]
