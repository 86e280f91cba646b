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
The crossing test is a triangle bound, then Taylor bounds on arcs of the
circle, halved where open; it is proven, and errs toward a crossing where
rounding or its cap of 2**16 arcs leaves it open.
The rounding of rho is exact in binary, so the moduli of one circle share
one test and a point's verdict depends on the series and the point alone.
One evaluation takes a stack of series, one per row of points, padded to
its top degree; a single series is the one-row stack, and each row's
values are bit for bit those of its series alone.  It costs (top degree
+ 1) x its points coefficient-samples: each command counts the sum from
its flags, and :func:`check_size`, the one admission rule, bounds it.
Series are immutable but for a cache of verdicts per radius, and the
module keeps a small cache of read-only unit roots per circle size, which
the arcs share (``functools.lru_cache``, which is thread-safe); every
function is safe to call from concurrent workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BranchFailureError",
    "TruncatedSeries",
    "ray_log_values",
]

# The highest series degree the branch test decides, the most sample
# points one evaluation may hold (one n = 32 base check on 2**20 points
# peaks at ~152 MB RSS with numpy 2.4 on x86-64 Linux), and the most
# coefficient-samples one run may evaluate.
MAX_DEGREE = 256
MAX_POINTS = 2**20
MAX_WORK = MAX_DEGREE * MAX_POINTS

EPS_ZERO = 1e-12
EPS = np.finfo(float).eps
RADIUS_GRID = 2.0**30
# (-inf, CROSSING_SLACK] stands for (-inf, 0] (scaled): more failures, never a wrong branch
CROSSING_SLACK = 1e-9


def check_size(degree: int, points: int, work, max_degree: int = MAX_DEGREE) -> None:
    """The one admission rule, run on a command's flags before any
    coefficient is computed: reject a degree above ``max_degree``, more than
    ``MAX_POINTS`` samples in one evaluation, or ``work`` above ``MAX_WORK``."""
    if degree > max_degree:
        name = "series degree" if max_degree == MAX_DEGREE else "order"
        raise ValueError(f"{name} {degree} exceeds {max_degree}")
    if points > MAX_POINTS:
        raise ValueError(f"{points} sample points in one evaluation exceed {MAX_POINTS}")
    if work > MAX_WORK:
        count = f"{work:.0f}" if isinstance(work, float) else work  # a lemma grid's count is a float
        raise ValueError(f"{count} coefficient-samples exceed {MAX_WORK}")


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

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs.tolist()!r})"


def _meets_negative_axis(a: np.ndarray, rho: float) -> bool:
    """Whether s(z) = sum_k a_k z**k (real a_k) meets (-inf, c] on |z| = rho,
    c = ``CROSSING_SLACK``, erring toward a crossing.  With b_k = a_k rho**k
    / max |b| (a non-finite b crosses), N = b.size, S_p = sum_k k**p |b_k|
    and s = sum_k b_k e^(ik theta) on [0, pi] (s(-theta) is its conjugate), in turn:

    1. b_0 - sum_(k>=1) |b_k| > c + 4 (N + 2) eps S_0: Re s > c, as |cos| <= 1
       and the sum and difference round by under (N + 2) eps/2 S_0.
    2. s(0) = sum b_k or s(pi) = sum (-1)**k b_k, real and rounding by under
       N eps/2 S_0, is at most c + 4 (N + 16) eps S_0: a crossing.
    3. M = 2**ceil(log2(4N)) arcs of half-width h = pi/2M about theta_j =
       (2j + 1) h, halved while open; an arc open at M = 2**16 is a crossing.
       On an arc |s - s_j| <= h |s'_j| + (h**2/2) |s''_j| + (h**3/6) S_3
       (Taylor; |s'''| <= S_3); R_j is that bound on the computed s_j, s'_j,
       s''_j, plus m_h.  An arc is cleared where s_j lies farther than R_j
       from (-inf, c].  A crossing is proven where Im s_j of adjacent arcs
       exceed m_h in modulus with opposite signs and Re s_j + R_j <= c on
       both: Re s <= c between their centres, and Im s vanishes there.

    *Margin* m_h = 4 (N + 16) eps (S_0 + h S_1 + h**2 S_2 + h**3 S_3).  With
    exact centres, e^(ik theta_j) = e^(2 pi i m/4M), m = k (2j + 1) mod 4M,
    is a product of two table entries exp(i fl(fl(2 pi) q)/T), T a power of
    two (the second 1 on the first M), each within 6 eps (angle within 4.3
    eps, cos and sin within an ulp, as glibc's), so within 16 eps.  Each
    part of its product with (b_k, k b_k, k**2 b_k) is a real dot product of
    N terms (zero imaginary parts give exact zeros): s_j, s'_j, s''_j are
    within e_p = (16 + 0.73 N) eps S_p in any order, and e_0 + h e_1 +
    (h**2/2) e_2, with a few eps of each term of m_h for the rounding of the
    distance, of R_j and of Re s_j + R_j, stays under m_h/2."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = a * rho ** np.arange(a.size)
        scale = np.abs(b).max()
    if not 0.0 < scale < np.inf:
        return True
    b = b / scale
    rest = np.abs(b[1:]).sum()
    if b[0] - rest > CROSSING_SLACK + 4 * (b.size + 2) * EPS * (abs(b[0]) + rest):
        return False
    return _arcs_meet(b)


def _arcs_meet(b: np.ndarray) -> bool:
    """Steps 2 and 3 of :func:`_meets_negative_axis` on the scaled b."""
    k = np.arange(b.size)
    s0, s1, s2, s3 = (k ** np.arange(4)[:, None] @ np.abs(b)).tolist()
    tol = 4 * (b.size + 16) * EPS
    if min(b.sum(), b[::2].sum() - b[1::2].sum()) <= CROSSING_SLACK + tol * s0:
        return True
    b3 = (k ** np.arange(3)[:, None] * b).T  # s, s'/i and -s'' sum its columns
    M = 1 << (4 * b.size - 1).bit_length()
    odd = np.arange(1, 2 * M, 2)  # the centres pi odd / 2M
    while M <= 2**16:
        h = np.pi / (2 * M)
        margin = tol * (s0 + h * (s1 + h * (s2 + h * s3)))
        s, ds, dds = _arc_sums(b3, odd, 4 * M).T
        R = h * np.abs(ds) + (h * h / 2) * np.abs(dds) + (h**3 / 6 * s3 + margin)
        im = s.imag
        near = np.abs(s - np.minimum(s.real, CROSSING_SLACK)) <= R  # the distance to (-inf, c]
        if not near.any():
            return False
        sure = (s.real + R <= CROSSING_SLACK) & (np.abs(im) > margin)
        if (sure[1:] & sure[:-1] & (im[1:] * im[:-1] < 0) & (odd[1:] - odd[:-1] == 2)).any():
            return True
        odd = np.stack((2 * odd[near] - 1, 2 * odd[near] + 1), axis=1).ravel()
        M *= 2
    return True


def _arc_sums(b3: np.ndarray, odd: np.ndarray, count: int) -> np.ndarray:
    """``e @ b3``, e[j, k] = exp(2 pi i k odd_j / count), in blocks of 2**16 entries."""
    k = np.arange(b3.shape[0])
    first = 4 << (4 * k.size - 1).bit_length()
    shift = (count // first).bit_length() - 1
    roots, low = _unit_roots(first), np.exp(2j * np.pi * np.arange(1 << shift) / count)
    rows = max(1, 2**16 // k.size)
    ms = (np.multiply.outer(odd[i : i + rows], k) & (count - 1) for i in range(0, odd.size, rows))
    return np.concatenate([(roots[m >> shift] * low[m & (low.size - 1)] if shift else roots[m]) @ b3 for m in ms])


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
