"""Grid verification of coefficient positivity and related inequalities.

Every check sweeps a parameter grid, evaluates one scalar quantity per grid
cell, and reports cells where it drops below ``-tol``.  The coefficient
checks share one table per grid of consecutive coefficient pairs scaled by
powers of two (:func:`~janostab.janowski.coeff_pairs`); a statement at
index n is divided by max(|a_n|, |a_{n+1}|), so it cannot underflow and
``tol`` applies to values of order one.  ``min_margin`` is the minimum over
the grid.  Reports are deterministic: violations are listed
lexicographically by (A, B, lambda) and then by indices.  Every
:class:`InequalityReport`, these and the derivative and product checks of
:mod:`janostab.subordination`, lists at most ``MAX_LISTED_VIOLATIONS`` and
counts every violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .janowski import (
    JanowskiParams,
    _falling_over_factorial,
    coeff_pairs,
)

__all__ = [
    "GridSpec",
    "InequalityReport",
    "InequalityViolation",
    "check_alternating_identity",
    "check_coeff_pair_inequality",
    "check_coeff_positivity",
    "check_weighted_pair_inequality",
]

DEFAULT_TOL = 1e-12
# Violations listed per check; the rest are only counted, so a report stays
# bounded (under 20 MB of JSON per check) however much of a grid fails.
MAX_LISTED_VIOLATIONS = 2**17


def _lattice_size(lo: float, hi: float, step: float) -> float:
    """How many values lo + k*step, k = 0, 1, ..., do not exceed hi, with a
    relative slack of 1e-9 for rounding; a step beyond the range leaves lo
    alone.  A float, so a tiny step gives inf rather than a huge int."""
    if not 0.0 < step < np.inf:
        raise ValueError(f"lattice step must be finite and positive, got {step!r}")
    return float(np.floor(max(hi - lo, 0.0) / step * (1.0 + 1e-9))) + 1.0


def _lattice(lo: float, hi: float, step: float) -> tuple:
    return tuple(round(lo + k * step, 9) for k in range(int(_lattice_size(lo, hi, step))))


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid for the inequality sweeps.

    Pairs (A, B) are kept when -1 <= B < A <= 0; setting
    ``allow_positive_A`` widens the admissible A range to A <= 1.
    """

    A_values: tuple
    B_values: tuple
    lambda_values: tuple
    n_max: int
    m_max: int = 0
    allow_positive_A: bool = False

    def __post_init__(self):
        object.__setattr__(self, "A_values", tuple(sorted(float(v) for v in self.A_values)))
        object.__setattr__(self, "B_values", tuple(sorted(float(v) for v in self.B_values)))
        object.__setattr__(self, "lambda_values", tuple(sorted(float(v) for v in self.lambda_values)))
        if self.n_max < 0 or self.m_max < 0:
            raise ValueError("n_max and m_max must be >= 0")
        for lam in self.lambda_values:
            if not 0.0 < lam <= 1.0:
                raise ValueError(f"lambda values must lie in (0, 1], got {lam!r}")

    @classmethod
    def default(
        cls,
        n_max: int = 500,
        m_max: int = 100,
        step: float = 0.05,
        lambda_step: float = 0.05,
        allow_positive_A: bool = False,
    ) -> "GridSpec":
        """The 0.05-lattice grid: dense enough to catch sign errors, cheap
        enough for routine runs."""
        hi = 1.0 if allow_positive_A else 0.0
        return cls(
            A_values=_lattice(-1.0, hi, step),
            B_values=_lattice(-1.0, hi, step),
            lambda_values=_lattice(lambda_step, 1.0, lambda_step),
            n_max=n_max,
            m_max=m_max,
            allow_positive_A=allow_positive_A,
        )

    @staticmethod
    def default_size(step: float, lambda_step: float, allow_positive_A: bool = False) -> float:
        """An upper bound on the kept points of :meth:`default` from the steps
        alone: k lattice values give at most k(k-1)/2 pairs B < A per lambda."""
        k = _lattice_size(-1.0, 1.0 if allow_positive_A else 0.0, step)
        return k * (k - 1.0) / 2.0 * _lattice_size(lambda_step, 1.0, lambda_step)

    def _point_arrays(self):
        """A, B and lambda of the kept points, in :meth:`iter_params` order."""
        a_vals, b_vals = np.array(self.A_values), np.array(self.B_values)
        a_cap = 1.0 if self.allow_positive_A else 0.0
        ia, ib = np.nonzero((a_vals[:, None] <= a_cap) & (-1.0 <= b_vals) & (b_vals < a_vals[:, None]))
        lam = np.array(self.lambda_values)
        return np.repeat(a_vals[ia], lam.size), np.repeat(b_vals[ib], lam.size), np.tile(lam, ia.size)

    def iter_params(self) -> Iterator[JanowskiParams]:
        """Kept grid points in lexicographic (A, B, lambda) order."""
        for a, b, lam in zip(*self._point_arrays()):
            yield JanowskiParams(a, b, lam)

    @cached_property
    def _pairs(self):
        """The kept points' A, B and lambda, their pairs (a_{j-1}, a_j),
        j <= n_max + 1, and each pair's max(|a_{j-1}|, |a_j|), all scaled."""
        a, b, lam = self._point_arrays()
        return (a, b, lam, *coeff_pairs(a, b, lam, self.n_max + 1))


@dataclass(frozen=True)
class InequalityViolation:
    A: Optional[float]
    B: Optional[float]
    lam: Optional[float]
    n: Optional[int]
    m: Optional[int]
    value: float
    point: Optional[complex] = None

    def to_json_dict(self) -> dict:
        doc = {
            "A": self.A,
            "B": self.B,
            "lambda": self.lam,
            "n": self.n,
            "m": self.m,
            "value": self.value,
        }
        if self.point is not None:
            doc["point"] = {"re": self.point.real, "im": self.point.imag}
        return doc


@dataclass(frozen=True)
class InequalityReport:
    """``violations`` lists the first violations found, ``unlisted`` counts
    the ones found after them."""

    checked: int
    violations: tuple
    min_margin: float
    unlisted: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def found(self) -> int:
        return len(self.violations) + self.unlisted

    def to_json_dict(self) -> dict:
        doc = {"checked": self.checked, "violations": [v.to_json_dict() for v in self.violations]}
        if self.unlisted:
            doc["violations_found"] = self.found
        doc["min_margin"] = self.min_margin
        return doc


def _list_hits(violations: list, hits, violation) -> int:
    """Append ``violation(hit)`` for each of ``hits`` in order until
    ``MAX_LISTED_VIOLATIONS`` are listed; return how many hits are left
    unlisted."""
    listed = hits[: max(MAX_LISTED_VIOLATIONS - len(violations), 0)]
    violations.extend(map(violation, listed))
    return len(hits) - len(listed)


def _sweep(grid: GridSpec, tol, n_lo, n_hi, shift, statement, m_max=None) -> InequalityReport:
    """Report on ``statement(B, u, v, m, n)`` for the kept points, orders
    n_lo <= n < n_hi (pair column n + ``shift``) and m = 0..m_max (no m when
    None), each divided by its pair's max(|a_{j-1}|, |a_j|).  Statements are
    affine in m: only (point, n) columns whose value at m = 0 or m_max lies
    within rounding slack of -tol are evaluated at every m, which lists
    exactly the violations of a full sweep."""
    a, b, lam, u, v, pair_max = grid._pairs
    top = m_max or 0
    n = np.arange(n_lo, n_hi)
    m = np.arange(top + 1)[:, None]
    # 5 roundings of terms <= 3m(n+1) put a value within 7.5 eps m(n+1); twice that bounds a dip
    slack = 16.0 * np.finfo(float).eps * top * (n + 1)
    low_all, violations, unlisted = np.inf, [], 0
    for start in range(0, b.size, 128):  # blocks of points keep temporaries small
        rows, cols = slice(start, start + 128), slice(n_lo + shift, n_hi + shift)
        pb, pu, pv = b[rows, None], u[rows, cols], v[rows, cols]
        # max(|u|, |v|) is in [0.5, 1) but for a pair of zeros, whose statements are 0
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
            unlisted += _list_hits(violations, np.argwhere(vals <= -tol), lambda hit: (
                InequalityViolation(float(a[pt]), float(b[pt]), float(lam[pt]), int(n[k[hit[1]]]),
                                    None if m_max is None else int(hit[0]), float(vals[tuple(hit)]))
            ))
    return InequalityReport(b.size * n.size * (top + 1), tuple(violations), float(low_all), unlisted)


def check_coeff_positivity(grid: GridSpec, tol: float = DEFAULT_TOL) -> InequalityReport:
    """All coefficients a_n must be positive on the grid (n = 0..n_max).
    Divided by max(|a_{n-1}|, |a_n|) (a_{-1} = 0, so a_0 reads 1) it is
    q_{n-1} = a_n / a_{n-1} inside the range."""
    return _sweep(grid, tol, 0, grid.n_max + 1, 0, lambda b, u, v, m, n: v)


def check_alternating_identity(lams, n_max: int, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The alternating convolution of the two factor-series coefficient
    families telescopes to zero for every n >= 1 (it is the coefficient of
    z**n in (1-z)**lam * (1-z)**(-lam) = 1), for each lam in ``lams`` (one
    value or a sequence).  The checked quantity is -|sum|, so any drift
    below -tol is a violation."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    checked, violations, unlisted, low = 0, [], 0, np.inf
    for lam in map(float, np.atleast_1d(lams)):
        if not 0.0 < lam <= 1.0:
            raise ValueError("need 0 < lam <= 1")
        # binom(lam, k) (-1)**k against (lam)_k / k! = binom(-lam, k) (-1)**k
        p, q = (_falling_over_factorial(mu, -1.0, n_max) for mu in (lam, -lam))
        margins = -np.abs(np.convolve(p, q)[1 : n_max + 1])
        unlisted += _list_hits(violations, np.flatnonzero(margins <= -tol), lambda n: (
            InequalityViolation(None, None, lam, int(n) + 1, None, float(margins[n]))
        ))
        checked += margins.size
        low = min(low, margins.min())
    return InequalityReport(checked, tuple(violations), float(low), unlisted)


def check_coeff_pair_inequality(
    grid: GridSpec, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """(n+1)*a_{n+1} + B*n*a_n must stay positive for 1 <= n < n_max.

    This is the z**n coefficient of (1+Bz) * d/dz of the series, whose
    closed form has positive coefficients throughout the kept range.
    Divided by max(|a_n|, |a_{n+1}|) it is (n+1)*q_n + B*n.
    """
    return _sweep(grid, tol, 1, grid.n_max, 1, lambda b, u, v, m, n: b * n * u + (n + 1) * v)


def check_weighted_pair_inequality(
    grid: GridSpec, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """(m+1)*(n+1)*a_{n+1} + B*m*n*a_n >= 0 for 0 <= m <= m_max, 1 <= n <= n_max.

    Decomposes as m*((n+1)a_{n+1} + B*n*a_n) + (n+1)a_{n+1}, so positivity
    of the pair inequality together with coefficient positivity implies it.
    Divided by max(|a_n|, |a_{n+1}|) it is (m+1)*(n+1)*q_n + B*m*n.
    """
    return _sweep(grid, tol, 1, grid.n_max + 1, 1,
                  lambda b, u, v, m, n: b * m * n * u + (m + 1) * (n + 1) * v, grid.m_max)
