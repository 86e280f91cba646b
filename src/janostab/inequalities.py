"""Grid verification of coefficient positivity and related inequalities.

Every check sweeps a parameter grid, evaluates one scalar quantity per grid
cell, and reports cells where it drops below ``-tol``.  The grid checks
read their coefficients from one vectorized recurrence call over all kept
points.  The margin convention is uniform: the checked quantity must stay
>= -tol, and ``min_margin`` is its raw minimum over the whole grid.
Reports are deterministic: the same grid always produces the same report,
with violations listed lexicographically by (A, B, lambda) and then by
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .janowski import (
    JanowskiParams,
    _falling_over_factorial,
    _rising_over_factorial,
    coeff_table,
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


def _lattice(lo: float, hi: float, step: float) -> tuple:
    if not 0.0 < step <= hi - lo:
        raise ValueError(f"lattice step must lie in (0, {hi - lo}], got {step!r}")
    count = int(round((hi - lo) / step))
    return tuple(round(lo + k * step, 9) for k in range(count + 1))


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

    def iter_params(self) -> Iterator[JanowskiParams]:
        """Kept grid points in lexicographic (A, B, lambda) order."""
        a_cap = 1.0 if self.allow_positive_A else 0.0
        for a in self.A_values:
            if a > a_cap:
                continue
            for b in self.B_values:
                if not -1.0 <= b < a:
                    continue
                for lam in self.lambda_values:
                    yield JanowskiParams(a, b, lam)


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
    checked: int
    violations: tuple
    min_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [v.to_json_dict() for v in self.violations],
            "min_margin": self.min_margin,
        }


def _grid_table(grid: GridSpec, n_max: int):
    """Kept points in ``iter_params`` order, their B values as a column, and
    their coefficient rows a_0..a_n_max."""
    points = list(grid.iter_params())
    a, b, lam = (np.array([getattr(p, k) for p in points], dtype=float) for k in ("A", "B", "lam"))
    return points, b[:, None], coeff_table(a, b, lam, n_max)


def _table_report(points, vals: np.ndarray, n_offset: int, tol: float) -> InequalityReport:
    """Report on a points x n table; column j holds order j + ``n_offset``."""
    violations = tuple(
        InequalityViolation(
            points[i].A, points[i].B, points[i].lam, int(j) + n_offset, None, float(vals[i, j])
        )
        for i, j in zip(*np.nonzero(vals <= -tol))
    )
    return InequalityReport(vals.size, violations, float(vals.min()) if vals.size else np.inf)


def check_coeff_positivity(grid: GridSpec, tol: float = DEFAULT_TOL) -> InequalityReport:
    """All coefficients a_n must be positive on the grid (n = 0..n_max)."""
    points, _, a = _grid_table(grid, grid.n_max)
    return _table_report(points, a, 0, tol)


def check_alternating_identity(
    lam: float, n_max: int, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """The alternating convolution of the two factor-series coefficient
    families telescopes to zero for every n >= 1 (it is the coefficient of
    z**n in (1-z)**lam * (1-z)**(-lam) = 1).  The checked quantity is
    -|sum|, so any drift below -tol is a violation."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("need 0 < lam <= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = _falling_over_factorial(lam, -1.0, n_max)
    q = _rising_over_factorial(lam, 1.0, n_max)
    sums = np.convolve(p, q)[1 : n_max + 1]
    margins = -np.abs(sums)
    violations = tuple(
        InequalityViolation(None, None, lam, int(n) + 1, None, float(margins[n]))
        for n in np.flatnonzero(margins <= -tol)
    )
    return InequalityReport(int(sums.size), violations, float(margins.min()))


def check_coeff_pair_inequality(
    grid: GridSpec, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """(n+1)*a_{n+1} + B*n*a_n must stay positive for 1 <= n < n_max.

    This is the z**n coefficient of (1+Bz) * d/dz of the series, whose
    closed form has positive coefficients throughout the kept range.
    """
    points, b, a = _grid_table(grid, grid.n_max)
    n = np.arange(1, grid.n_max)
    vals = (n + 1) * a[:, 2:] + b * n * a[:, 1:-1]
    return _table_report(points, vals, 1, tol)


def check_weighted_pair_inequality(
    grid: GridSpec, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """(m+1)*(n+1)*a_{n+1} + B*m*n*a_n >= 0 for 0 <= m <= m_max, 1 <= n <= n_max.

    Decomposes as m*((n+1)a_{n+1} + B*n*a_n) + (n+1)a_{n+1}, so positivity
    of the pair inequality together with coefficient positivity implies it.
    The (m, n) block is built one point at a time, which keeps memory at
    one block instead of points x (m_max+1) x n_max.
    """
    points, _, table = _grid_table(grid, grid.n_max + 1)
    checked = 0
    violations = []
    min_margin = np.inf
    m = np.arange(grid.m_max + 1)[:, None]
    n = np.arange(1, grid.n_max + 1)[None, :]
    weight = (m + 1) * (n + 1)
    for params, a in zip(points, table):
        vals = weight * a[2:] + params.B * m * n * a[1:-1]
        checked += vals.size
        if vals.size:
            min_margin = min(min_margin, float(vals.min()))
        bad_m, bad_n = np.nonzero(vals <= -tol)
        for i, j in zip(bad_m, bad_n):
            violations.append(
                InequalityViolation(
                    params.A,
                    params.B,
                    params.lam,
                    int(j) + 1,
                    int(i),
                    float(vals[i, j]),
                )
            )
    return InequalityReport(checked, tuple(violations), float(min_margin))
