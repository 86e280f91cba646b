"""Grid verification of coefficient positivity and related inequalities.

Every check sweeps a parameter grid, evaluates one scalar quantity per grid
cell, and reports cells where it drops below ``-tol``.  The three
coefficient checks run as one pass (:func:`check_coeff_lemmas`) over the
grid's consecutive coefficient pairs scaled by powers of two, streamed in
chunks of a few blocks of orders (:func:`~janostab.janowski.next_pair_chunk`)
that each check reads once; no whole table is built.  A statement at
index n is divided by max(|a_n|, |a_{n+1}|), so it cannot underflow and
``tol`` applies to values of order one.  ``min_margin`` is the minimum over
the grid; a minimum of exactly 0 is reported as +0 whatever the sign of the
zero it came from (that sign depends only on how the pass laid out its
chunks), except for the alternating identity, whose -|sum| reads -0.
Reports are deterministic: violations are listed
lexicographically by (A, B, lambda) and then by indices, each as the JSON
record it is printed as, ``{"A", "B", "lambda", "n", "m", "value"}`` with
``None`` for a parameter or index the check does not have.  Every
:class:`InequalityReport` lists at most ``MAX_LISTED_VIOLATIONS`` and
counts every violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .janowski import PairStream, _falling_over_factorial, next_pair_chunk

__all__ = [
    "GridSpec",
    "InequalityReport",
    "check_alternating_identity",
    "check_coeff_lemmas",
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
        """A, B and lambda of the kept points, sorted by (A, B, lambda)."""
        a_vals, b_vals = np.array(self.A_values), np.array(self.B_values)
        a_cap = 1.0 if self.allow_positive_A else 0.0
        ia, ib = np.nonzero((a_vals[:, None] <= a_cap) & (-1.0 <= b_vals) & (b_vals < a_vals[:, None]))
        lam = np.array(self.lambda_values)
        return np.repeat(a_vals[ia], lam.size), np.repeat(b_vals[ib], lam.size), np.tile(lam, ia.size)


@dataclass(frozen=True)
class InequalityReport:
    """``violations`` lists the first violations found, ``unlisted`` counts
    the ones found after them."""

    checked: int
    violations: tuple
    min_margin: float
    unlisted: int = 0

    @property
    def found(self) -> int:
        return len(self.violations) + self.unlisted

    def to_json_dict(self) -> dict:
        doc = {"checked": self.checked, "violations": list(self.violations)}
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


# The coefficient checks, in report order: each statement f(B, u, v, m, n) on
# the pair (u, v) of column n (positivity) or n + 1, for n_lo <= n < n_max +
# n_end, and whether it runs over m = 0..m_max.
_STATEMENTS = (
    (lambda b, u, v, m, n: v, 0, 1, False),
    (lambda b, u, v, m, n: b * n * u + (n + 1) * v, 1, 0, False),
    (lambda b, u, v, m, n: b * m * n * u + (m + 1) * (n + 1) * v, 1, 1, True),
)


class _Tally:
    """One statement's part of the pass: its running minimum, the
    violations found, and the columns whose violations may still be listed,
    in (point, n) order."""

    def __init__(self, points, statement, n_lo, n_end, with_m, n_max, m_max, tol):
        self.points, self.statement, self.tol = points, statement, tol
        self.m = np.arange(m_max + 1 if with_m else 1)[:, None]
        self.checked = points[1].size * max(n_max + n_end - n_lo, 0) * self.m.size
        self.with_m, self.low, self.found, self.kept = with_m, np.inf, 0, None

    def _values(self, pts, ns, us, vs, scales):
        """The statement at every m (rows) on the columns of points ``pts``
        and orders ``ns``."""
        return np.atleast_2d(self.statement(self.points[1][pts], us, vs, self.m, ns) / scales)

    def add(self, vals, thr, n0: int, u, v, scale) -> None:
        """Take in one chunk's values ``vals`` (orders from n0, then points;
        the minimum over m = 0 and m_max where the statement runs over m):
        their minimum, and the columns at or below ``thr``, each evaluated
        at every m in batches."""
        low = vals.min(initial=np.inf)
        self.low = min(self.low, low)
        if not low <= np.max(thr):
            return
        rows, pts = np.nonzero(vals <= thr)
        cols = (pts, rows + n0, u[rows, pts], v[rows, pts], scale[rows, pts])
        hits = np.empty(pts.size, dtype=np.int64)
        step = max(1, 2**16 // self.m.size)
        for s in range(0, pts.size, step):
            at_m = self._values(*(c[s : s + step] for c in cols))
            self.low = min(self.low, at_m.min())
            hits[s : s + step] = np.count_nonzero(at_m <= -self.tol, axis=0)
        self.found += int(hits.sum())
        has = hits > 0
        self._keep([c[has] for c in (*cols, hits)])

    def _keep(self, cols) -> None:
        """Merge columns with violations into the kept ones, and drop the
        points after the one where the kept violations reach
        ``MAX_LISTED_VIOLATIONS``: no later chunk can list theirs."""
        if self.kept is not None:
            cols = [np.concatenate(pair) for pair in zip(self.kept, cols)]
        order = np.argsort(cols[0], kind="stable")
        cols = [c[order] for c in cols]
        total = np.cumsum(cols[-1])
        if total.size and total[-1] > MAX_LISTED_VIOLATIONS:
            last = cols[0][np.searchsorted(total, MAX_LISTED_VIOLATIONS)]
            cols = [c[: np.searchsorted(cols[0], last, side="right")] for c in cols]
        self.kept = cols

    def report(self) -> InequalityReport:
        """The report: the kept columns' violations listed in (A, B, lambda)
        and then index order, and the minimum with a zero read as +0."""
        a, b, lam = self.points
        violations = []
        if self.kept is not None:
            pts, ns, us, vs, scales, _ = self.kept
            starts = np.flatnonzero(np.diff(pts, prepend=-1))
            for lo, hi in zip(starts, [*starts[1:], pts.size]):
                pt, k = pts[lo], slice(lo, hi)
                vals = self._values(pts[k], ns[k], us[k], vs[k], scales[k])
                _list_hits(violations, np.argwhere(vals <= -self.tol), lambda hit: (
                    {"A": float(a[pt]), "B": float(b[pt]), "lambda": float(lam[pt]), "n": int(ns[lo + hit[1]]),
                     "m": int(hit[0]) if self.with_m else None, "value": float(vals[tuple(hit)])}
                ))
        return InequalityReport(self.checked, tuple(violations), float(self.low + 0.0),
                                self.found - len(violations))


def check_coeff_lemmas(grid: GridSpec, tol: float = DEFAULT_TOL) -> tuple:
    """The positivity, pair and weighted pair reports of the grid, in that
    order, from one pass over its coefficient pairs.  Each statement at
    index n is divided by max(|a_n|, |a_{n+1}|); inside the range, with
    q_n = a_{n+1} / a_n, it reads:

    * positivity: a_n > 0 for 0 <= n <= n_max, divided by
      max(|a_{n-1}|, |a_n|) (a_{-1} = 0, so a_0 reads 1): q_{n-1};
    * pair: (n+1) a_{n+1} + B n a_n > 0 for 1 <= n < n_max, the z**n
      coefficient of (1+Bz) times the derivative of the series:
      (n+1) q_n + B n;
    * weighted pair: (m+1)(n+1) a_{n+1} + B m n a_n >= 0 for
      0 <= m <= m_max and 1 <= n <= n_max, which is m times the pair
      statement plus (n+1) a_{n+1}, so the other two imply it:
      (m+1)(n+1) q_n + B m n.

    The pairs come chunk by chunk (:func:`~janostab.janowski.next_pair_chunk`)
    and each chunk is read once: its scales, and the three statements at
    m = 0 and m = m_max (the weighted one is affine in m, so these bound it
    up to rounding).  Only the columns within rounding slack of -tol are
    evaluated at every m, which finds exactly the violations of a sweep
    over every m; the ones that can still be listed are kept until the
    end.  Memory stays a few chunks and about ``MAX_LISTED_VIOLATIONS``
    columns.
    """
    points = grid._point_arrays()
    b, n_max, top = points[1], grid.n_max, grid.m_max
    b_top = b * top
    # 5 roundings of terms <= 3m(n+1) put a value within 7.5 eps m(n+1); twice that bounds a dip
    slack_per_order = 16.0 * np.finfo(float).eps * top
    tallies = [_Tally(points, *spec, n_max, top, tol) for spec in _STATEMENTS]
    stream = PairStream(*points, n_max + 1)
    bufs = None
    while (chunk := next_pair_chunk(stream)) is not None:
        j0, u, v, pair_max = chunk
        if bufs is None:  # sized by the first chunk, the largest
            bufs = np.empty((4,) + u.shape)
        scale, t, x, y = bufs[:, : len(u)]
        # max(|u|, |v|) is in [0.5, 1) but for a pair of zeros, whose statements are 0
        np.maximum(pair_max, 0.5, out=scale)
        # positivity of a_n, n = j <= n_max
        k = min(len(u), n_max + 1 - j0)
        np.divide(v[:k], scale[:k], out=x[:k])
        tallies[0].add(x[:k], 0.0 - tol, j0, u, v, scale)
        # the pair (n = j - 1 < n_max) and weighted (n = j - 1 <= n_max) statements
        r = max(2 - j0, 0)
        if r >= len(u):
            continue
        j = np.arange(j0 + r, j0 + len(u), dtype=float)[:, None]
        u, v, scale, t, x, y = (c[r:] for c in (u, v, scale, t, x, y))
        np.multiply(j, v, out=t)  # (n + 1) v
        np.multiply(b, j - 1.0, out=x)
        x *= u
        x += t
        x /= scale
        k = min(len(u), n_max + 1 - j0 - r)
        tallies[1].add(x[:k], 0.0 - tol, j0 + r - 1, u, v, scale)
        # the weighted statement at m = m_max, then its minimum with m = 0,
        # which is (n + 1) v up to the sign of a zero: these values only
        # decide the minimum and which columns are evaluated at every m
        np.multiply(b_top, j - 1.0, out=x)
        x *= u
        np.multiply((top + 1) * j, v, out=y)
        x += y
        x /= scale
        np.divide(t, scale, out=y)
        np.minimum(x, y, out=x)
        tallies[2].add(x, slack_per_order * j - tol, j0 + r - 1, u, v, scale)
    return tuple(tally.report() for tally in tallies)


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
            {"A": None, "B": None, "lambda": lam, "n": int(n) + 1, "m": None, "value": float(margins[n])}
        ))
        checked += margins.size
        low = min(low, margins.min())
    return InequalityReport(checked, tuple(violations), float(low), unlisted)
