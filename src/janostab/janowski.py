"""Coefficients and series of the power quotient ((1+Az)/(1+Bz))**lam.

Two independent constructions are provided.  The convolution method
multiplies the binomial series of (1+Az)**lam and (1+Bz)**(-lam) term by
term; the recurrence method integrates the first-order linear ODE the
function satisfies, which gives the three-term relation

    (n+1) a_{n+1} = (lam*(A-B) - (A+B)*n) a_n - A*B*(n-1) a_{n-1}.

The recurrence is the production method and runs vectorized over whole
parameter grids; the convolution is retained as a cross-validation oracle
(the two must agree to ~1e-10 relative for the parameter ranges in scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import TruncatedSeries

__all__ = [
    "JanowskiParams",
    "coeff_pairs",
    "coeff_table",
    "convolution_coeffs",
    "janowski_series",
]


@dataclass(frozen=True)
class JanowskiParams:
    """Parameter triple (A, B, lam) with -1 <= B < A <= 1 and 0 < lam <= 1.

    ``base_stable_range`` records whether the stricter range A <= 0 holds,
    the range on which stability against the A=0 base member is established.
    lam = 0 is rejected as degenerate (the function is identically 1).
    """

    A: float
    B: float
    lam: float
    base_stable_range: bool = field(init=False)

    def __post_init__(self):
        a, b, lam = float(self.A), float(self.B), float(self.lam)
        if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(lam)):
            raise ValueError("parameters must be finite")
        if not -1.0 <= b < a <= 1.0:
            raise ValueError(f"need -1 <= B < A <= 1, got A={a!r}, B={b!r}")
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"need 0 < lam <= 1, got lam={lam!r}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "base_stable_range", a <= 0.0)

    def as_dict(self) -> dict:
        return {"A": self.A, "B": self.B, "lambda": self.lam}


def _falling_over_factorial(lam: float, c: float, n_max: int) -> np.ndarray:
    """Array of binom(lam, k) * c**k for k = 0..n_max via ratio recurrence;
    with -lam and -c it is ((lam)_k / k!) * c**k, bit for bit."""
    if n_max == 0:
        return np.ones(1)
    k = np.arange(1, n_max + 1)
    return np.concatenate(([1.0], np.cumprod(c * (lam - k + 1) / k)))


def convolution_coeffs(params: JanowskiParams, n_max: int) -> np.ndarray:
    """Coefficients a_0..a_n_max by convolving the two binomial factor series.

    a_n = sum_k binom(lam,k) A**k * ((lam)_{n-k}/(n-k)!) (-B)**(n-k); the
    terms come from the incremental ratio recurrences, never from raw
    factorial quotients.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = _falling_over_factorial(params.lam, params.A, n_max)
    q = _falling_over_factorial(-params.lam, params.B, n_max)
    return np.convolve(p, q)[: n_max + 1]


def _next_coeff(lead, s, p, n: int, prev, cur):
    """a_{n+1} from a_{n-1} and a_n: the three-term recurrence."""
    return ((lead - s * n) * cur - p * (n - 1) * prev) / (n + 1)


def coeff_table(a, b, lam, n_max: int) -> np.ndarray:
    """Coefficients a_0..a_n_max by the three-term recurrence, for many
    parameter points at once.

    ``a``, ``b`` and ``lam`` are floats or equal-length 1-D arrays.  Row i of
    the result holds the coefficients of point i (a 1-D array for floats);
    each row is bit-identical to the recurrence run for that point alone.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lead = lam * (a - b)
    s = a + b
    p = a * b
    rows = [lead**0, lead]  # a_0 = 1 and a_1, in the shape of the parameters
    for n in range(1, n_max):
        rows.append(_next_coeff(lead, s, p, n, rows[n - 1], rows[n]))
    return np.array(rows[: n_max + 1]).T


def coeff_pairs(a, b, lam, n_max: int):
    """``(u, v)`` shaped like :func:`coeff_table`: u[i, j] = a_{j-1} * 2**-e
    and v[i, j] = a_j * 2**-e (a_{-1} = 0), e putting max(|u|, |v|) in
    [0.5, 1) unless both are 0.  The recurrence runs on these pairs, and
    power-of-two scaling is exact, so nothing underflows and every sign is
    exact; where :func:`coeff_table` stays normal, its entries are 2**e u, 2**e v.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lead = lam * (a - b)
    s = a + b
    p = a * b
    u = np.empty((n_max + 1,) + np.shape(lead))
    v = np.empty_like(u)
    prev, cur = 0.0 * lead, lead**0
    for j in range(n_max + 1):
        if j:
            prev, cur = cur, _next_coeff(lead, s, p, j - 1, prev, cur)
        _, e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        prev = np.ldexp(prev, -e, out=u[j, ...])
        cur = np.ldexp(cur, -e, out=v[j, ...])
    return u.T, v.T


def janowski_series(params: JanowskiParams, order: int) -> TruncatedSeries:
    """The coefficient sequence lifted to a truncated series."""
    return TruncatedSeries(coeff_table(params.A, params.B, params.lam, order))
