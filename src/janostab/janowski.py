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
    "CoeffSequence",
    "JanowskiParams",
    "coeff_recurrence",
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
    """Array of binom(lam, k) * c**k for k = 0..n_max via ratio recurrence."""
    if n_max == 0:
        return np.ones(1)
    k = np.arange(1, n_max + 1)
    return np.concatenate(([1.0], np.cumprod(c * (lam - k + 1) / k)))


def _rising_over_factorial(lam: float, c: float, n_max: int) -> np.ndarray:
    """Array of ((lam)_k / k!) * c**k for k = 0..n_max via ratio recurrence."""
    if n_max == 0:
        return np.ones(1)
    k = np.arange(1, n_max + 1)
    return np.concatenate(([1.0], np.cumprod(c * (lam + k - 1) / k)))


def convolution_coeffs(params: JanowskiParams, n_max: int) -> np.ndarray:
    """Coefficients a_0..a_n_max by convolving the two binomial factor series.

    a_n = sum_k binom(lam,k) A**k * ((lam)_{n-k}/(n-k)!) (-B)**(n-k); the
    terms come from the incremental ratio recurrences, never from raw
    factorial quotients.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = _falling_over_factorial(params.lam, params.A, n_max)
    q = _rising_over_factorial(params.lam, -params.B, n_max)
    return np.convolve(p, q)[: n_max + 1]


@dataclass(frozen=True)
class CoeffSequence:
    """Real coefficients a_0..a_N with the parameters recorded."""

    values: np.ndarray
    params: JanowskiParams

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty one-dimensional array")
        if arr[0] != 1.0:
            raise ValueError("a_0 must be exactly 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_max(self) -> int:
        return self.values.size - 1


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
        rows.append(((lead - s * n) * rows[n] - p * (n - 1) * rows[n - 1]) / (n + 1))
    return np.array(rows[: n_max + 1]).T


def coeff_recurrence(params: JanowskiParams, n_max: int) -> CoeffSequence:
    """Coefficients a_0..a_n_max of one parameter point (one row of
    :func:`coeff_table`)."""
    return CoeffSequence(coeff_table(params.A, params.B, params.lam, n_max), params)


def janowski_series(params: JanowskiParams, order: int) -> TruncatedSeries:
    """The coefficient sequence lifted to a truncated series."""
    return TruncatedSeries(coeff_recurrence(params, order).values)
