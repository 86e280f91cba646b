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


def _weights(lead, s, p, n, out=(None, None)):
    """lead - s*n and p*(n-1): the weights of a_n and a_{n-1} in (n+1) a_{n+1}."""
    w_cur = np.subtract(lead, np.multiply(s, n, out=out[0]), out=out[0])
    return w_cur, np.multiply(p, n - 1, out=out[1])


def _next_coeff(w, n: int, prev, cur, out=None):
    """a_{n+1} from a_{n-1}, a_n and their weights ``w`` at n: the three-term
    recurrence, computed in ``out`` when given (a ufunc call on floats costs
    more than the arithmetic)."""
    nxt = w[0] * cur if out is None else np.multiply(w[0], cur, out=out)
    nxt -= w[1] * prev
    nxt /= n + 1
    return nxt


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
    n = np.arange(1.0, n_max).reshape((-1,) + (1,) * np.ndim(lead))
    for k, w in enumerate(zip(*_weights(lead, s, p, n)), start=1):
        rows.append(_next_coeff(w, k, rows[k - 1], rows[k]))
    return np.array(rows[: n_max + 1]).T


# Orders per block of coeff_pairs: the recurrence runs unscaled inside a
# block, and its pairs are rescaled once per block.
PAIR_BLOCK = 32


def _scales_exactly(mags, w_lo, w_hi) -> bool:
    """Whether a block of unscaled values with moduli ``mags``, started from
    a scaled pair, scales to the pairs of rescaling after every order, for
    weights whose nonzero moduli lie in [w_lo, w_hi].

    Rescaled after every order, each value is its unscaled self times 2**-f
    with 2**f <= 2 max(1, hi), hi the largest modulus; so at either scale a
    nonzero value is at least lo / (2 max(1, hi)), lo the smallest nonzero
    modulus, and a nonzero product with a weight at least w_lo times that.
    While these bounds, and w_hi max(1, hi), lie in [2**-900, 2**900], every
    product, difference (a multiple of 2**-952) and quotient by n + 1 < 2**60
    is normal at both scales, where power-of-two scaling commutes with
    rounding.  NaN or infinite values fail the test.
    """
    hi = max(float(mags.max(initial=0.0)), 1.0)  # Python floats: no warning on inf or NaN
    lo = float(mags.min(initial=np.inf))
    if lo == 0.0:
        lo = float(np.min(mags, where=mags > 0, initial=np.inf))
    return min(1.0, w_lo) * lo / (2.0 * hi) >= 2.0**-900 and w_hi * hi <= 2.0**900


def _scale_pairs(rows, mags, u, v, m, e) -> None:
    """u, v = the pairs (rows[i], rows[i+1]) times the power of two putting
    m = max(|u|, |v|) in [0.5, 1); ``mags`` is abs(rows), ``e`` scratch for
    the exponents."""
    np.maximum(mags[:-1], mags[1:], out=m)
    np.frexp(m, out=(m, e))
    np.negative(e, out=e)
    np.ldexp(rows[:-1], e, out=u)
    np.ldexp(rows[1:], e, out=v)


def coeff_pairs(a, b, lam, n_max: int):
    """``(u, v, m)`` shaped like :func:`coeff_table`: u[i, j] = a_{j-1} * 2**-e
    and v[i, j] = a_j * 2**-e (a_{-1} = 0), e putting m = max(|u|, |v|) in
    [0.5, 1) unless both are 0.  The recurrence runs on these pairs, and
    power-of-two scaling is exact, so nothing underflows and every sign is
    exact; where :func:`coeff_table` stays normal, its entries are 2**e u, 2**e v.

    The tables are those of rescaling after every order.  The recurrence runs
    unscaled over blocks of ``PAIR_BLOCK`` orders from the last scaled pair,
    and each block is scaled in one pass; a block whose values or products
    could leave the normal range, where scaling would not commute with
    rounding, is run again one order at a time.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lead = lam * (a - b)
    s = a + b
    p = a * b
    shape = np.shape(lead)
    u, v, m = (np.empty((n_max + 1,) + shape) for _ in range(3))
    # every block works in these buffers, and in views of their rows made
    # once: large temporaries, and indexing a row, cost more than the
    # arithmetic on it
    rows = np.empty((PAIR_BLOCK + 2,) + shape)
    mags = np.empty((PAIR_BLOCK + 1,) + shape)
    w = np.empty((2, PAIR_BLOCK) + shape)
    e = np.empty((PAIR_BLOCK,) + shape, dtype=np.int32)
    row = [rows[i, ...] for i in range(PAIR_BLOCK + 2)]
    w_row = [(w[0, i, ...], w[1, i, ...]) for i in range(PAIR_BLOCK)]
    rows[1], rows[2] = 0.0 * lead, lead**0  # a_{-1} and a_0
    np.abs(rows[1:3], out=mags[:2])
    _scale_pairs(rows[1:3], mags[:2], u[:1], v[:1], m[:1], e[:1])
    # nonzero weights lie in [w_lo, w_hi]: |p (n-1)| >= |p|, and a nonzero
    # lead - s n is at least one unit in the last place of the smaller of
    # |lead| and |s n| >= |s|
    wmag = np.abs([lead, s, p])
    w_lo = 2.0**-53 * float(np.min(wmag, where=wmag > 0, initial=np.inf))
    w_hi = 2.0 * float(np.max(wmag[0] + (wmag[1] + wmag[2]) * n_max, initial=0.0))
    j, exact_to = 1, 1
    while j <= n_max:
        size = 1 if j < exact_to else min(PAIR_BLOCK, n_max + 1 - j)
        n = np.arange(j - 1.0, j - 1 + size).reshape((-1,) + (1,) * len(shape))
        _weights(lead, s, p, n, w[:, :size])
        rows[0], rows[1] = u[j - 1], v[j - 1]
        for k in range(size):
            _next_coeff(w_row[k], j - 1 + k, row[k], row[k + 1], row[k + 2])
        block, block_mags = rows[1 : size + 2], mags[: size + 1]
        np.abs(block, out=block_mags)
        if size > 1 and not _scales_exactly(block_mags, w_lo, w_hi):
            exact_to = j + size  # run these orders again one at a time
            continue
        orders = slice(j, j + size)
        _scale_pairs(block, block_mags, u[orders], v[orders], m[orders], e[:size])
        j += size
    return u.T, v.T, m.T


def janowski_series(params: JanowskiParams, order: int) -> TruncatedSeries:
    """The coefficient sequence lifted to a truncated series."""
    return TruncatedSeries(coeff_table(params.A, params.B, params.lam, order))
