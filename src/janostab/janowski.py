"""Coefficients and series of the power quotient ((1+Az)/(1+Bz))**lam.

Two independent constructions are provided.  The convolution method
multiplies the binomial series of (1+Az)**lam and (1+Bz)**(-lam) term by
term; the recurrence method integrates the first-order linear ODE the
function satisfies, which gives the three-term relation

    (n+1) a_{n+1} = (lam*(A-B) - (A+B)*n) a_n - A*B*(n-1) a_{n-1}.

The recurrence is the production method: :func:`coeff_table` runs it for
one parameter point, and the pair stream (:class:`PairStream`) runs it
vectorized over whole parameter grids.  The convolution is retained as a
cross-validation oracle (the two must agree to ~1e-10 relative for the
parameter ranges in scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import TruncatedSeries

__all__ = [
    "JanowskiParams",
    "PairStream",
    "coeff_table",
    "convolution_coeffs",
    "janowski_series",
    "next_pair_chunk",
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


def coeff_table(a, b, lam, n_max: int) -> np.ndarray:
    """Coefficients a_0..a_n_max of one parameter point by the three-term
    recurrence in Python floats, with the operations of :func:`_weights`
    and :func:`_run_block` in their order."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a, b, lam = float(a), float(b), float(lam)
    lead, s, p = lam * (a - b), a + b, a * b
    out = [1.0, lead]
    for n in range(1, n_max):
        out.append(((lead - s * n) * out[n] - p * (n - 1) * out[n - 1]) / (n + 1))
    return np.array(out[: n_max + 1])


# Orders per block of the pair recurrence: it runs unscaled inside a block,
# and the block's pairs are rescaled in one pass.
PAIR_BLOCK = 32
# About this many values per chunk of pairs (whole blocks, at least one).
PAIR_CHUNK = 2**14


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


class PairStream:
    """The consecutive coefficient pairs of ``a``, ``b`` and ``lam`` (floats
    or equal-length 1-D arrays) up to column n_max, read chunk by chunk
    with :func:`next_pair_chunk`.  Column j of point i is u = a_{j-1} *
    2**-e and v = a_j * 2**-e (a_{-1} = 0), e putting m = max(|u|, |v|) in
    [0.5, 1) unless both are 0.  The recurrence runs on these pairs, and
    power-of-two scaling is exact, so nothing underflows and every sign is
    exact; where :func:`coeff_table` of point i stays normal, its entries
    are 2**e u, 2**e v.

    The stream holds the parameters' weights, the next order, and buffers
    reused by every chunk (large temporaries, and indexing a row, cost more
    than the arithmetic on it)."""

    def __init__(self, a, b, lam, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.lead, self.s, self.p = lam * (a - b), a + b, a * b
        shape = np.shape(self.lead)
        self.n_max, self.j, self.nd = n_max, 0, len(shape)
        blocks = max(1, PAIR_CHUNK // (PAIR_BLOCK * max(1, int(np.prod(shape)))))
        self.orders = min(blocks, -(-n_max // PAIR_BLOCK)) * PAIR_BLOCK
        # row 0 holds the last pair of the previous chunk, rows 1.. this chunk's
        self.uvm = np.empty((3, self.orders + 1) + shape)
        self.rows = np.empty((PAIR_BLOCK + 2,) + shape)
        self.mags = np.empty((PAIR_BLOCK + 1,) + shape)
        self.prod = np.empty((2,) + shape)
        # (weight of a_{n-1}, weight of a_n) per order, against the rows (a_{n-1}, a_n)
        self.w = np.empty((PAIR_BLOCK, 2) + shape)
        self.e = np.empty((PAIR_BLOCK,) + shape, dtype=np.int32)
        self.row = [self.rows[i, ...] for i in range(PAIR_BLOCK + 2)]
        self.pair = [self.rows[i : i + 2] for i in range(PAIR_BLOCK)]
        self.w_row = [self.w[i] for i in range(PAIR_BLOCK)]
        # nonzero weights lie in [w_lo, w_hi]: |p (n-1)| >= |p|, and a nonzero
        # lead - s n is at least one unit in the last place of the smaller of
        # |lead| and |s n| >= |s|
        wmag = np.abs([self.lead, self.s, self.p])
        self.w_lo = 2.0**-53 * float(np.min(wmag, where=wmag > 0, initial=np.inf))
        self.w_hi = 2.0 * float(np.max(wmag[0] + (wmag[1] + wmag[2]) * n_max, initial=0.0))


def _run_block(st: PairStream, size: int) -> None:
    """The recurrence from the pair in rows 0, 1 through ``size`` orders from
    ``st.j`` into rows 2..: per order one call forms both products on the
    adjacent rows (a_{n-1}, a_n), then they are subtracted and divided by
    n + 1 in place, the operations of :func:`coeff_table` in its order."""
    n0 = st.j - 1
    n = np.arange(n0, n0 + size, dtype=float).reshape((-1,) + (1,) * st.nd)
    _weights(st.lead, st.s, st.p, n, (st.w[:size, 1], st.w[:size, 0]))
    prod, row = st.prod, st.row
    for k in range(size):
        np.multiply(st.w_row[k], st.pair[k], out=prod)
        np.subtract(prod[1], prod[0], out=row[k + 2])
        np.divide(row[k + 2], n0 + k + 1, out=row[k + 2])


def next_pair_chunk(st: PairStream):
    """The next chunk of pairs, ``(j0, u, v, m)``: columns j0, j0 + 1, ... of
    the stream (orders, then points), views of buffers the next call
    overwrites; None past column n_max.  The chunks are the pairs of
    rescaling after every order.

    A chunk holds whole blocks of ``PAIR_BLOCK`` orders, about
    ``PAIR_CHUNK`` values; the first one also holds column 0.  The
    recurrence runs unscaled over each block from the last scaled pair, and
    each block is scaled in one pass; a block whose values or products could
    leave the normal range, where scaling would not commute with rounding,
    is run again one order at a time.
    """
    uvm, rows, mags = st.uvm, st.rows, st.mags
    if st.j == 0:  # column 0: the pair (a_{-1}, a_0) = (0, 1)
        rows[1], rows[2] = 0.0 * st.lead, st.lead**0
        np.abs(rows[1:3], out=mags[:2])
        _scale_pairs(rows[1:3], mags[:2], *uvm[:, :1], st.e[:1])
        first, st.j = 0, 1
    elif st.j > st.n_max:
        return None
    else:
        uvm[:, 0] = uvm[:, -1]
        first = 1
    j0, end = st.j, min(st.j + st.orders, st.n_max + 1)
    exact_to = j0
    while st.j < end:
        size = 1 if st.j < exact_to else min(PAIR_BLOCK, end - st.j)
        r = st.j - j0 + 1
        rows[:2] = uvm[:2, r - 1]
        _run_block(st, size)
        block, block_mags = rows[1 : size + 2], mags[: size + 1]
        np.abs(block, out=block_mags)
        if size > 1 and not _scales_exactly(block_mags, st.w_lo, st.w_hi):
            exact_to = st.j + size  # run these orders again one at a time
            continue
        _scale_pairs(block, block_mags, *uvm[:, r : r + size], st.e[:size])
        st.j += size
    return (j0 - 1 + first, *uvm[:, first : end - j0 + 1])


def janowski_series(params: JanowskiParams, order: int) -> TruncatedSeries:
    """The coefficient sequence lifted to a truncated series."""
    return TruncatedSeries(coeff_table(params.A, params.B, params.lam, order))
