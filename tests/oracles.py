"""Independent oracles used to freeze expected test values.

Everything here recomputes quantities from first principles (rational
arithmetic, plain cmath, scalar loops) and never touches the package implementations,
so agreement is meaningful cross-validation.
"""

from fractions import Fraction
from math import factorial


def falling_exact(lam: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= lam - j
    return out


def rising_exact(lam: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= lam + j
    return out


def coeff_exact(a: Fraction, b: Fraction, lam: Fraction, n: int) -> Fraction:
    """Exact rational convolution coefficient of ((1+Az)/(1+Bz))**lam."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            falling_exact(lam, k)
            / factorial(k)
            * rising_exact(lam, n - k)
            / factorial(n - k)
            * a**k
            * (-b) ** (n - k)
        )
    return total


def alternating_sum_exact(lam: Fraction, n: int) -> Fraction:
    """Exact value of the alternating factor-series convolution (zero for n >= 1)."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            falling_exact(lam, k)
            / factorial(k)
            * rising_exact(lam, n - k)
            / factorial(n - k)
            * (-1) ** k
        )
    return total


def coeff_recurrence_scalar(a: float, b: float, lam: float, n_max: int):
    """The three-term recurrence run for one parameter point with scalar
    arithmetic: the reference the vectorized table must match bit for bit."""
    out = [1.0, lam * (a - b)][: n_max + 1]
    lead = lam * (a - b)
    s = a + b
    p = a * b
    for n in range(1, n_max):
        out.append(((lead - s * n) * out[n] - p * (n - 1) * out[n - 1]) / (n + 1))
    return out


def horner(coeffs, z):
    """Plain-python Horner evaluation."""
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + complex(c)
    return acc


def power_sums(coeffs, z):
    """Naive power-accumulation evaluation (independent of Horner)."""
    acc = 0j
    zp = 1.0 + 0j
    for c in coeffs:
        acc += complex(c) * zp
        zp *= z
    return acc
