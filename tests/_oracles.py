"""Slow-but-obviously-correct reference implementations used by the tests.

Everything here but sieved_upto is deliberately independent of the
package internals: trial division instead of a sieve, Fraction arithmetic
instead of floats.  Keep it dumb; speed does not matter at oracle sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from twinmeans import sieve


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime(n)]


def primes_between(x: int, y: int) -> list[int]:
    """Primes p with x < p <= y."""
    return [n for n in range(x + 1, y + 1) if is_prime(n)]


def next_prime(n: int) -> int:
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


def twin_pairs(x: int, y: int) -> list[tuple[int, int]]:
    """Pairs (p, p+2), both prime, with x < p <= y (the co-twin may exceed y)."""
    return [(p, p + 2) for p in primes_between(x, y) if is_prime(p + 2)]


def max_gap(limit: int) -> tuple[int, int]:
    """(gap, lower_prime) of the earliest maximal gap among primes <= limit."""
    ps = primes_upto(limit)
    best_gap, best_lo = 0, 0
    for a, b in zip(ps, ps[1:]):
        if b - a > best_gap:
            best_gap, best_lo = b - a, a
    return best_gap, best_lo


def ratio_elements(x: int, y: int) -> list[Fraction]:
    """Exact r_n = p_n / (p_{n+1} - 2) over primes in (x, y], successor included."""
    ps = primes_between(x, y)
    if not ps:
        raise ValueError("empty interval")
    seq = ps + [next_prime(ps[-1])]
    return [Fraction(a, b - 2) for a, b in zip(seq, seq[1:])]


def t_product_exact(x: int, y: int) -> Fraction:
    out = Fraction(1)
    for r in ratio_elements(x, y):
        out *= r
    return out


def mertens_sum_exact(x: int) -> Fraction:
    return sum((Fraction(1, p) for p in primes_upto(x)), Fraction(0))


def twin_product_exact(x: int) -> Fraction:
    out = Fraction(1, 2)
    for p in primes_upto(x):
        if p > 2:
            out *= 1 - Fraction(2, p)
    return out


def power_mean_float(values: list[float], alpha: float) -> float:
    """Plain textbook power mean; fine at oracle sizes (no overflow guards)."""
    n = len(values)
    return (sum(v**alpha for v in values) / n) ** (1.0 / alpha)


def geometric_mean_float(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def power_mean_exact(ratios: list[Fraction], alpha: int) -> float:
    """Power mean of exact ratios, in the factored form around the exact max
    (alpha > 0) or min.  Each scaled term (r/m)^alpha is an exact Fraction,
    rounded once to a float and summed exactly (fsum); only the mean, the
    root and the product with m round again."""
    m = max(ratios) if alpha > 0 else min(ratios)
    s = math.fsum(float((r / m) ** alpha) for r in ratios) / len(ratios)
    return float(m) * s ** (1.0 / alpha)


def sieved_upto(n: int) -> np.ndarray:
    """The primes <= n as one increasing int64 array: the spans of
    iter_prime_segments(1, n), concatenated.

    This is the package's own sieve, not an independent oracle.  A test
    that compares against it checks agreement with the sieve; one that
    checks the sieve itself compares this with trial division above.
    """
    return np.concatenate([np.empty(0, dtype=np.int64), *sieve.iter_prime_segments(1, n)])
