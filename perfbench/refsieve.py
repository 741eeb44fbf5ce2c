"""Reference prime data for the benchmark's checks, written apart from twinmeans.

Nothing here imports twinmeans.  Intervals are sieved with one dense
(not odd-only, not segmented) numpy flag array, and single numbers are tested
with a deterministic Miller-Rabin test, so a fault in the program's sieve
cannot hide behind the same fault here.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

# Miller-Rabin with these bases is exact for every n < 3,215,031,751.
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is past the exact Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime > n."""
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit (dense sieve of Eratosthenes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo < p <= hi, from one flag array over (lo, hi]."""
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo, dtype=bool)      # flags[i] stands for lo + 1 + i
    for n in range(lo + 1, min(hi, 1) + 1):
        flags[n - lo - 1] = False             # 0 and 1 are not prime
    for p in primes_upto(math.isqrt(hi)).tolist():
        first = max(p * p, (lo // p + 1) * p)
        if first <= hi:
            flags[first - lo - 1 :: p] = False
    return lo + 1 + np.flatnonzero(flags).astype(np.int64)


def interval_end(x: int, c: float) -> int:
    """floor(x^beta) with beta = 1 + c/log^2 x, so x^beta = x*exp(c/log x)."""
    return math.floor(x * math.exp(c / math.log(x)))


def twin_lowers(primes: np.ndarray, p_e: int) -> np.ndarray:
    """Primes p of `primes` with p + 2 prime; p_e is the first prime past them."""
    nxt = np.append(primes[1:], p_e)
    return primes[nxt == primes + 2]


def digest(values) -> str:
    """sha256 of a sequence of nonnegative integers as little-endian u64."""
    return hashlib.sha256(np.asarray(values, dtype="<u8").tobytes()).hexdigest()


def log_t(primes: np.ndarray, p_e: int) -> float:
    """log prod p_n/(p_{n+1} - 2) over the primes, the last one paired with p_e."""
    nxt = np.append(primes[1:], p_e)
    return -math.fsum(np.log1p((nxt - 2 - primes) / primes).tolist())


def ratio_extremes(primes: np.ndarray, p_e: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of p_n/(p_{n+1} - 2): floats narrow, Fractions decide."""
    nxt = np.append(primes[1:], p_e)
    vals = primes / (nxt - 2.0)
    lo, hi = float(vals.min()), float(vals.max())
    cands_lo = np.flatnonzero(vals <= lo * (1 + 1e-12))
    cands_hi = np.flatnonzero(vals >= hi * (1 - 1e-12))

    def frac(i):
        return Fraction(int(primes[i]), int(nxt[i]) - 2)

    return min(map(frac, cands_lo)), max(map(frac, cands_hi))


def interval_ref(x: int, y: int) -> dict:
    """Everything the checks need about the primes in (x, y]."""
    primes = primes_between(x, y)
    p_e = next_prime(y)
    lows = twin_lowers(primes, p_e)
    ref = {
        "x": x,
        "y": y,
        "pi": int(primes.size),
        "P": int(primes[-1]) if primes.size else None,
        "p_e": p_e,
        "twin_count": int(lows.size),
        "twin_sha256": digest(lows),
    }
    if primes.size:
        lo, hi = ratio_extremes(primes, p_e)
        ref.update(log_t=log_t(primes, p_e), ratio_min=str(lo), ratio_max=str(hi))
    return ref


def window_ref(x: int, y: int) -> dict:
    """Short windows by primality test alone: primes, P, twins, exact sup."""
    primes = [n for n in range(x + 1, y + 1) if is_prime(n)]
    p_e = next_prime(y)
    seq = primes + [p_e]
    twins = [p for p, q in zip(seq, seq[1:]) if q == p + 2]
    sup = max(Fraction(p, q - 2) for p, q in zip(seq, seq[1:])) if primes else None
    return {
        "pi": len(primes),
        "P": primes[-1] if primes else None,
        "twins": twins,
        "m_inf": str(sup),
    }
