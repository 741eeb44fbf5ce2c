"""Make perfbench/refs.json anew: the fixed reference values the checks use.

Run from the root of the repository:

    python3 perfbench/make_refs.py

Nothing here imports twinmeans.  The constants come from convergent series
evaluated with mpmath; prime counts, extremes, gaps and interval data come
from the benchmark's own sieve (refsieve.py) and are cross-checked against
published values.  Takes a few seconds and ~250 MB.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath
import numpy as np

import refsieve

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

LIMIT = 10**8
# Published values for the primes below 1e8 (OEIS A006880; the maximal gap
# record of 220 that follows 47,326,693, Nicely's table of maximal gaps).
PUBLISHED = {"count": 5_761_455, "largest": 99_999_989, "gap": 220, "gap_lower": 47_326_693}
# Literals quoted in the ROADMAP, to 20 digits.
M_QUOTED = "0.26149721284764278375"
C_QUOTED = "0.66041284147460288235"
# The interval of the `interval_report` workload: theorem1/lemma2 at x = 1e9, c = 1.
REPORT_X, REPORT_C = 10**9, 1.0


def meissel_mertens() -> mpmath.mpf:
    """M = gamma + sum_{k>=2} mu(k) log zeta(k) / k  (Cohen's accelerated series)."""
    total = mpmath.euler
    for k in range(2, 200):
        mu = _moebius(k)
        if mu:
            total += mu * mpmath.log(mpmath.zeta(k)) / k
    return total


def twin_series_C() -> mpmath.mpf:
    """C = -sum_{p>2} (log(1 - 2/p) + 2/p) = sum_{k>=2} (2^k P(k) - 1)/k, P the prime zeta."""
    total = mpmath.mpf(0)
    for k in range(2, 400):
        term = (mpmath.power(2, k) * mpmath.primezeta(k) - 1) / k
        total += term
        if abs(term) < mpmath.mpf(10) ** -40:
            break
    return total


def _moebius(n: int) -> int:
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def main() -> int:
    mpmath.mp.dps = 40
    M, C = meissel_mertens(), twin_series_C()
    for name, got, quoted in (("M", M, M_QUOTED), ("C", C, C_QUOTED)):
        if abs(got - mpmath.mpf(quoted)) > mpmath.mpf(10) ** -19:
            print(f"{name} = {got} disagrees with the quoted {quoted}", file=sys.stderr)
            return 1

    primes = refsieve.primes_upto(LIMIT)
    gaps = np.diff(primes)
    i = int(np.argmax(gaps))
    upto = {
        "limit": LIMIT,
        "count": int(primes.size),
        "largest": int(primes[-1]),
        "head": primes[:10].tolist(),
        "tail": primes[-10:].tolist(),
        "gap": int(gaps[i]),
        "gap_lower": int(primes[i]),
        "mertens_sum": math.fsum((1.0 / primes).tolist()),
        "twin_product": 0.5 * math.exp(math.fsum(np.log1p(-2.0 / primes[1:]).tolist())),
    }
    for key, want in PUBLISHED.items():
        if upto[key] != want:
            print(f"sieve gives {key} = {upto[key]}, published {want}", file=sys.stderr)
            return 1
    del primes, gaps

    y = refsieve.interval_end(REPORT_X, REPORT_C)
    report = dict(refsieve.interval_ref(REPORT_X, y), c=REPORT_C)

    refs = {
        "M": mpmath.nstr(M, 30),
        "C": mpmath.nstr(C, 30),
        "upto_1e8": upto,
        "report_1e9": report,
    }
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
