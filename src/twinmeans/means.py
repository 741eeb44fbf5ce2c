"""Ratio sets over prime intervals and numerically stable power means.

A ratio set is its interval primes as an int64 array plus the successor
prime, read through arrays made from them; an exact Fraction is made only
for its sup and inf.  reduce_interval takes an interval one block of primes
at a time, so that a report's memory does not grow with the interval.
Every decision between ratios is exact: a float may narrow the candidates,
but Fraction's Python-int cross-multiplication settles them.  The float
reductions are exact sums (analytic.ExactSum); the geometric mean of a
ratio set is T^(1/pi), T the ratio product by the DIRECT route of
analytic.IntervalProduct.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import sieve
from .analytic import ExactSum, IntervalProduct, ProductMethod, _excesses, _log_t
from .errors import EmptySetError
from .sieve import IntervalPrimes


class MeanLimit(Enum):
    ZERO = "zero"
    PLUS_INF = "plus_inf"
    MINUS_INF = "minus_inf"


@dataclass(eq=False)
class RatioSet:
    """Ratio set of a prime interval (x, y]: one p_n/(p_{n+1}-2) per prime.

    Held as the interval primes (int64, increasing, all above 2) plus p_e,
    the first prime past y, and read through its arrays and its exact
    extremes, not element by element.  The excess k_n = p_{n+1} - 2 - p_n
    >= 0 orders the elements: p_n/(p_n + k_n) = 1/(1 + k_n/p_n), so a
    smaller k/p is a larger element and k_n == 0 is exactly 1, a twin pair
    (p_n, p_n + 2).  Otherwise 0 < k_n < p_n (Bertrand), so the element is
    in lowest terms with numerator p_n: a sup or inf below 1 names, by its
    numerator, the element that attains it.  k and values are built once,
    on first use, each straight into its own array.  The exact sup and inf
    are found once per set, on first use, one block of at most sieve._BLOCK
    elements at a time: a float k/p (a correctly rounded, hence monotone,
    quotient) narrows the candidates and max() or min() of the Fractions
    of every block's candidates settles them.  No product of two primes is
    formed in int64; near the 1e10 cap it would pass 2^63.
    """

    x: int
    y: int
    primes: np.ndarray
    p_e: int

    def __post_init__(self):
        if self.primes.size == 0:
            raise EmptySetError(
                f"no primes in ({self.x}, {self.y}]; ratio set undefined"
            )
        if int(self.primes[0]) <= 2:
            raise ValueError("ratio sets need interval primes above 2 (x >= 2)")

    def __len__(self) -> int:
        return int(self.primes.size)

    @property
    def elements(self) -> "RatioSet":
        """The set itself; kept because perfbench/session.py reads it."""
        return self

    @cached_property
    def k(self) -> np.ndarray:
        return _excesses(self.primes, self.p_e, np.empty(self.primes.size, dtype=np.int64))

    @cached_property
    def values(self) -> np.ndarray:
        """Element values p/(p+k), each one correctly rounded double."""
        v = np.add(self.primes, self.k, out=np.empty(self.primes.size))   # int64 sum, then rounded
        return np.divide(self.primes, v, out=v)

    @cached_property
    def sup(self) -> Fraction:
        return self._extreme(top=True)

    @cached_property
    def inf(self) -> Fraction:
        return self._extreme(top=False)

    def _extreme(self, top: bool) -> Fraction:
        ps, k = self.primes, self.k
        f = np.empty(min(ps.size, sieve._BLOCK))
        candidates = []
        for i in range(0, ps.size, f.size):
            p, kk = ps[i : i + f.size], k[i : i + f.size]
            q = np.divide(kk, p, out=f[: p.size])
            j = int(np.argmin(q) if top else np.argmax(q))
            # every k == 0 element is exactly 1: no tie to settle
            ties = [j] if kk[j] == 0 else np.flatnonzero(q == q[j]).tolist()
            candidates += (Fraction(int(p[t]), int(p[t]) + int(kk[t])) for t in ties)
        return (max if top else min)(candidates)


@dataclass(frozen=True)
class MeanValue:
    """A computed mean: alpha is +-inf for the sup/inf limits and 0.0 for
    the geometric-mean limit."""

    alpha: float
    value: float
    count: int


def build_ratio_set(ip: IntervalPrimes) -> RatioSet:
    """One element p_n/(p_{n+1}-2) per prime in (x, y]; the last uses p_e."""
    return RatioSet(x=ip.x, y=ip.y, primes=ip.primes, p_e=ip.p_e)


@dataclass(eq=False)
class IntervalReduction:
    """What one streamed pass keeps of the ratio set of an interval (x, y].

    count is the number of interval primes, P the last of them, and p_e
    the prime past y.  sup, the exact sup of the set, and twin_lower, the
    int64 array of the lower primes p of the twin pairs (p, p+2) with
    x < p <= y, are None unless the pass was asked for them.
    log_t(method) is log T by a product route the pass summed.
    """

    count: int
    P: int
    p_e: int
    sup: Optional[Fraction]
    twin_lower: Optional[np.ndarray]
    product: IntervalProduct

    def log_t(self, method: ProductMethod) -> float:
        return self.product.log_t(method, self.p_e)


def reduce_interval(
    x: int,
    y: int,
    methods: tuple[ProductMethod, ...] = (),
    *,
    sup: bool = False,
    twins: bool = False,
) -> IntervalReduction:
    """The ratio set of (x, y] reduced one block at a time.

    Each block of sieve.interval_windows is a RatioSet of its own, its last
    element reaching into the next block, so every temporary is block-sized;
    the block and its set are dropped before the next block is asked for.
    Each adds its count, the log T terms of `methods` and, when asked, its
    exact sup and twin lower primes; the overall sup is max() of the block
    sups.  Every value equals that of the whole set (interval_primes).  An
    interval without primes, one empty block, raises EmptySetError.
    """
    x, y = int(x), int(y)
    count, sups, lower = 0, [], np.empty(0, dtype=np.int64)
    product = IntervalProduct(methods)
    for primes, p_next in sieve.interval_windows(x, y):
        if not primes.size:     # the one block of an interval without primes
            break
        rs = RatioSet(x=x, y=y, primes=primes, p_e=p_next)
        count += int(primes.size)
        product.add(primes, rs.k)
        if sup:
            sups.append(rs.sup)
        if twins:   # grown in place (realloc), so the pairs are never held twice
            t, n = primes[rs.k == 0], lower.size
            lower.resize(n + t.size, refcheck=False)
            lower[n:] = t
        P = int(primes[-1])
        del primes, rs      # freed before the next block is sieved
    if not count:
        raise EmptySetError(f"no primes in ({x}, {y}]")
    return IntervalReduction(
        count=count,
        P=P,
        p_e=p_next,
        sup=max(sups) if sup else None,
        twin_lower=lower if twins else None,
        product=product,
    )


def max_element(rs: RatioSet) -> Fraction:
    """The exact sup of a ratio set, rs.sup: mean_limit's call for the
    alpha -> +inf limit, which perfbench times as means.sup_s."""
    return rs.sup


def min_element(rs: RatioSet) -> Fraction:
    """The exact inf of a ratio set, rs.inf: mean_limit's call for the
    alpha -> -inf limit, which perfbench times as means.sup_s."""
    return rs.inf


# The inputs of power_mean and mean_limit: a ratio set, or plain floats.  A
# set's values are its exact elements correctly rounded, a monotone map, so
# its power means and +-inf limits are those of its values, bit for bit.
Values = Union[RatioSet, Sequence[float]]


def _checked_floats(values: Sequence[float], what: str) -> np.ndarray:
    vals = np.array([float(v) for v in values])
    if not vals.size:
        raise EmptySetError(f"{what} of an empty set")
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError("power means need strictly positive finite values")
    return vals


def _block_sum(n: int, terms: Callable[[slice, np.ndarray], np.ndarray]) -> float:
    """The exact sum of the terms of elements 0..n-1, one block at a time.

    terms(s, out) writes the terms of the elements in slice s, at most
    sieve._BLOCK of them, into out and returns it.  out is a view of one
    buffer made once per call, so no temporary grows with n.
    """
    buf = np.empty(min(n, sieve._BLOCK))
    acc = ExactSum()
    for i in range(0, n, buf.size):
        acc.add(terms(slice(i, i + buf.size), buf[: min(buf.size, n - i)]))
    return acc.value


def power_mean(values: Values, alpha: float) -> MeanValue:
    """Power mean ((1/N) sum v_i^alpha)^(1/alpha), alpha finite and nonzero.

    Evaluated in the factored form m * ((1/N) sum (v_i/m)^alpha)^(1/alpha)
    with m the max (alpha > 0) or min (alpha < 0), so every scaled term lies
    in (0, 1] and no intermediate can overflow.  The scaled-term sum is
    correctly rounded, which keeps the result within a few ulps of exact.  A
    RatioSet is reduced over its cached values, as plain floats are; the
    scaled terms are made in blocks of at most sieve._BLOCK.  Use
    mean_limit for alpha -> 0 and +-inf.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise ValueError("alpha must be finite and nonzero; use mean_limit for limits")
    vals = values.values if isinstance(values, RatioSet) else _checked_floats(values, "power mean")
    m = float(vals.max() if alpha > 0 else vals.min())
    n = int(vals.size)

    def scaled(s: slice, out: np.ndarray) -> np.ndarray:
        out = np.divide(vals[s], m, out=out)
        out **= alpha
        return out

    s = _block_sum(n, scaled) / n
    return MeanValue(alpha=alpha, value=m * s ** (1.0 / alpha), count=n)


def mean_limit(values: Values, which: MeanLimit) -> MeanValue:
    """The alpha -> 0 (geometric) and alpha -> +-inf (max/min) mean limits.

    On a RatioSet of n elements the geometric mean is T^(1/n), T = prod
    p_n/(p_{n+1}-2) by the DIRECT product route (analytic.IntervalProduct),
    so it is theorem1's M0 by construction; the sup/inf are the set's exact
    extremes.  Plain floats take the exact sum of their logs, in blocks of
    at most sieve._BLOCK, and their float max/min.
    """
    if not isinstance(which, MeanLimit):
        raise ValueError(f"unknown mean limit {which!r}")
    top = which is MeanLimit.PLUS_INF
    if isinstance(values, RatioSet):
        n = len(values)
        if which is MeanLimit.ZERO:
            value = math.exp(_log_t(values.primes, values.p_e, ProductMethod.DIRECT) / n)
        else:   # the cached extreme: no values array
            value = float((max_element if top else min_element)(values))
    else:
        vals = _checked_floats(values, "mean limit")
        n = int(vals.size)
        if which is MeanLimit.ZERO:
            value = math.exp(_block_sum(n, lambda s, out: np.log(vals[s], out=out)) / n)
        else:
            value = float(vals.max() if top else vals.min())
    alpha = 0.0 if which is MeanLimit.ZERO else math.inf if top else -math.inf
    return MeanValue(alpha=alpha, value=value, count=n)
