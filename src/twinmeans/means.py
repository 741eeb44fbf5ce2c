"""Ratio sets over prime intervals and numerically stable power means.

A ratio set is its interval primes as an int64 array plus the successor
prime, and the sequence of its elements; the RatioElement objects, exact
integer pairs, are made only on demand; reduce_interval takes an interval
one block of primes at a time, so that a report's memory does not grow
with the interval.  Every decision
between ratios is exact: a float may narrow the candidates, but Python-int
cross-multiplication settles them.  The float reductions (power means,
geometric mean) are exact sums (analytic.ExactSum).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Optional, Union

import numpy as np

from . import sieve
from .analytic import ExactSum, IntervalProduct, ProductMethod, _excesses
from .errors import EmptySetError
from .sieve import IntervalPrimes


class MeanLimit(Enum):
    ZERO = "zero"
    PLUS_INF = "plus_inf"
    MINUS_INF = "minus_inf"


@total_ordering
@dataclass(slots=True, eq=False)
class RatioElement:
    """Exact ratio p/(q-2) for consecutive primes p < q, as an integer pair.

    For primes above 2 the gap is at least 2, so num <= den and the value
    sits in (0, 1]; it equals 1 exactly when (p, p+2) is a twin pair.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.num < 2 or self.den < self.num:
            raise ValueError(f"invalid ratio pair ({self.num}, {self.den})")

    @property
    def value(self) -> float:
        return self.num / self.den

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __lt__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    __hash__ = None  # mutable dataclass with value equality; keep it unhashable


@dataclass(eq=False)
class RatioSet(Sequence[RatioElement]):
    """Ratio set of a prime interval (x, y]: one p_n/(p_{n+1}-2) per prime.

    Held as the interval primes (int64, increasing, all above 2) plus p_e,
    the first prime past y.  The set is the sequence of its elements:
    element n is the RatioElement p_n/(p_{n+1}-2), made on access, so the
    sequence costs nothing per prime.  The excess k_n = p_{n+1} - 2 - p_n
    >= 0 orders the elements: p_n/(p_n + k_n) = 1/(1 + k_n/p_n), so a
    smaller k/p is a larger element and k_n == 0 is exactly 1, a twin pair
    (p_n, p_n + 2).  k and values are built once, on first use, each
    straight into its own array.  The exact sup and inf are found once per
    set, on first use, one block of at most sieve._BLOCK elements at a time:
    a float k/p (a correctly rounded, hence monotone, quotient) narrows the
    candidates and Python-int cross-multiplication settles them; a later
    block replaces the extreme only if strictly better, so it is the first
    element that attains it.  No product of two primes is formed in int64;
    near the 1e10 cap it would pass 2^63.
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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        p = int(self.primes[i])   # numpy indexing: negative indices, IndexError past the end
        return RatioElement(p, p + int(self.k[i]))

    def __iter__(self) -> Iterator[RatioElement]:
        return map(RatioElement, self.primes.tolist(), (self.primes + self.k).tolist())

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
    def sup(self) -> RatioElement:
        return self._extreme(top=True)

    @cached_property
    def inf(self) -> RatioElement:
        return self._extreme(top=False)

    def _extreme(self, top: bool) -> RatioElement:
        ps, k = self.primes, self.k
        f = np.empty(min(ps.size, sieve._BLOCK))
        kb = pb = None
        for i in range(0, ps.size, f.size):
            p, kk = ps[i : i + f.size], k[i : i + f.size]
            q = np.divide(kk, p, out=f[: p.size])
            j = int(np.argmin(q) if top else np.argmax(q))
            # every k == 0 element is exactly 1: no tie to settle
            ties = [j] if kk[j] == 0 else np.flatnonzero(q == q[j]).tolist()
            for j in ties:
                kj, pj = int(kk[j]), int(p[j])
                if kb is None or ((kj * pb < kb * pj) if top else (kj * pb > kb * pj)):
                    kb, pb = kj, pj
        return RatioElement(pb, pb + kb)


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

    count is the number of interval primes, p_s the first and P the last of
    them, and p_e the prime past y.  sup, the exact sup of the set, and
    twin_lower, the int64 array of the lower primes p of the twin pairs
    (p, p+2) with x < p <= y, are None unless the pass was asked for them.
    log_t(method) is log T by a product route the pass summed.
    """

    count: int
    p_s: int
    P: int
    p_e: int
    sup: Optional[RatioElement]
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
    sups, exact by RatioElement's order and the first of equals, so it names
    the first element that attains it.  Every value equals that of the whole
    set (interval_primes).
    """
    x, y = int(x), int(y)
    count, sups, lower = 0, [], np.empty(0, dtype=np.int64)
    product = IntervalProduct(methods)
    for primes, p_next in sieve.interval_windows(x, y):
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
        p_s=product.p_s,
        P=P,
        p_e=p_next,
        sup=max(sups) if sup else None,
        twin_lower=lower if twins else None,
        product=product,
    )


def max_element(rs: RatioSet) -> RatioElement:
    """The exact sup of a ratio set, rs.sup: the means' call for it, which
    perfbench times as means.sup_s."""
    return rs.sup


def min_element(rs: RatioSet) -> RatioElement:
    """The exact inf of a ratio set, rs.inf: the means' call for it, which
    perfbench times as means.sup_s."""
    return rs.inf


# The inputs of power_mean and mean_limit: a ratio set, or plain floats.
# A list of RatioElement is neither: float() refuses it.
Values = Union[RatioSet, Sequence[float]]


def _checked_floats(values: Sequence[float], what: str) -> np.ndarray:
    vals = np.array([float(v) for v in values])
    if not vals.size:
        raise EmptySetError(f"{what} of an empty set")
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError("power means need strictly positive finite values")
    return vals


def _terms(values: Values, top: bool, what: str) -> tuple[np.ndarray, float]:
    """The values as a float array and m, their max (top) or min.

    A ratio value is one correctly rounded division and m is the value of
    the exact extreme element; rounding is monotone, so every v/m lies on
    the same side of 1 as the exact ratio does.
    """
    if isinstance(values, RatioSet):
        return values.values, (max_element if top else min_element)(values).value
    vals = _checked_floats(values, what)
    return vals, float(vals.max() if top else vals.min())


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
    RatioSet is reduced over its cached values, not its elements, with m its
    cached exact sup or inf; the scaled terms are made in blocks of at
    most sieve._BLOCK.  Use mean_limit for alpha -> 0 and +-inf.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise ValueError("alpha must be finite and nonzero; use mean_limit for limits")
    vals, m = _terms(values, alpha > 0, "power mean")
    n = int(vals.size)

    def scaled(s: slice, out: np.ndarray) -> np.ndarray:
        out = np.divide(vals[s], m, out=out)
        out **= alpha
        return out

    s = _block_sum(n, scaled) / n
    return MeanValue(alpha=alpha, value=m * s ** (1.0 / alpha), count=n)


def mean_limit(values: Values, which: MeanLimit) -> MeanValue:
    """The alpha -> 0 (geometric) and alpha -> +-inf (max/min) mean limits.

    On a RatioSet the sup/inf are the set's exact extremes and the
    geometric mean runs on log1p of the exact pair differences, in blocks of
    at most sieve._BLOCK elements.
    """
    if not isinstance(which, MeanLimit):
        raise ValueError(f"unknown mean limit {which!r}")
    if which is MeanLimit.ZERO:
        if isinstance(values, RatioSet):
            ps, k = values.primes, values.k

            def logs(s: slice, out: np.ndarray) -> np.ndarray:
                # log(p/(p+k)) = log1p(-k/(p+k)), exact numerator and denominator:
                # p+k is summed in int64, then rounded, and -(k/d) has the bits of (-k)/d
                out = np.add(ps[s], k[s], out=out)
                np.divide(k[s], out, out=out)
                np.negative(out, out=out)
                return np.log1p(out, out=out)

            n = int(ps.size)
        else:
            vals = _checked_floats(values, "mean limit")
            n = int(vals.size)

            def logs(s: slice, out: np.ndarray) -> np.ndarray:
                return np.log(vals[s], out=out)

        return MeanValue(alpha=0.0, value=math.exp(_block_sum(n, logs) / n), count=n)
    top = which is MeanLimit.PLUS_INF
    if isinstance(values, RatioSet):   # the cached extreme: no values array
        n, m = len(values), (max_element if top else min_element)(values).value
    else:
        vals, m = _terms(values, top, "mean limit")
        n = int(vals.size)
    return MeanValue(alpha=math.inf if top else -math.inf, value=m, count=n)
