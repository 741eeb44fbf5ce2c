"""Ratio sets over prime intervals and numerically stable power means.

A ratio set is its interval primes as an int64 array plus the successor
prime; the RatioElement objects, exact integer pairs, are made only on
demand.  Every decision between ratios is exact: a float may narrow the
candidates, but Python-int cross-multiplication settles them.  The float
reductions (power means, geometric mean) all go through math.fsum.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import EmptySetError
from .sieve import IntervalPrimes


class MeanLimit(Enum):
    ZERO = "zero"
    PLUS_INF = "plus_inf"
    MINUS_INF = "minus_inf"


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

    def is_one(self) -> bool:
        return self.num == self.den

    def __eq__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __lt__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __le__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den > other.num * self.den

    def __ge__(self, other):
        if not isinstance(other, RatioElement):
            return NotImplemented
        return self.num * other.den >= other.num * self.den

    __hash__ = None  # mutable dataclass with value equality; keep it unhashable


class RatioElements(Sequence[RatioElement]):
    """Lazy RatioElement view of a RatioSet: element n is p_n/(p_{n+1}-2).

    Elements are made on access, so the view costs nothing per prime.
    power_mean and mean_limit recognise it and read the set's arrays instead
    of iterating it.
    """

    __slots__ = ("ratio_set",)

    def __init__(self, ratio_set: "RatioSet"):
        self.ratio_set = ratio_set

    def __len__(self) -> int:
        return int(self.ratio_set.primes.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        ps = self.ratio_set.primes
        p = int(ps[i])   # numpy indexing: negative indices, IndexError past the end
        return RatioElement(p, p + int(self.ratio_set.k[i]))

    def __iter__(self) -> Iterator[RatioElement]:
        rs = self.ratio_set
        return map(RatioElement, rs.primes.tolist(), (rs.primes + rs.k).tolist())


@dataclass(eq=False)
class RatioSet:
    """Ratio set of a prime interval (x, y]: one p_n/(p_{n+1}-2) per prime.

    Held as the interval primes (int64, increasing, all above 2) plus p_e,
    the first prime past y.  The excess k_n = p_{n+1} - 2 - p_n >= 0 orders
    the elements: p_n/(p_n + k_n) = 1/(1 + k_n/p_n), so a smaller k/p is a
    larger element and k_n == 0 is exactly 1, a twin pair (p_n, p_n + 2).
    The exact sup and inf are found once per set, on first use: a float
    k/p (a correctly rounded, hence monotone, quotient) narrows the
    candidates and Python-int cross-multiplication settles them.  No product
    of two primes is formed in int64; near the 1e10 cap it would pass 2^63.
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

    @property
    def elements(self) -> RatioElements:
        return RatioElements(self)

    @cached_property
    def k(self) -> np.ndarray:
        return np.diff(self.primes, append=self.p_e) - 2

    @cached_property
    def values(self) -> np.ndarray:
        """Element values p/(p+k), each one correctly rounded double."""
        return self.primes / (self.primes + self.k)

    @cached_property
    def sup(self) -> RatioElement:
        return self._extreme(top=True)

    @cached_property
    def inf(self) -> RatioElement:
        return self._extreme(top=False)

    def twin_pairs(self) -> list[tuple[int, int]]:
        """Twin pairs (p, p+2) with x < p <= y; p+2 may be p_e."""
        return [(p, p + 2) for p in self.primes[self.k == 0].tolist()]

    def _extreme(self, top: bool) -> RatioElement:
        ps, k = self.primes, self.k
        f = k / ps
        best = int(np.argmin(f) if top else np.argmax(f))
        if k[best] != 0:   # every k == 0 element is exactly 1: no tie to settle
            kb, pb = int(k[best]), int(ps[best])
            for j in np.flatnonzero(f == f[best]).tolist():
                kj, pj = int(k[j]), int(ps[j])
                if (kj * pb < kb * pj) if top else (kj * pb > kb * pj):
                    best, kb, pb = j, kj, pj
        p = int(ps[best])
        return RatioElement(p, p + int(k[best]))


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


def max_element(elements: Iterable[RatioElement]) -> RatioElement:
    """Exact maximum; short-circuits on a twin ratio since values cap at 1."""
    if isinstance(elements, RatioElements):
        return elements.ratio_set.sup
    it = iter(elements)
    try:
        best = next(it)
    except StopIteration:
        raise EmptySetError("max of an empty ratio collection") from None
    for e in it:
        if best.is_one():
            return best
        if e > best:
            best = e
    return best


def min_element(elements: Iterable[RatioElement]) -> RatioElement:
    if isinstance(elements, RatioElements):
        return elements.ratio_set.inf
    it = iter(elements)
    try:
        best = next(it)
    except StopIteration:
        raise EmptySetError("min of an empty ratio collection") from None
    for e in it:
        if e < best:
            best = e
    return best


Values = Union[Sequence[float], Sequence[RatioElement]]


def _checked_floats(elems: list) -> np.ndarray:
    vals = np.array([float(v) for v in elems])
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError("power means need strictly positive finite values")
    return vals


def _terms(values: Values, top: bool, what: str) -> tuple[np.ndarray, float]:
    """The values as a float array and m, their max (top) or min.

    A ratio value is one correctly rounded division and m is the value of
    the exact extreme element; rounding is monotone, so every v/m lies on
    the same side of 1 as the exact ratio does.
    """
    if isinstance(values, RatioElements):
        vals = values.ratio_set.values
    else:
        values = list(values)
        if not values:
            raise EmptySetError(f"{what} of an empty set")
        if not isinstance(values[0], RatioElement):
            vals = _checked_floats(values)
            return vals, float(vals.max() if top else vals.min())
        vals = np.array([e.value for e in values])
    return vals, (max_element if top else min_element)(values).value


def power_mean(values: Values, alpha: float) -> MeanValue:
    """Power mean ((1/N) sum v_i^alpha)^(1/alpha), alpha finite and nonzero.

    Evaluated in the factored form m * ((1/N) sum (v_i/m)^alpha)^(1/alpha)
    with m the max (alpha > 0) or min (alpha < 0), so every scaled term lies
    in (0, 1] and no intermediate can overflow.  The scaled-term sum is
    compensated, which keeps the result within a few ulps of exact.  A
    RatioSet's elements view is reduced over the set's arrays, with m its
    cached exact sup or inf.  Use mean_limit for alpha -> 0 and +-inf.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise ValueError("alpha must be finite and nonzero; use mean_limit for limits")
    vals, m = _terms(values, alpha > 0, "power mean")
    n = int(vals.size)
    s = math.fsum(((vals / m) ** alpha).tolist()) / n
    return MeanValue(alpha=alpha, value=m * s ** (1.0 / alpha), count=n)


def _log_terms(values: Values) -> np.ndarray:
    if isinstance(values, RatioElements):
        rs = values.ratio_set
        # log(p/(p+k)) = log1p(-k/(p+k)), exact numerator and denominator
        return np.log1p(-rs.k / (rs.primes + rs.k))
    elems = list(values)
    if not elems:
        raise EmptySetError("mean limit of an empty set")
    if isinstance(elems[0], RatioElement):
        return np.log1p(np.array([(e.num - e.den) / e.den for e in elems]))
    return np.log(_checked_floats(elems))


def mean_limit(values: Values, which: MeanLimit) -> MeanValue:
    """The alpha -> 0 (geometric) and alpha -> +-inf (max/min) mean limits.

    On ratio elements the sup/inf are the exact extremes and the geometric
    mean runs on log1p of the exact pair differences.
    """
    if not isinstance(which, MeanLimit):
        raise ValueError(f"unknown mean limit {which!r}")
    if which is MeanLimit.ZERO:
        logs = _log_terms(values)
        n = int(logs.size)
        return MeanValue(alpha=0.0, value=math.exp(math.fsum(logs.tolist()) / n), count=n)
    top = which is MeanLimit.PLUS_INF
    vals, m = _terms(values, top, "mean limit")
    return MeanValue(alpha=math.inf if top else -math.inf, value=m, count=int(vals.size))
