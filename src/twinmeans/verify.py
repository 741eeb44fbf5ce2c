"""Interval mean reports and the exact twin-pair criterion.

The criterion is decided in exact rationals: the sup of a ratio set (exact,
see means.RatioSet) and the threshold P/(P+2) are compared as Fractions, and
the resulting decision is required to match a brute-force twin scan of the
same interval.  An interval report sieves its interval once and takes the
ratio set, the product and the twin pairs from that one IntervalPrimes.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import analytic, means, sieve
from .analytic import ProductMethod
from .errors import EmptySetError

# default acceptance window for the interval-exponent parameter c
C_RANGE = (0.1, 4.0)


@dataclass(frozen=True)
class BetaSpec:
    """Interval exponent beta = 1 + c/log^2 x with endpoint y = floor(x^beta)."""

    x: int
    c: float
    beta: float
    x_beta: float
    y: int


@dataclass(frozen=True)
class Theorem1Row:
    """Full report for one interval (x, floor(x^beta)].

    m0 is the ratio-product mean T^(1/pi) with the exact interval prime
    count pi; m_inf is the exact sup of the ratio set.  residual is
    x^beta*(1 - m0)/c - 1, the paper's x^beta normalisation.  With the exact
    count it grows like log x (the interval holds ~ c*x/log^2 x primes, not
    x^beta/(beta*log x)).  The exact-count form pi*log x*(1 - m0)/c - 1
    decays like O(1/log x) and is the quantity acceptance criterion 9b
    asserts on.  The row also carries the smooth-count substitution
    pi_approx = x^beta/(beta*log x) and the x^beta-normalised residual
    recomputed with it, which also decays.  logz_crosscheck compares
    log m0 against (2*log beta - (beta-1)*log x)/pi; it is reported, never
    asserted.
    """

    interval: BetaSpec
    pi_interval: int
    m0: float
    m_inf: Fraction
    m_inf_value: float
    lower_bound: float
    criterion_threshold: Fraction
    twin_pairs: list[tuple[int, int]]
    residual: float
    logz_crosscheck: float
    pi_approx: float
    residual_approx_pi: float


@dataclass(frozen=True)
class CriterionReport:
    """Exact-threshold twin decision for (x, y] next to the brute-force scan."""

    x: int
    y: int
    P: int
    threshold: Fraction
    m_inf: Fraction
    decision: bool
    brute_force_twins: list[tuple[int, int]]


def beta_for(x: int, c: float, *, c_range: tuple[float, float] = C_RANGE) -> BetaSpec:
    """Exponent and endpoint for the interval (x, x^beta].

    x^beta = x * exp(c/log x); the endpoint is floored to an integer, which
    changes no prime membership.  c outside `c_range` and intervals that
    collapse to nothing are rejected.
    """
    x = int(x)
    c = float(c)
    if x < 10:
        raise ValueError("need x >= 10")
    lo, hi = c_range
    if not lo <= c <= hi:
        raise ValueError(f"c={c} outside accepted range [{lo}, {hi}]")
    logx = math.log(x)
    beta = 1.0 + c / logx**2
    x_beta = x * math.exp(c / logx)
    y = math.floor(x_beta)
    if y <= x:
        raise ValueError(f"degenerate interval: floor(x^beta)={y} <= x={x}")
    return BetaSpec(x=x, c=c, beta=beta, x_beta=x_beta, y=y)


def theorem1_report(x: int, c: float) -> Theorem1Row:
    """Means, bounds, and twin data for the interval (x, floor(x^beta)]."""
    bs = beta_for(x, c)
    ip = sieve.interval_primes(x, bs.y)
    if ip.primes.size == 0:
        raise EmptySetError(f"no primes in ({x}, {bs.y}]")
    rs = means.build_ratio_set(ip)
    n = len(rs.elements)
    log_t = analytic.log_t_product(ip, ProductMethod.DIRECT)
    logx = math.log(x)
    mx = rs.sup
    # 1 - m0 through expm1 keeps the residual accurate when m0 is near 1
    one_minus_m0 = -math.expm1(log_t / n)
    pi_approx = bs.x_beta / (bs.beta * logx)
    return Theorem1Row(
        interval=bs,
        pi_interval=n,
        m0=math.exp(log_t / n),
        m_inf=mx.as_fraction(),
        m_inf_value=mx.value,
        lower_bound=1.0 - c / bs.x_beta,
        criterion_threshold=Fraction(ip.P, ip.P + 2),
        twin_pairs=rs.twin_pairs(),
        residual=bs.x_beta * one_minus_m0 / c - 1.0,
        logz_crosscheck=(log_t - (2.0 * math.log(bs.beta) - (bs.beta - 1.0) * logx))
        / n,
        pi_approx=pi_approx,
        residual_approx_pi=bs.x_beta * -math.expm1(log_t / pi_approx) / c - 1.0,
    )


def twin_criterion(x: int, y: int) -> CriterionReport:
    """Decide twin existence in (x, y] from the exact ratio-set sup.

    The decision sup > P/(P+2) (strict) must agree with the brute-force
    scan; the two are computed independently and both reported.
    """
    ip = sieve.interval_primes(x, y)
    if ip.primes.size == 0:
        raise EmptySetError(f"no primes in ({x}, {y}]")
    m_inf = means.build_ratio_set(ip).sup.as_fraction()
    threshold = Fraction(ip.P, ip.P + 2)
    return CriterionReport(
        x=int(x),
        y=int(y),
        P=ip.P,
        threshold=threshold,
        m_inf=m_inf,
        decision=m_inf > threshold,
        brute_force_twins=sieve.twin_pairs_in(x, y),
    )


def _failure(x: int, exc: BaseException):
    return ("err", (x, f"{type(exc).__name__}: {exc}"))


def _scan_one(task: tuple[int, float]):
    x, c = task
    try:
        return ("ok", theorem1_report(x, c))
    except Exception as exc:  # collected per row, scan continues
        return _failure(x, exc)


def _submit(pool: ProcessPoolExecutor, task: tuple[int, float]) -> Future:
    try:
        return pool.submit(_scan_one, task)
    except BrokenProcessPool as exc:   # the pool broke while rows were queued
        fut: Future = Future()
        fut.set_exception(exc)
        return fut


def _scan_result(fut: Future, x: int):
    try:
        return fut.result()
    except BrokenProcessPool as exc:   # a worker died: every row it took down fails
        return _failure(x, exc)


def theorem1_scan(
    x_values: Sequence[int], c: float, *, jobs: int = 1
) -> tuple[list[Theorem1Row], list[tuple[int, str]]]:
    """theorem1_report across x values; failures collected, order preserved.

    With jobs > 1 a worker process that dies (killed, out of memory) turns
    the rows it had not finished into failures instead of ending the scan.
    """
    tasks = [(int(x), float(c)) for x in x_values]
    if jobs <= 1:
        results: Iterable = map(_scan_one, tasks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [_submit(pool, t) for t in tasks]
            results = [_scan_result(f, x) for f, (x, _) in zip(futures, tasks)]
    rows: list[Theorem1Row] = []
    failures: list[tuple[int, str]] = []
    for tag, payload in results:
        if tag == "ok":
            rows.append(payload)
        else:
            failures.append(payload)
    return rows, failures
