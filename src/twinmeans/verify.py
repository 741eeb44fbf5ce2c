"""Interval reports and the exact twin-pair criterion.

The criterion is decided in exact rationals: the sup of a ratio set (exact,
see means.RatioSet) and the threshold P/(P+2) are compared as Fractions, and
the resulting decision is required to match a brute-force twin scan of the
same interval.  Each report (theorem1_report, lemma2_report, twin_criterion)
sieves its interval once and reduces it block by block
(means.reduce_interval), in one pass whose temporaries are block-sized.
theorem1_report and twin_criterion make it a criterion pass, which takes
the sup and the twin lower primes together, so its memory grows with the
interval only by the twin pairs, 8 bytes each; lemma2_report takes neither.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import means
from .analytic import AsymptoticCheck, ProductMethod

# accepted window for the interval-exponent parameter c, and the smallest x
C_RANGE = (0.1, 4.0)
X_MIN = 10


@dataclass(frozen=True)
class BetaSpec:
    """Interval exponent beta = 1 + c/log^2 x with endpoint y = floor(x^beta)."""

    x: int
    c: float
    beta: float
    x_beta: float
    y: int


class TwinPairs:
    """The twin pairs (p, p+2) of a report, held as their int64 lower primes.

    A report keeps 8 bytes per pair, not a tuple.  It has len and
    iteration, which makes each pair as it goes, and equals another
    TwinPairs or a list of tuples that holds the same pairs.
    """

    __slots__ = ("lower",)

    def __init__(self, lower):
        self.lower = np.asarray(lower, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.lower.size)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((p, p + 2) for p in self.lower.tolist())

    def __eq__(self, other):
        if isinstance(other, TwinPairs):
            return np.array_equal(self.lower, other.lower)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TwinPairs({list(self)!r})"


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
    asserted.  twin_pairs holds the twin lower primes as an array, so the
    row keeps 8 bytes per pair and pickles as that array.
    """

    interval: BetaSpec
    pi_interval: int
    m0: float
    m_inf: Fraction
    lower_bound: float
    criterion_threshold: Fraction
    residual: float
    logz_crosscheck: float
    pi_approx: float
    residual_approx_pi: float
    twin_pairs: TwinPairs


@dataclass(frozen=True)
class CriterionReport:
    """Exact-threshold twin decision for (x, y] next to the brute-force scan
    (sieve._twin_scan) of the same pass, whose int64 lower primes a
    TwinPairs holds."""

    x: int
    y: int
    P: int
    threshold: Fraction
    m_inf: Fraction
    decision: bool
    brute_force_twins: TwinPairs


def beta_for(x: int, c: float) -> BetaSpec:
    """Exponent and endpoint for the interval (x, x^beta].

    x^beta = x * exp(c/log x); the endpoint is floored to an integer, which
    changes no prime membership.  beta and x_beta are floats; y is the exact
    floor, taken in decimal with 30 more digits than x has and c's exact
    binary value, since a float x_beta can round up onto the next integer
    (x = 9001444428, c = 1.9: 9779415677, a prime, for 9779415676.9999993).
    x below X_MIN, c outside C_RANGE and intervals that collapse to nothing
    are rejected.
    """
    x = int(x)
    c = float(c)
    if x < X_MIN:
        raise ValueError(f"need x >= {X_MIN}")
    lo, hi = C_RANGE
    if not lo <= c <= hi:
        raise ValueError(f"c={c} outside accepted range [{lo}, {hi}]")
    logx = math.log(x)
    beta = 1.0 + c / logx**2
    x_beta = x * math.exp(c / logx)
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(x)) + 30
        dx = decimal.Decimal(x)
        y = math.floor(dx * (decimal.Decimal(c) / dx.ln()).exp())
    if y <= x:
        raise ValueError(f"degenerate interval: floor(x^beta)={y} <= x={x}")
    return BetaSpec(x=x, c=c, beta=beta, x_beta=x_beta, y=y)


def theorem1_report(x: int, c: float) -> Theorem1Row:
    """Means, bounds, and twin data for the interval (x, floor(x^beta)]."""
    bs = beta_for(x, c)
    iv = means.reduce_interval(x, bs.y, (ProductMethod.DIRECT,), criterion=True)
    n = iv.count
    log_t = iv.log_t(ProductMethod.DIRECT)
    logx = math.log(x)
    # 1 - m0 through expm1 keeps the residual accurate when m0 is near 1
    one_minus_m0 = -math.expm1(log_t / n)
    pi_approx = bs.x_beta / (bs.beta * logx)
    return Theorem1Row(
        interval=bs,
        pi_interval=n,
        m0=math.exp(log_t / n),
        m_inf=iv.sup,
        lower_bound=1.0 - c / bs.x_beta,
        criterion_threshold=Fraction(iv.P, iv.P + 2),
        residual=bs.x_beta * one_minus_m0 / c - 1.0,
        logz_crosscheck=(log_t - (2.0 * math.log(bs.beta) - (bs.beta - 1.0) * logx))
        / n,
        pi_approx=pi_approx,
        residual_approx_pi=bs.x_beta * -math.expm1(log_t / pi_approx) / c - 1.0,
        twin_pairs=TwinPairs(iv.twin_lower),
    )


def lemma2_report(x: int, c: float) -> tuple[AsymptoticCheck, BetaSpec, float]:
    """The interval ratio product T over (x, y], y = floor(x^beta), against
    beta^2/x^(beta-1); its BetaSpec; and the DIRECT product relative to the
    TELESCOPED one minus 1.  One streamed pass over the interval reduces its
    primes block by block and never holds them whole."""
    spec = beta_for(x, c)
    iv = means.reduce_interval(x, spec.y, tuple(ProductMethod))
    obs = math.exp(iv.log_t(ProductMethod.DIRECT))
    tele = math.exp(iv.log_t(ProductMethod.TELESCOPED))
    # x^(beta-1) = exp(c/log x), computed without the 1 + tiny exponent round trip
    pred = spec.beta**2 / math.exp(c / math.log(x))
    return AsymptoticCheck(
        x=int(x),
        observed=obs,
        predicted=pred,
        scaled_residual=obs / pred - 1.0,
        scale_note="observed/predicted - 1; expected O(1/log^2 x)",
    ), spec, obs / tele - 1.0


def twin_criterion(x: int, y: int) -> CriterionReport:
    """Decide twin existence in (x, y] from the exact ratio-set sup.

    The decision sup > P/(P+2) (strict) must agree with the brute-force
    scan; the two are computed independently in one pass and both reported.
    """
    iv = means.reduce_interval(x, y, criterion=True)
    threshold = Fraction(iv.P, iv.P + 2)
    return CriterionReport(
        x=int(x),
        y=int(y),
        P=iv.P,
        threshold=threshold,
        m_inf=iv.sup,
        decision=iv.sup > threshold,
        brute_force_twins=TwinPairs(iv.twin_lower),
    )


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _scan_one(task: tuple[int, float]) -> Theorem1Row | str:
    """The row of one x, or the text of the error it raised."""
    try:
        return theorem1_report(*task)
    except Exception as exc:  # collected per row, scan continues
        return _error_text(exc)


def _pool_results(tasks: list[tuple[int, float]], jobs: int) -> list:
    """_scan_one over tasks in a pool of `jobs` worker processes, or one
    per task if there are fewer tasks.

    The pool is imported here, not at module level: concurrent.futures pulls
    in multiprocessing, and only a scan with jobs > 1 needs it.
    """
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def submit(task: tuple[int, float]) -> Future:
        try:
            return pool.submit(_scan_one, task)
        except BrokenProcessPool as exc:   # the pool broke while rows were queued
            fut: Future = Future()
            fut.set_exception(exc)
            return fut

    def result(fut: Future):
        try:
            return fut.result()
        except BrokenProcessPool as exc:   # a worker died: every row it took down fails
            return _error_text(exc)

    # a fork pool starts all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [submit(t) for t in tasks]
        return [result(f) for f in futures]


def theorem1_scan(
    x_values: Sequence[int], c: float, *, jobs: int = 1
) -> tuple[list[Theorem1Row], list[tuple[int, str]]]:
    """theorem1_report across x values; failures collected, order preserved.

    With jobs > 1 a worker process that dies (killed, out of memory) turns
    the rows it had not finished into failures instead of ending the scan.
    """
    tasks = [(int(x), float(c)) for x in x_values]
    if jobs <= 1 or not tasks:
        results: Iterable = map(_scan_one, tasks)
    else:
        results = _pool_results(tasks, jobs)
    rows: list[Theorem1Row] = []
    failures: list[tuple[int, str]] = []
    for (x, _), result in zip(tasks, results):
        if isinstance(result, str):
            failures.append((x, result))
        else:
            rows.append(result)
    return rows, failures
