"""Mertens-type sums and products over primes, with tail-bounded constant
estimates and residual checks against the predicted main terms.

Every reduction is a compensated sum (math.fsum over per-segment partials);
products are evaluated as sums of log1p terms so near-1 factors lose no
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import EmptySetError
from . import sieve
from .sieve import IntervalPrimes, PrimeSeq, prime_stream

if TYPE_CHECKING:
    from .verify import BetaSpec

# Euler-Mascheroni constant, 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082


class ProductMethod(Enum):
    DIRECT = "direct"
    TELESCOPED = "telescoped"


@dataclass(frozen=True)
class ConstantsBundle:
    """Estimated series constants and the values derived from them.

    tail_radius_M and tail_radius_C bound the truncation errors of M and C
    at `cutoff`; tail_radius is the larger of the two.
    """

    cutoff: int
    M: float
    C: float
    D_prime: float
    D: float
    tail_radius: float
    tail_radius_M: float
    tail_radius_C: float


@dataclass(frozen=True)
class AsymptoticCheck:
    """One observed-vs-predicted row; scale_note says how the residual was
    scaled when it is not plain observed/predicted - 1."""

    x: int
    observed: float
    predicted: float
    scaled_residual: float
    scale_note: str


def mertens_sum(
    x: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> float:
    """Compensated sum of 1/p over primes p <= x."""
    x = int(x)
    if x < 2:
        raise ValueError("need x >= 2")
    parts = (
        math.fsum(1.0 / seg)
        for seg in prime_stream(x, cache=cache, segment_size=segment_size)
    )
    return math.fsum(parts)


def mertens_check(
    x: int, m_const: float, *, cache: Optional[PrimeSeq] = None
) -> AsymptoticCheck:
    """Mertens sum against log log x + M; residual scaled by log^2 x."""
    obs = mertens_sum(x, cache=cache)
    pred = math.log(math.log(x)) + m_const
    return AsymptoticCheck(
        x=int(x),
        observed=obs,
        predicted=pred,
        scaled_residual=(obs - pred) * math.log(x) ** 2,
        scale_note="(observed - predicted) * log^2 x; expected bounded",
    )


def estimate_C(
    cutoff: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> tuple[float, float]:
    """Partial sum of -(log(1 - 2/p) + 2/p) over odd primes p <= cutoff.

    Returns (estimate, tail_radius).  Each dropped term is at most 6/p^2,
    so the integral bound 6/cutoff covers the tail.  The estimate increases
    with the cutoff and converges from below.
    """
    cutoff = int(cutoff)
    if cutoff < 3:
        raise ValueError("need cutoff >= 3")
    parts = []
    for seg in prime_stream(cutoff, lo=2, cache=cache, segment_size=segment_size):
        a = 2.0 / seg
        parts.append(math.fsum(np.log1p(-a) + a))
    return -math.fsum(parts), 6.0 / cutoff


def estimate_M(
    cutoff: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> tuple[float, float]:
    """Meissel-Mertens constant via gamma + sum_{p<=cutoff} (log(1-1/p) + 1/p).

    Returns (estimate, tail_radius); dropped terms are below 1/p^2 each, so
    the tail is bounded by 1/cutoff.
    """
    cutoff = int(cutoff)
    if cutoff < 2:
        raise ValueError("need cutoff >= 2")
    parts = []
    for seg in prime_stream(cutoff, cache=cache, segment_size=segment_size):
        a = 1.0 / seg
        parts.append(math.fsum(np.log1p(-a) + a))
    return EULER_GAMMA + math.fsum(parts), 1.0 / cutoff


def derived_constants(
    M: float,
    C: float,
    *,
    cutoff: int = 0,
    tail_radius_M: float = 0.0,
    tail_radius_C: float = 0.0,
) -> ConstantsBundle:
    """Bundle M and C with D' = 2M + C - 1 and D = D' + log 2."""
    if not (math.isfinite(M) and math.isfinite(C)):
        raise ValueError("M and C must be finite")
    d_prime = 2.0 * M + C - 1.0
    return ConstantsBundle(
        cutoff=int(cutoff),
        M=M,
        C=C,
        D_prime=d_prime,
        D=d_prime + math.log(2.0),
        tail_radius=float(max(tail_radius_M, tail_radius_C)),
        tail_radius_M=float(tail_radius_M),
        tail_radius_C=float(tail_radius_C),
    )


def compute_constants(
    cutoff: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> ConstantsBundle:
    """Estimate M and C at one cutoff and derive D', D."""
    m_hat, m_tail = estimate_M(cutoff, cache=cache, segment_size=segment_size)
    c_hat, c_tail = estimate_C(cutoff, cache=cache, segment_size=segment_size)
    return derived_constants(
        m_hat, c_hat, cutoff=cutoff, tail_radius_M=m_tail, tail_radius_C=c_tail
    )


def twin_product(
    x: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> float:
    """(1/2) * product over odd primes p <= x of (1 - 2/p)."""
    x = int(x)
    if x < 3:
        raise ValueError("need x >= 3")
    parts = (
        math.fsum(np.log1p(-2.0 / seg))
        for seg in prime_stream(x, lo=2, cache=cache, segment_size=segment_size)
    )
    return 0.5 * math.exp(math.fsum(parts))


def lemma1_check(
    x: int, consts: ConstantsBundle, *, cache: Optional[PrimeSeq] = None
) -> AsymptoticCheck:
    """Twin-factor product against its predicted decay exp(-D)/log^2 x."""
    obs = twin_product(x, cache=cache)
    pred = math.exp(-consts.D) / math.log(x) ** 2
    return AsymptoticCheck(
        x=int(x),
        observed=obs,
        predicted=pred,
        scaled_residual=obs / pred - 1.0,
        scale_note="observed/predicted - 1; expected O(1/log^2 x)",
    )


def log_t_product(
    ip: IntervalPrimes, method: ProductMethod = ProductMethod.DIRECT
) -> float:
    """log of the consecutive-ratio product T = prod p_n/(p_{n+1}-2) over (x, y].

    DIRECT sums -log1p((gap_n - 2)/p_n) pairwise; TELESCOPED uses the exact
    rearrangement T = ((p_s-2)/(p_e-2)) * prod_{x<p<=y} p/(p-2).  Both are
    compensated and agree to near machine precision; the dual route is kept
    deliberately as a cross-check, do not collapse one into the other.
    """
    ps = ip.primes
    if ps.size == 0:
        raise EmptySetError(f"no primes in ({ip.x}, {ip.y}]")
    if int(ps[0]) <= 2:
        raise ValueError("ratio products need interval primes above 2")
    if method is ProductMethod.DIRECT:
        nxt = np.append(ps[1:], ip.p_e)
        return -math.fsum(np.log1p((nxt - 2 - ps) / ps))
    if method is ProductMethod.TELESCOPED:
        euler = -math.fsum(np.log1p(-2.0 / ps))
        boundary = -math.log1p((ip.p_e - ip.p_s) / (ip.p_s - 2))
        return boundary + euler
    raise ValueError(f"unknown product method {method!r}")


def t_product(
    x: int,
    y: int,
    method: ProductMethod = ProductMethod.DIRECT,
    *,
    segment_size: Optional[int] = None,
    ip: Optional[IntervalPrimes] = None,
) -> float:
    """The interval ratio product T(x, y) for primes in (x, y].

    Pass `ip`, the interval_primes of (x, y], to reuse a sieve pass.
    """
    if ip is None:
        ip = sieve.interval_primes(x, y, segment_size=segment_size)
    elif (ip.x, ip.y) != (int(x), int(y)):
        raise ValueError(f"ip holds ({ip.x}, {ip.y}], not ({x}, {y}]")
    return math.exp(log_t_product(ip, method))


def lemma2_check(
    x: int,
    c: float,
    *,
    segment_size: Optional[int] = None,
    spec: Optional[BetaSpec] = None,
    ip: Optional[IntervalPrimes] = None,
) -> AsymptoticCheck:
    """Interval ratio product against beta^2/x^(beta-1) at y = floor(x^beta).

    A caller that already holds `spec` (verify.beta_for(x, c)) and `ip` (the
    interval_primes of (x, spec.y]) passes them in, so that neither is
    computed twice.
    """
    if spec is None:
        from .verify import beta_for  # deferred: verify builds on this module

        spec = beta_for(x, c)
    elif (spec.x, spec.c) != (int(x), float(c)):
        raise ValueError(f"spec is for x={spec.x}, c={spec.c}, not x={x}, c={c}")
    obs = t_product(
        x, spec.y, ProductMethod.DIRECT, segment_size=segment_size, ip=ip
    )
    # x^(beta-1) = exp(c/log x), computed without the 1 + tiny exponent round trip
    pred = spec.beta**2 / math.exp(c / math.log(x))
    return AsymptoticCheck(
        x=int(x),
        observed=obs,
        predicted=pred,
        scaled_residual=obs / pred - 1.0,
        scale_note="observed/predicted - 1; expected O(1/log^2 x)",
    )
