"""Mertens-type sums and products over primes, with tail-bounded constant
estimates and residual checks against the predicted main terms.

Every reduction is exact: ExactSum returns the correctly rounded sum of all
its float terms, the same bits as one math.fsum over them, however the terms
arrive in segments.  The prime sums of a command come from one sieve pass
(prime_sums), reduced in blocks of at most sieve._BLOCK primes through
term buffers made once per call, so they hold a fixed buffer beyond the
sieve window.  Products are evaluated as sums of log1p terms so near-1
factors lose no precision.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import sieve
from .errors import EmptySetError
from .sieve import IntervalPrimes, PrimeFile, prime_stream

# Euler-Mascheroni constant, 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082

# ExactSum splits a term v of biased exponent be (binade [2^e, 2^(e+1)),
# e = max(be, 1) - 1023) into hi = (v + S) - S, v rounded to a multiple of
# 2^(e-25) by S = _SPLIT[be] = 1.5 * 2^(e+27), and the exact rest lo = v - hi.
# Either part is a multiple of a quantum fixed per binade (2^(e-25),
# 2^(e-52)) of at most 2^26 quanta, so one float bucket per binade and part
# adds up to 2^27 of them without rounding.  Terms from 2^996 up, and
# inf/nan, skip the buckets: their bucket sums could overflow.
#
# A chunk whose nonzero magnitudes span D = top - bot binades takes one
# split for all its terms, at its top binade: every hi is then a multiple of
# 2^(e_top-25) of at most 2^26 quanta, as in the bucket _hi[top], and every
# lo a multiple of 2^(e_bot-52) below 2^(e_top-26), at most 2^(D+26) quanta.
# A chunk of _CHUNK = 2^16 such lo adds up to at most 2^(D+42) quanta, exact
# in a float while D + 26 + log2(_CHUNK) <= 53, i.e. D <= 11.  With D = 0
# that sum fits the bucket _lo[top]; otherwise it is kept as one exact part.
_BIG_BE = 2047 - 28
_SPLIT = 1.5 * np.ldexp(1.0, np.maximum(np.arange(_BIG_BE), 1) - 1023 + 27)
_FOLD_AT = 1 << 26   # terms the buckets take between folds, half the exact limit
_CHUNK = 1 << 16     # terms split at a time, so the temporaries stay small
_PARTS_AT = 1 << 8   # exact parts kept before they go back through the buckets


def _biased_exponent(a: float) -> int:
    """be of a positive finite float; 0 for the subnormals."""
    return max(math.frexp(a)[1] + 1022, 0)


class ExactSum:
    """The correctly rounded float64 sum of every term added.

    The result has the bits of math.fsum over all the terms at once, in
    whatever batches they were added; that makes a segmented reduction
    independent of the segment size.  Terms arrive in chunks of at most
    _CHUNK.  A chunk whose nonzero magnitudes span at most 11 binades
    (53 - 26 - log2(_CHUNK)) is split once at its top binade, and its hi
    and lo parts each have an exact plain sum; any other chunk is split by
    binade into exact float buckets (numpy bincount).  The buckets are
    folded into the exact parts list before they could round, the parts
    list goes back through the buckets when it grows past _PARTS_AT, and
    math.fsum rounds the parts and buckets once at the end.  A chunk split
    once takes one temporary of its size (|v|, then overwritten by hi and
    lo), and the instance keeps no scratch buffer between calls: the
    package adds at most sieve._BLOCK terms at a time, so that temporary is
    block-sized already, and a kept buffer would be held per sum for as long
    as the sum lives.  Reading value leaves the state alone, so it can be
    read between adds.
    """

    def __init__(self, terms=()):
        self._hi = np.zeros(_BIG_BE)
        self._lo = np.zeros(_BIG_BE)
        self._pending = 0              # terms in the buckets since the last fold
        self._parts: list[float] = []  # exact parts: folded buckets, chunk lo sums,
                                       # big or non-finite terms
        self._fold_at = _FOLD_AT       # read here, so a test can patch it
        self.add(terms)

    def add(self, terms) -> None:
        self._feed(np.asarray(terms, dtype=np.float64).ravel())
        if len(self._parts) > _PARTS_AT:
            parts, self._parts = self._parts, []
            self._feed(np.array(parts))

    def _feed(self, v: np.ndarray) -> None:
        step = min(self._fold_at, _CHUNK)
        for i in range(0, v.size, step):
            self._add(v[i : i + step])

    def _add(self, v: np.ndarray) -> None:
        a = np.abs(v)
        most, least = a.max(), a.min()
        if least == 0.0:
            least = a.min(where=a != 0.0, initial=math.inf)
        if math.isfinite(most) and math.isfinite(least):   # least is inf if all are zeros
            top, bot = _biased_exponent(most), _biased_exponent(least)
            if top < _BIG_BE and top - bot <= 53 - 26 - int(math.log2(_CHUNK)):
                self._take(v.size)
                hi = np.add(v, _SPLIT[top], out=a)   # a is spent: hi, then lo, take its place
                hi -= _SPLIT[top]
                self._hi[top] += hi.sum()
                lo = np.subtract(v, hi, out=hi).sum()
                if top == bot:
                    self._lo[top] += lo
                elif lo != 0.0:
                    self._parts.append(float(lo))
                return
        be = (v.view(np.int64) >> 52) & 0x7FF
        if int(be.max()) >= _BIG_BE:
            big = be >= _BIG_BE
            self._parts += v[big].tolist()
            v, be = v[~big], be[~big]
            if v.size == 0:
                return
        self._take(v.size)
        s = _SPLIT[be]
        hi = np.add(v, s, out=a[: v.size])
        hi -= s
        self._hi += np.bincount(be, weights=hi, minlength=_BIG_BE)
        self._lo += np.bincount(be, weights=np.subtract(v, hi, out=s), minlength=_BIG_BE)

    def _take(self, n: int) -> None:
        """Count n more terms into the buckets, folding them first if the
        count would pass the threshold."""
        if self._pending + n > self._fold_at:
            self._fold()
        self._pending += n

    def _fold(self) -> None:
        for b in (self._hi, self._lo):
            self._parts += b[b != 0.0].tolist()
            b[:] = 0.0
        self._pending = 0

    @property
    def value(self) -> float:
        hi, lo = self._hi, self._lo
        return math.fsum(self._parts + hi[hi != 0.0].tolist() + lo[lo != 0.0].tolist())


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


# prime_sums: name -> (smallest limit, what the limit is called)
PRIME_SUMS = {
    "recip": (2, "x"),      # 1/p over p <= limit
    "M": (2, "cutoff"),     # log1p(-1/p) + 1/p over p <= limit
    "C": (3, "cutoff"),     # log1p(-2/p) + 2/p over odd p <= limit
    "twin": (3, "x"),       # log1p(-2/p) over odd p <= limit
}


def _count_upto(seg: np.ndarray, limit: int) -> int:
    if int(seg[-1]) <= limit:
        return int(seg.size)
    return int(np.searchsorted(seg, limit, side="right"))


def prime_sums(
    limits: Mapping[str, int], *, cache: Optional[PrimeFile] = None
) -> dict[str, float]:
    """Exact sums over primes, each up to its own limit, from one pass.

    `limits` maps names of PRIME_SUMS to their limits; the primes are
    streamed once, to the largest, and each window is reduced in blocks of
    at most sieve._BLOCK primes.  The terms of a block are written into four
    buffers allocated once per call: 1/p, which all the terms share, the M
    or C terms, 2/p and log1p(-2/p), which the C and twin terms share.
    Each sum is the correctly rounded sum of its float terms, so neither
    the sieve window size, the block size nor a cache changes it.
    """
    lim = {name: int(x) for name, x in limits.items()}
    if not lim:
        raise ValueError("no prime sum asked for")
    for name, x in lim.items():
        if name not in PRIME_SUMS:
            raise ValueError(f"unknown prime sum {name!r}")
        least, what = PRIME_SUMS[name]
        if x < least:
            raise ValueError(f"need {what} >= {least}")
    acc = {name: ExactSum() for name in lim}
    inv, terms, two_inv, log_a = (np.empty(sieve._BLOCK) for _ in range(4))
    for seg in prime_stream(max(lim.values()), cache=cache):
        for i in range(0, seg.size, inv.size):
            blk = seg[i : i + inv.size]
            n = {name: _count_upto(blk, x) for name, x in lim.items()}
            k = max(n.values())
            a = np.divide(1.0, blk[:k], out=inv[:k])
            if "recip" in n:
                acc["recip"].add(a[: n["recip"]])
            if "M" in n:
                m = np.negative(a[: n["M"]], out=terms[: n["M"]])
                np.log1p(m, out=m)
                m += a[: n["M"]]                  # log1p(-1/p) + 1/p
                acc["M"].add(m)
            odd = 1 if blk[0] == 2 else 0     # C and twin skip p = 2
            c, tw = (max(n.get(name, 0) - odd, 0) for name in ("C", "twin"))
            j = max(c, tw)
            if j:
                a = np.multiply(a[odd : odd + j], 2.0, out=two_inv[:j])   # exactly 2.0/p
                la = np.negative(a, out=log_a[:j])
                np.log1p(la, out=la)
                if "C" in n:
                    acc["C"].add(np.add(la[:c], a[:c], out=terms[:c]))
                if "twin" in n:
                    acc["twin"].add(la[:tw])
        del seg, blk    # freed before the stream's next step
    return {name: acc[name].value for name in lim}


def _m_estimate(s: float, cutoff: int) -> tuple[float, float]:
    """M = gamma + s, s the sum of log(1 - 1/p) + 1/p over p <= cutoff, and
    its tail radius: the dropped terms are below 1/p^2 each, so the tail is
    bounded by 1/cutoff."""
    return EULER_GAMMA + s, 1.0 / int(cutoff)


def _constants(s: Mapping[str, float], cutoff: int) -> ConstantsBundle:
    """The constants from the M and C sums to `cutoff`.  C is minus the sum
    of log(1 - 2/p) + 2/p over odd p <= cutoff; each dropped term is at most
    6/p^2, so 6/cutoff bounds its tail.  It increases with the cutoff and
    converges from below."""
    m_hat, m_tail = _m_estimate(s["M"], cutoff)
    return derived_constants(
        m_hat, -s["C"], cutoff=cutoff, tail_radius_M=m_tail, tail_radius_C=6.0 / int(cutoff)
    )


def mertens_report(
    x: int, cutoff: int, *, cache: Optional[PrimeFile] = None
) -> tuple[AsymptoticCheck, float]:
    """The sum of 1/p over p <= x against log log x + M, its residual scaled
    by log^2 x, and that M, estimated at `cutoff`: one pass to max(x, cutoff)."""
    s = prime_sums({"recip": x, "M": cutoff}, cache=cache)
    m_hat, _ = _m_estimate(s["M"], cutoff)
    obs, pred = s["recip"], math.log(math.log(x)) + m_hat
    return AsymptoticCheck(
        x=int(x),
        observed=obs,
        predicted=pred,
        scaled_residual=(obs - pred) * math.log(x) ** 2,
        scale_note="(observed - predicted) * log^2 x; expected bounded",
    ), m_hat


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
    cutoff: int, *, cache: Optional[PrimeFile] = None
) -> ConstantsBundle:
    """Estimate M and C at one cutoff, in one pass, and derive D', D."""
    s = prime_sums({"M": cutoff, "C": cutoff}, cache=cache)
    return _constants(s, cutoff)


def lemma1_report(
    x: int, cutoff: int, *, cache: Optional[PrimeFile] = None
) -> tuple[AsymptoticCheck, ConstantsBundle]:
    """The twin-factor product (1/2) prod_{2<p<=x} (1 - 2/p) against its
    predicted decay exp(-D)/log^2 x, and the constants, estimated at
    `cutoff`, that give D: one pass to max(x, cutoff)."""
    s = prime_sums({"M": cutoff, "C": cutoff, "twin": x}, cache=cache)
    consts = _constants(s, cutoff)
    obs, pred = 0.5 * math.exp(s["twin"]), math.exp(-consts.D) / math.log(x) ** 2
    return AsymptoticCheck(
        x=int(x),
        observed=obs,
        predicted=pred,
        scaled_residual=obs / pred - 1.0,
        scale_note="observed/predicted - 1; expected O(1/log^2 x)",
    ), consts


def _ratio_primes(x: int, y: int, primes: np.ndarray) -> np.ndarray:
    """The primes of (x, y], returned if they make a ratio set: the one
    gate of means.RatioSet and log_t_product.  An empty interval has no
    ratio, and the prime 2 has none of the form p/(p + k), k >= 0."""
    if not primes.size:
        raise EmptySetError(f"no primes in ({x}, {y}]")
    if int(primes[0]) <= 2:
        raise ValueError("ratio sets need interval primes above 2 (x >= 2)")
    return primes


def _excesses(primes: np.ndarray, p_e: int, out: np.ndarray) -> np.ndarray:
    """The excesses k_n = p_{n+1} - 2 - p_n of the first out.size primes,
    written into the int64 array out and returned; p_e is the prime after
    the last of primes."""
    p = primes[: out.size]
    nxt = primes[1 : 1 + out.size]   # one short where the block ends at p_e
    np.subtract(nxt, p[: nxt.size], out=out[: nxt.size])
    if nxt.size < out.size:
        out[-1] = p_e - int(p[-1])
    out -= 2
    return out


class IntervalProduct:
    """log T over (x, y] by the product routes in `methods`, block by block.

    add(primes, k) takes the primes of one block and their excesses
    k_n = p_{n+1} - 2 - p_n, the last of which reaches into the next block.
    DIRECT sums log1p(k/p); TELESCOPED sums log1p(-2/p) and adds the
    boundary term of p_s, the first prime added, and p_e, the prime past y.
    Each route has its own ExactSum, so any split into blocks gives the
    bits of one sum over the whole interval.  The terms of a block are made
    in one buffer per add, which no route holds past it: a streamed pass
    sieves its next window between adds.

    DIRECT's error budget (u = 2^-53; the C library's log1p is assumed
    within 1 ulp, a relative error of at most 2u): each term is a correctly
    rounded t = k/p, relative error u, which log1p passes on at most
    unchanged since t <= (1 + t) log1p(t), plus log1p's own 2u.  The terms
    share a sign and are summed exactly, then rounded once: the error is at
    most 3u|log T| + ulp(log T)/2, below 3.5 ulp.
    """

    def __init__(self, methods: tuple[ProductMethod, ...]):
        for m in methods:
            if not isinstance(m, ProductMethod):
                raise ValueError(f"unknown product method {m!r}")
        self._sums = {m: ExactSum() for m in methods}
        self.p_s: Optional[int] = None

    def add(self, primes: np.ndarray, k: np.ndarray) -> None:
        if self.p_s is None:
            self.p_s = int(primes[0])
        t = np.empty(primes.size)
        for m, acc in self._sums.items():
            np.divide(k if m is ProductMethod.DIRECT else -2.0, primes, out=t)
            acc.add(np.log1p(t, out=t))

    def log_t(self, method: ProductMethod, p_e: int) -> float:
        s = -self._sums[method].value
        if method is ProductMethod.DIRECT:
            return s
        return -math.log1p((p_e - self.p_s) / (self.p_s - 2)) + s


def log_t_product(
    ip: IntervalPrimes, method: ProductMethod = ProductMethod.DIRECT
) -> float:
    """log of the consecutive-ratio product T = prod p_n/(p_{n+1}-2) over (x, y].

    DIRECT sums -log1p((gap_n - 2)/p_n) pairwise; TELESCOPED uses the exact
    rearrangement T = ((p_s-2)/(p_e-2)) * prod_{x<p<=y} p/(p-2).  Both sum
    their own terms exactly and agree to near machine precision; the dual
    route is kept deliberately as a cross-check, do not collapse one into
    the other.  This is IntervalProduct fed the interval in blocks (_log_t),
    past the gate of a ratio set (_ratio_primes).
    """
    return _log_t(_ratio_primes(ip.x, ip.y, ip.primes), ip.p_e, method)


def _log_t(primes: np.ndarray, p_e: int, method: ProductMethod) -> float:
    """log T of the primes (nonempty, increasing, above 2) and p_e after
    them: IntervalProduct fed blocks of at most sieve._BLOCK primes, their
    excesses k made in one int64 buffer.  means.mean_limit reads it too."""
    prod = IntervalProduct((method,))
    buf = np.empty(min(primes.size, sieve._BLOCK), dtype=np.int64)
    for i in range(0, primes.size, buf.size):
        k = _excesses(primes[i:], p_e, buf[: min(buf.size, primes.size - i)])
        prod.add(primes[i : i + k.size], k)
    return prod.log_t(method, p_e)

