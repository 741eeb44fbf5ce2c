"""Segmented prime generation and interval prime queries.

Everything here sieves odd numbers only (2 is special-cased) in fixed-size
windows, so memory is bounded by the segment size rather than the limit, and
the output is bit-identical for any segment size.  Results are int64 numpy
arrays throughout.  A prime itself fits int64 with room to spare, but a
product of two primes does not: near the MAX_SIEVE_LIMIT = 1e10 cap, p*q
reaches 1e20 > 2^63.  Code that compares ratios of primes therefore
cross-multiplies Python ints, never int64 arrays.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CacheFormatError, CapacityError

DEFAULT_SEGMENT_SIZE = 1 << 23   # integers per window, ~4 MiB of odd flags
MAX_SIEVE_LIMIT = 10**10
_MIN_SEGMENT_SIZE = 16

CACHE_MAGIC = b"TPC1"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<QQ")   # limit, count (little-endian u64)


@dataclass(eq=False)
class PrimeSeq:
    """All primes up to `limit`, strictly increasing."""

    limit: int
    primes: np.ndarray


@dataclass(eq=False)
class IntervalPrimes:
    """Primes in the half-open interval (x, y], plus the boundary primes.

    p_s is the first prime > x (equals primes[0] when the interval is
    nonempty, else the first prime past y).  P is the largest prime <= y,
    None when the interval holds no prime.  p_e is the first prime > y.
    """

    x: int
    y: int
    primes: np.ndarray
    p_s: int
    P: Optional[int]
    p_e: int


@dataclass(frozen=True)
class GapRecord:
    """Largest gap between consecutive primes that both lie <= limit.

    Ties are resolved toward the earliest (smallest) lower prime.
    """

    limit: int
    gap: int
    lower_prime: int


def _dense_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a dense boolean sieve; used for base primes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def iter_prime_segments(
    lo: int,
    hi: int,
    *,
    segment_size: Optional[int] = None,
    max_limit: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield the primes p with lo < p <= hi as increasing int64 arrays.

    Segment boundaries never change the concatenated output, only how much
    memory a window takes.  Raises CapacityError when hi exceeds the cap
    (MAX_SIEVE_LIMIT unless overridden).
    """
    seg = DEFAULT_SEGMENT_SIZE if segment_size is None else int(segment_size)
    if seg < _MIN_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be >= {_MIN_SEGMENT_SIZE}")
    cap = MAX_SIEVE_LIMIT if max_limit is None else int(max_limit)
    lo, hi = int(lo), int(hi)
    if hi > cap:
        raise CapacityError(f"limit {hi} exceeds configured maximum {cap}")
    if hi < 2 or hi <= lo:
        return
    if lo < 2:
        yield np.array([2], dtype=np.int64)
    cur = max(lo + 1, 3)
    if cur % 2 == 0:
        cur += 1
    if cur > hi:
        return
    odd_base = [int(p) for p in _dense_primes(math.isqrt(hi))[1:]]
    odds_per_seg = max(seg // 2, _MIN_SEGMENT_SIZE // 2)
    while cur <= hi:
        k = min(odds_per_seg, (hi - cur) // 2 + 1)
        end = cur + 2 * k          # exclusive, odd-aligned
        flags = np.ones(k, dtype=bool)
        for p in odd_base:
            m = p * p
            if m >= end:
                break
            if m < cur:
                m = ((cur + p - 1) // p) * p
                if m % 2 == 0:
                    m += p
                if m >= end:
                    continue
            # odd multiples of p sit p apart in odd-index space
            flags[(m - cur) >> 1 :: p] = False
        block = cur + 2 * np.flatnonzero(flags).astype(np.int64)
        if block.size:
            yield block
        cur = end


def prime_stream(
    hi: int,
    *,
    lo: int = 1,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
    max_limit: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Primes in (lo, hi], served from `cache` when it covers the range."""
    if cache is not None and cache.limit >= hi:
        arr = cache.primes
        a = int(np.searchsorted(arr, lo, side="right"))
        b = int(np.searchsorted(arr, hi, side="right"))
        if b > a:
            yield arr[a:b]
        return
    yield from iter_prime_segments(
        lo, hi, segment_size=segment_size, max_limit=max_limit
    )


def primes_up_to(
    limit: int,
    *,
    segment_size: Optional[int] = None,
    max_limit: Optional[int] = None,
) -> PrimeSeq:
    """Materialize all primes <= limit.

    Mind the memory: the result holds pi(limit) int64 values even though the
    sieving itself is windowed.
    """
    limit = int(limit)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    chunks = list(
        iter_prime_segments(1, limit, segment_size=segment_size, max_limit=max_limit)
    )
    primes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return PrimeSeq(limit=limit, primes=primes)


def prime_count(
    x: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> int:
    """Exact number of primes <= x, counted without materializing them."""
    x = int(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    return sum(
        int(seg.size)
        for seg in prime_stream(x, cache=cache, segment_size=segment_size)
    )


def next_prime_after(n: int) -> int:
    """Smallest prime > n, via geometrically growing sieve windows."""
    n = int(n)
    if n < 2:
        return 2
    window = max(64, int(math.log(n) ** 2) + 1)
    while True:
        hi = n + window
        for seg in iter_prime_segments(n, hi, max_limit=hi):
            return int(seg[0])
        window *= 2


def interval_primes(
    x: int, y: int, *, segment_size: Optional[int] = None
) -> IntervalPrimes:
    """Primes in (x, y] together with the boundary primes p_s, P, p_e."""
    x, y = int(x), int(y)
    if not 0 < x < y:
        raise ValueError("need 0 < x < y")
    chunks = list(iter_prime_segments(x, y, segment_size=segment_size))
    primes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    p_e = next_prime_after(y)
    if primes.size:
        p_s, big = int(primes[0]), int(primes[-1])
        return IntervalPrimes(x=x, y=y, primes=primes, p_s=p_s, P=big, p_e=p_e)
    return IntervalPrimes(x=x, y=y, primes=primes, p_s=p_e, P=None, p_e=p_e)


def max_gap_up_to(
    limit: int,
    *,
    cache: Optional[PrimeSeq] = None,
    segment_size: Optional[int] = None,
) -> GapRecord:
    """Largest consecutive-prime gap with both primes <= limit."""
    limit = int(limit)
    if limit < 3:
        raise ValueError("need limit >= 3 so at least one gap exists")
    best_gap = 0
    best_lower = 0
    prev = None
    for seg in prime_stream(limit, cache=cache, segment_size=segment_size):
        if prev is not None:
            boundary = int(seg[0]) - prev
            if boundary > best_gap:
                best_gap, best_lower = boundary, prev
        if seg.size > 1:
            gaps = np.diff(seg)
            i = int(np.argmax(gaps))   # argmax takes the first maximum: earliest tie
            if int(gaps[i]) > best_gap:
                best_gap, best_lower = int(gaps[i]), int(seg[i])
        prev = int(seg[-1])
    return GapRecord(limit=limit, gap=best_gap, lower_prime=best_lower)


def twin_pairs_in(
    x: int, y: int, *, segment_size: Optional[int] = None
) -> list[tuple[int, int]]:
    """Twin pairs (p, p+2), both prime, with x < p <= y.

    The cap applies to y; the look-ahead to y + 2 for a co-twin may pass it.
    """
    x, y = int(x), int(y)
    if not 0 < x < y:
        raise ValueError("need 0 < x < y")
    if y > MAX_SIEVE_LIMIT:
        raise CapacityError(f"limit {y} exceeds configured maximum {MAX_SIEVE_LIMIT}")
    chunks = list(
        iter_prime_segments(x, y + 2, segment_size=segment_size, max_limit=y + 2)
    )
    if not chunks:
        return []
    arr = np.concatenate(chunks)
    idx = np.minimum(np.searchsorted(arr, arr + 2), arr.size - 1)
    mask = (arr[idx] == arr + 2) & (arr <= y)
    return [(int(p), int(p) + 2) for p in arr[mask]]


def save_cache(ps: PrimeSeq, path: str) -> None:
    """Write a PrimeSeq as a TPC1 cache file (atomic replace)."""
    payload = ps.primes.astype("<u8").tobytes()
    header = (
        CACHE_MAGIC
        + bytes([CACHE_VERSION])
        + _CACHE_HEADER.pack(ps.limit, ps.primes.size)
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)


def load_cache(path: str) -> PrimeSeq:
    """Read and validate a TPC1 cache file.

    Checks magic, version, payload size against the recorded count, strict
    monotonicity, and that no entry exceeds the recorded limit.  Any failure
    raises CacheFormatError so the caller can rebuild.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(CACHE_MAGIC) + 1 + _CACHE_HEADER.size
    if len(blob) < head:
        raise CacheFormatError("cache file truncated")
    if blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheFormatError("bad cache magic")
    if blob[len(CACHE_MAGIC)] != CACHE_VERSION:
        raise CacheFormatError(f"unsupported cache version {blob[len(CACHE_MAGIC)]}")
    limit, count = _CACHE_HEADER.unpack_from(blob, len(CACHE_MAGIC) + 1)
    if len(blob) - head != 8 * count:
        raise CacheFormatError("cache payload size does not match recorded count")
    raw = np.frombuffer(blob, dtype="<u8", offset=head)
    if raw.size and (np.any(raw[1:] <= raw[:-1]) or int(raw[-1]) > limit):
        raise CacheFormatError("cache primes not strictly increasing within limit")
    return PrimeSeq(limit=int(limit), primes=raw.astype(np.int64))


def cached_primes_up_to(
    limit: int, path: str, *, segment_size: Optional[int] = None
) -> PrimeSeq:
    """Primes up to `limit` backed by a cache file.

    A valid cache with a limit at least as large serves a prefix; anything
    else (missing, corrupt, too small) is rebuilt and rewritten.
    """
    limit = int(limit)
    try:
        ps = load_cache(path)
    except (FileNotFoundError, CacheFormatError):
        ps = None
    if ps is not None and ps.limit >= limit:
        cut = int(np.searchsorted(ps.primes, limit, side="right"))
        return PrimeSeq(limit=limit, primes=ps.primes[:cut].copy())
    fresh = primes_up_to(limit, segment_size=segment_size)
    save_cache(fresh, path)
    return fresh
