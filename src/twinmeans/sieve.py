"""Segmented prime generation and interval prime queries.

Everything here sieves odd numbers only (2 is special-cased) in windows of
DEFAULT_SEGMENT_SIZE integers, so memory is bounded by the window rather
than the limit.  The window size is a tuning constant, not an option: the
output is bit-identical for any size, and the size is read at call time, so
the tests patch it to show that.  The odd base primes are kept between
calls in one table, grown to the next power of two past sqrt(hi), so a call
costs what its windows hold rather than a rebuild of the primes up to
sqrt(hi).

One private generator, _marked_windows, marks the windows, and every
reader goes through it.  A window starts as a copy of a pre-sieve pattern
that already strikes the multiples of 3, 5, 7, 11 and 13: 15015 flags, one
period of those five primes in odd-index space, copied in at the window's
phase (after primesieve's pre-sieve).  The base primes from 17 on mark the
rest one of two ways.  If many of them hit the window a few times each (a
short window), one scatter marks all their multiples.  Otherwise each prime
marks its multiples with one strided slice.  Windows are marked whole, but
read in spans.  Two readers take the flags:

- the primes reader (iter_prime_segments) turns each span of _SPAN flags
  into one array of primes with nonzero, so no array of a window's primes
  is ever built.  It keeps nonzero on numpy's dense path: that switches to
  a slower sparse path when at most 1/10 of the flags are set, as they are
  past x ~ e^20, so the reader sets a few flags past the span first and
  puts them back after;
- the count reader (prime_count, prime_summary) sums count_nonzero and
  builds no primes, except the few an ends summary asks for.

Every streamed consumer drops the array it was given before it asks for
the next, so while a window is marked no earlier span is held but the one
an interval pass holds back for its successor prime.

An interval (x, y] is sieved in one call together with a short look-ahead
past y, so its primes and the successor prime of y come from one pass.
Each span, clipped at y, is one block of the interval (interval_windows).

A TPC1 cache file is never loaded whole.  load_cache validates it in one
pass of reads of at most _BLOCK entries each and returns a PrimeFile
handle; prime_stream then reads the file the same way, one block at a
time, and prime_summary reads a few entries.  A missing or rejected cache
is written straight from the sieve spans (save_cache), so neither reading
nor building a cache holds every prime.

Results are int64 numpy arrays throughout.  A prime itself fits int64 with
room to spare, but a product of two primes does not: near the
MAX_SIEVE_LIMIT = 1e10 cap, p*q reaches 1e20 > 2^63.  Code that compares
ratios of primes therefore cross-multiplies Python ints, never int64 arrays.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CacheFormatError, CapacityError

# Integers per window: 1 MiB of odd flags, which stays in cache while the
# base primes stride through it.  prime_count(1e8) takes 0.061 s at 2^21
# against 0.077 s at 2^22 and 0.12 s at 2^23 (2 cores, numpy 2.4, Python
# 3.11).  A window this size is marked by slices: its base primes hit it
# 200 times or more each on average, where one scatter pays only below 32
# (_marked_windows).  Read at call time, never bound at import or as a
# default argument, so that patching it (to any size >= 2) reaches the
# kernel and the windows load_cache sieves again.
DEFAULT_SEGMENT_SIZE = 1 << 21
MAX_SIEVE_LIMIT = 10**10

CACHE_MAGIC = b"TPC1"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<QQ")   # limit, count (little-endian u64)
_CACHE_HEAD = len(CACHE_MAGIC) + 1 + _CACHE_HEADER.size   # payload offset, 21


@dataclass(frozen=True)
class PrimeFile:
    """The primes up to `limit` held in a TPC1 cache file: its first `count`
    entries, which load_cache has validated.

    The handle holds no primes.  Each read opens the file, seeks and reads
    only what it asks for, at most _BLOCK entries at a time (_read_blocks),
    so serving a cache takes one block of memory however large the file is.
    A read that comes back short (the file was truncated or replaced since)
    raises CacheFormatError.
    """

    path: str
    limit: int
    count: int

    # The two reads that prime_stream and prime_summary serve a cache with:
    # the number of entries <= v, and entries [a, b).
    def _upto(self, v: int) -> int:
        lo, hi = 0, self.count      # binary search, one 8-byte read a probe
        with open(self.path, "rb") as fh:
            while lo < hi:
                mid = (lo + hi) // 2
                fh.seek(_CACHE_HEAD + 8 * mid)
                if _read_entries(fh, 1)[0] <= v:
                    lo = mid + 1
                else:
                    hi = mid
        return lo

    def _entries(self, a: int, b: int) -> np.ndarray:
        with open(self.path, "rb") as fh:
            fh.seek(_CACHE_HEAD + 8 * a)
            return _read_entries(fh, b - a)


def _read_entries(fh, n: int) -> np.ndarray:
    """The next n entries of an open cache file, as one new int64 array."""
    out = np.empty(n, dtype=np.int64)
    if fh.readinto(out) != out.nbytes:
        raise CacheFormatError("cache file truncated")
    return out


def _read_blocks(fh, n: int) -> Iterator[np.ndarray]:
    """The next n entries of an open cache file, in order: one new int64
    array of at most _BLOCK entries per read, each freed before the next
    is read."""
    for a in range(0, n, _BLOCK):
        block = _read_entries(fh, min(_BLOCK, n - a))
        yield block
        del block


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


# The pre-sieve: 3*5*7*11*13 = 15015 consecutive odd numbers, as flags in
# odd-index space (flag i stands for 2i + 1), False on the multiples of those
# five primes.  The pattern repeats with that period, so a window starting at
# the odd number cur takes it at phase ((cur - 1)/2) mod 15015.
_PRESIEVED = (3, 5, 7, 11, 13)


def _presieve_pattern() -> np.ndarray:
    pattern = np.ones(math.prod(_PRESIEVED), dtype=bool)
    for p in _PRESIEVED:
        pattern[p // 2 :: p] = False
    return pattern


_PATTERN = _presieve_pattern()


def _presieve(flags: np.ndarray, cur: int) -> None:
    """Set flags[j] to whether cur + 2j has no prime factor <= 13.

    The pattern goes in once at the window's phase (two copies) and then
    doubles in place, whole periods at a time, so no window-long copy of
    the pattern is ever kept.
    """
    k, period = flags.size, _PATTERN.size
    phase = (cur - 1) // 2 % period
    m = min(k, period)
    a = min(m, period - phase)
    flags[:a] = _PATTERN[phase : phase + a]
    flags[a:m] = _PATTERN[: m - a]
    while m < k:               # m is a multiple of the period here
        step = min(m, k - m)
        flags[m : m + step] = flags[:step]
        m += step
    if cur <= _PRESIEVED[-1]:  # the pre-sieved primes themselves are prime
        for p in _PRESIEVED:
            if cur <= p < cur + 2 * k:
                flags[(p - cur) // 2] = True


# The kept base table: (limit, odd primes <= limit, their squares), limit a
# power of two.  It is replaced whole, in one assignment, so a reader never
# pairs the primes of one build with the squares of another.  At the cap it
# holds the 12,250 odd primes < 2^17.
_base: tuple[int, np.ndarray, np.ndarray] = (0, *(np.empty(0, dtype=np.int64),) * 2)


def _base_primes(root: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes 17 <= p <= root with their squares, as views of the
    table (3 to 13 are pre-sieved, _presieve).

    The table grows to the next power of two past root, at least doubling,
    so calls up to a given root rebuild it O(log root) times at most.
    """
    global _base
    table = _base
    if root > table[0]:
        limit = 1 << root.bit_length()
        primes = _dense_primes(limit)[1:]
        table = _base = (limit, primes, primes * primes)
    n = int(np.searchsorted(table[1], root, side="right"))
    s = len(_PRESIEVED)
    return table[1][s:n], table[2][s:n]


def _marked_windows(
    lo: int, hi: int, max_limit: Optional[int] = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (cur, k, buf) for each window of the numbers in (lo, hi].

    buf[j] for j < k is True exactly when cur + 2j is prime: the windows
    cover the odd numbers of (lo, hi] in increasing order, DEFAULT_SEGMENT_SIZE
    integers each, with 2 (when lo < 2 <= hi) as a window of its own with
    cur = 2, k = 1.  buf is reused, so it is valid until the next step, and
    it holds k//9 + 1 spare flags past k that a reader may overwrite
    (_span_primes).  Every reader of the sieve goes through here.  Raises
    CapacityError when hi exceeds the cap (MAX_SIEVE_LIMIT unless overridden).
    """
    cap = MAX_SIEVE_LIMIT if max_limit is None else int(max_limit)
    lo, hi = int(lo), int(hi)
    if hi > cap:
        raise CapacityError(f"limit {hi} exceeds configured maximum {cap}")
    if hi < 2 or hi <= lo:
        return
    if lo < 2:
        yield 2, 1, np.ones(2, dtype=bool)
    cur = max(lo + 1, 3) | 1
    if cur > hi:
        return
    base, square = _base_primes(math.isqrt(hi))
    odds_per_seg = DEFAULT_SEGMENT_SIZE // 2
    k = min(odds_per_seg, (hi - cur) // 2 + 1)
    buf = np.empty(k + k // 9 + 1, dtype=bool)
    while cur <= hi:
        k = min(odds_per_seg, (hi - cur) // 2 + 1)
        end = cur + 2 * k          # exclusive, odd-aligned
        flags = buf[:k]
        _presieve(flags, cur)
        # odd-index j of the first odd multiple of p from max(p*p, cur).
        # cur + 2j is an odd multiple of p exactly when 2j = -cur (mod p);
        # p - cur is even, so j = ((p - cur)/2) mod p, the least such j (one
        # int64 modulo, the costly step of a short window).  The base is
        # sorted, so the primes with p*p >= cur are a suffix, and those with
        # p*p >= end miss the window altogether.
        s, e = square.searchsorted((cur, end)).tolist()
        p = base[:s]
        j = ((p - cur) >> 1) % p
        hit = np.flatnonzero(j < k)
        p, j = p[hit], j[hit]
        if e > s:
            p = np.concatenate((p, base[s:e]))
            j = np.concatenate((j, (square[s:e] - cur) >> 1))
        # odd multiples of p sit p apart in odd-index space.  Counted in
        # slices, a scattered index costs 1/32 and the scatter itself 32
        # more, so scatter when p.size > hits/32 + 32 (which needs > 32)
        scatter = p.size > 32
        if scatter:
            count = (k - 1 - j) // p + 1
            scatter = 32 * p.size > int(count.sum()) + 1024
        if scatter:
            # one scatter over every index, laid out as runs of step p
            # that cumsum turns into indices
            step = np.repeat(p, count)
            starts = np.cumsum(count) - count
            step[starts] = j
            step[starts[1:]] -= j[:-1] + (count[:-1] - 1) * p[:-1]
            flags[np.cumsum(step)] = False
        else:
            for pi, ji in zip(p.tolist(), j.tolist()):
                flags[ji::pi] = False
        yield cur, k, buf
        cur = end


def _span_primes(cur: int, k: int, buf: np.ndarray) -> np.ndarray:
    """The primes of the k marked flags buf[:k], increasing int64, with
    buf[j] standing for cur + 2j (the primes reader)."""
    n = int(np.count_nonzero(buf[:k]))
    if not n:
        return np.empty(0, dtype=np.int64)
    # numpy's nonzero on bools switches to a sparse memchr path, about 2.5x
    # slower here, when at most 1/10 of the flags are set; past x ~ e^20
    # the odd primes are that sparse.  pad True flags past the span keep
    # more than 1/10 of the flags read set, (n + pad)*10 > k + pad, and the
    # first n indices are the span's own.  The pad may cover the flags of
    # the next span, so they are saved and put back.
    pad = max(0, (k - 10 * n) // 9 + 1)
    saved = buf[k : k + pad].copy()
    buf[k : k + pad] = True
    block = buf[: k + pad].nonzero()[0][:n].astype(np.int64, copy=False)
    buf[k : k + pad] = saved
    block *= 2
    block += cur
    return block


def _spans(cur: int, k: int, buf: np.ndarray) -> Iterator[np.ndarray]:
    """The primes of one marked window, one nonempty array per span of
    _SPAN flags (2*_SPAN integers); each is freed before the next is read."""
    span = _SPAN
    for s in range(0, k, span):
        block = _span_primes(cur + 2 * s, min(span, k - s), buf[s:])
        if block.size:
            yield block
        del block


def iter_prime_segments(
    lo: int, hi: int, *, max_limit: Optional[int] = None
) -> Iterator[np.ndarray]:
    """Yield the primes p with lo < p <= hi as increasing int64 arrays.

    Each window of DEFAULT_SEGMENT_SIZE integers is marked whole and read in
    spans of _SPAN flags, one array per span that holds a prime, so an
    array holds one span's primes, never a window's.  Window and span
    boundaries never change the concatenated output, only how much memory
    a step takes.  Raises CapacityError when hi exceeds the cap
    (MAX_SIEVE_LIMIT unless overridden).
    """
    for window in _marked_windows(lo, hi, max_limit):
        yield from _spans(*window)


def prime_stream(hi: int, *, cache: Optional[PrimeFile] = None) -> Iterator[np.ndarray]:
    """Primes up to hi, served from `cache` when it covers them.

    A cache serves its entries <= hi from one open file, in order, one
    read of at most _BLOCK entries at a time (_read_blocks), so what a
    consumer builds per array stays block-sized either way.
    """
    if cache is not None and cache.limit >= hi:
        with open(cache.path, "rb") as fh:
            fh.seek(_CACHE_HEAD)
            yield from _read_blocks(fh, cache._upto(hi))
        return
    yield from iter_prime_segments(1, hi)


def primes_up_to(limit: int) -> np.ndarray:
    """Materialize all primes <= limit, as one increasing int64 array.

    Mind the memory: the result holds pi(limit) int64 values even though the
    sieving itself is windowed.  It holds them once: one array grows in
    place (realloc) by each window, with no list of windows to concatenate.
    """
    limit = int(limit)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    primes = np.empty(0, dtype=np.int64)
    for seg in iter_prime_segments(1, limit):
        n = primes.size
        primes.resize(n + seg.size, refcheck=False)
        primes[n:] = seg
    return primes


def _last_primes(cur: int, flags: np.ndarray, m: int) -> list[int]:
    """The last m primes of a marked window, or all it holds if fewer.

    The last 64*m flags hold 128*m/log(x) primes on average, more than 5*m
    below the cap, so they nearly always hold m; the whole window is read
    when they do not.
    """
    start = max(0, flags.size - 64 * m)
    idx = np.flatnonzero(flags[start:])
    if idx.size < m and start:
        start, idx = 0, np.flatnonzero(flags)
    return ((idx[-m:] + start) * 2 + cur).tolist()


def prime_summary(
    limit: int, ends: int, *, cache: Optional[PrimeFile] = None
) -> tuple[int, list[int], list[int]]:
    """pi(limit) with the first and the last `ends` primes <= limit.

    One pass over (1, limit] counts every window (count_nonzero).  It builds
    the primes of a window only while the head is short of `ends`, and takes
    the tail from the last `ends` primes of each window, found by a short
    search back from its end.  A cache that covers limit is read instead:
    the count by one binary search, the head and the tail by two short reads.
    """
    limit = int(limit)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if cache is not None and cache.limit >= limit:
        count = cache._upto(limit)
        head = cache._entries(0, min(ends, count))
        return count, head.tolist(), cache._entries(max(0, count - ends), count).tolist()
    count, head, tail = 0, [], []
    for cur, k, buf in _marked_windows(1, limit):
        n = int(np.count_nonzero(buf[:k]))
        count += n
        if n and len(head) < ends:
            for block in _spans(cur, k, buf):
                head += block[: ends - len(head)].tolist()
                if len(head) == ends:
                    break
        if n and ends:
            tail = (tail + _last_primes(cur, buf[:k], ends))[-ends:]
    return count, head, tail


def prime_count(x: int, *, cache: Optional[PrimeFile] = None) -> int:
    """Exact number of primes <= x, counted without building them: the sum
    of count_nonzero over the marked windows of (1, x], or one search of a
    cache that covers x."""
    return prime_summary(x, 0, cache=cache)[0]


def _probe_width(n: int) -> int:
    """The first look-ahead past n for its successor prime: about log(n)^2
    integers, which reach the next prime for every n up to the cap (the
    maximal prime gaps there stay below log(p)^2)."""
    return max(64, int(math.log(n) ** 2) + 1)


def next_prime_after(n: int) -> int:
    """Smallest prime > n, via geometrically growing sieve windows.

    Raises CapacityError, before any sieving, for n past MAX_SIEVE_LIMIT
    plus its probe width: the last n an interval pass at the cap asks for.
    """
    n = int(n)
    if n < 2:
        return 2
    cap = MAX_SIEVE_LIMIT + _probe_width(MAX_SIEVE_LIMIT)
    if n > cap:
        raise CapacityError(f"next prime after {n}: past the configured maximum {cap}")
    window = _probe_width(n)
    while True:
        hi = n + window
        for seg in iter_prime_segments(n, hi, max_limit=hi):
            return int(seg[0])
        window *= 2


# Entries per cache read (_read_blocks) and primes per block of prime_sums
# (analytic) and the ratio-set reductions (means), read at call time: 128 KB
# an array.  Per-window temporaries had glibc trim and refault the heap: in
# process, mertens_report(1e8, 1e8) took 26.8K minor faults and peaked 3.9
# MB higher than with blocks (1.5K).  lemma1_report(1e8, 1e8) took 0.290 s
# with 2^13, 0.268 s with 2^14 and 0.270 s with 2^16, and 2^16 peaked
# 1.3-2.4 MB higher (medians of 7; 2 cores, numpy 2.4, Python 3.11).
_BLOCK = 1 << 14

# Flags per span of the primes reader (iter_prime_segments), read at call
# time: 2^18 integers, 8 blocks' worth of flags, read where a whole
# window's primes took ~0.85 MB.  A span is one block of an interval pass:
# 12.6K-14.2K primes on average near 1e8 to 1e9, up to pi(2^18) = 23,000
# below ~1e7.  The spans add ~8 short nonzero calls per window, within the
# noise of the streamed reports' timings.
_SPAN = 8 * _BLOCK


def _interval_pass(x: int, y: int) -> Iterator[tuple[np.ndarray, int]]:
    """interval_windows, except that an interval without primes yields one
    (empty, p_e) from the same pass instead of nothing.

    Each span of iter_prime_segments, clipped at y, is one block, and it
    waits whole for the next span's first prime.
    """
    x, y = int(x), int(y)
    if not 0 < x < y:
        raise ValueError("need 0 < x < y")
    if y > MAX_SIEVE_LIMIT:
        raise CapacityError(f"limit {y} exceeds configured maximum {MAX_SIEVE_LIMIT}")
    hi = y + _probe_width(y)
    held = np.empty(0, dtype=np.int64)
    for seg in iter_prime_segments(x, hi, max_limit=hi):
        if held.size:
            yield held, int(seg[0])
        cut = int(np.searchsorted(seg, y, side="right"))
        if cut < seg.size:      # seg[cut] is the first prime past y
            if cut or not held.size:    # empty only for an interval without primes
                yield seg[:cut], int(seg[cut])
            return
        held = seg
    yield held, next_prime_after(hi)


def interval_windows(x: int, y: int) -> Iterator[tuple[np.ndarray, int]]:
    """Yield (primes, p_next) for each block of the primes in (x, y]: the
    primes of one span of a sieve window (iter_prime_segments), clipped at
    y, and the prime after the last.

    One sieve pass over (x, y + w], w = _probe_width(y), gives both; only
    when (y, y + w] holds no prime does next_prime_after search on.  A
    block waits for the next span's first prime and is dropped here before
    the next step, so a consumer that drops it too holds none while the
    next span is sieved.  An interval without primes yields nothing.  The
    cap applies to y; the look-ahead past y may pass it.
    """
    for primes, p_next in _interval_pass(x, y):
        if primes.size:
            yield primes, p_next
        del primes


def interval_primes(x: int, y: int) -> IntervalPrimes:
    """Primes in (x, y] together with the boundary primes p_s, P, p_e.

    Mind the memory: the result holds every prime of the interval, built
    from the blocks plus their concatenated copy; a one-pass reduction can
    stream interval_windows instead (means.reduce_interval).  An interval
    without primes takes p_e, which is then also p_s, from the same pass.
    """
    windows = list(_interval_pass(x, y))
    primes = np.concatenate([w for w, _ in windows])
    p_e = windows[-1][1]
    return IntervalPrimes(
        x=int(x),
        y=int(y),
        primes=primes,
        p_s=int(primes[0]) if primes.size else p_e,
        P=int(primes[-1]) if primes.size else None,
        p_e=p_e,
    )


def max_gap_up_to(limit: int, *, cache: Optional[PrimeFile] = None) -> GapRecord:
    """Largest consecutive-prime gap with both primes <= limit."""
    limit = int(limit)
    if limit < 3:
        raise ValueError("need limit >= 3 so at least one gap exists")
    best_gap = 0
    best_lower = 0
    prev = None
    for seg in prime_stream(limit, cache=cache):
        if prev is not None:
            boundary = int(seg[0]) - prev
            if boundary > best_gap:
                best_gap, best_lower = boundary, prev
        if seg.size > 1:
            gaps = np.diff(seg)
            i = int(np.argmax(gaps))   # argmax takes the first maximum: earliest tie
            if int(gaps[i]) > best_gap:
                best_gap, best_lower = int(gaps[i]), int(seg[i])
            del gaps
        prev = int(seg[-1])
        del seg     # freed before the next step is sieved or read
    return GapRecord(limit=limit, gap=best_gap, lower_prime=best_lower)


def twin_pairs_in(x: int, y: int) -> np.ndarray:
    """The lower primes p of the twin pairs (p, p+2) with x < p <= y, as an
    increasing int64 array.

    A brute-force scan: each prime p is looked up with p + 2 among the
    primes of (x, y + 2], window by window, with the last prime of a window
    carried into the next.  The array grows in place (realloc), so the
    pairs are never held twice.  The cap applies to y; the look-ahead to
    y + 2 for a co-twin may pass it.
    """
    x, y = int(x), int(y)
    if not 0 < x < y:
        raise ValueError("need 0 < x < y")
    if y > MAX_SIEVE_LIMIT:
        raise CapacityError(f"limit {y} exceeds configured maximum {MAX_SIEVE_LIMIT}")
    lower = np.empty(0, dtype=np.int64)
    carry = np.empty(0, dtype=np.int64)
    for seg in iter_prime_segments(x, y + 2, max_limit=y + 2):
        arr = np.concatenate((carry, seg))
        # the last prime waits for the next window, where p + 2 would be
        head = arr[:-1]
        idx = np.minimum(np.searchsorted(arr, head + 2), arr.size - 1)
        t, n = head[arr[idx] == head + 2], lower.size   # arr <= y + 2, so head <= y
        lower.resize(n + t.size, refcheck=False)
        lower[n:] = t
        carry = arr[-1:].copy()    # a view would keep arr
        del seg, arr, head, idx, t
    return lower


def save_cache(limit: int, path: str) -> PrimeFile:
    """Write the TPC1 cache file of the primes up to `limit` (atomic
    replace) and return a handle on it.

    The primes are sieved and written span by span, so the build holds
    one span of primes, not all of them.  The header goes first with
    count 0 and is patched once the count is known; the file is then
    renamed into place.
    On any exception, interrupts included, the temporary file is removed,
    so a failed build leaves neither it nor a partial cache at `path`.
    """
    limit = int(limit)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC + bytes([CACHE_VERSION]) + _CACHE_HEADER.pack(limit, 0))
            count = 0
            for w in iter_prime_segments(1, limit):
                # the bytes of u64 for entries >= 0, and no copy of int64
                w.astype("<i8", copy=False).tofile(fh)
                count += w.size
                del w
            fh.seek(len(CACHE_MAGIC) + 1)
            fh.write(_CACHE_HEADER.pack(limit, count))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return PrimeFile(path=path, limit=limit, count=count)


def load_cache(path: str) -> PrimeFile:
    """Validate a TPC1 cache file and return a handle on it.

    The header is checked first: magic, version, a limit within
    MAX_SIEVE_LIMIT, and the payload size against the recorded count.  Then
    one pass reads the entries in blocks of at most _BLOCK (_read_blocks),
    so it takes one block of memory whatever the size of the file, and
    checks that they increase strictly, within and across blocks, and lie
    in (1, limit]; read as int64, a u64 entry past 2^63 turns negative,
    which that rejects too.  Then the first and the last DEFAULT_SEGMENT_SIZE
    window of (1, limit] are sieved again one span at a time, and every
    span must equal the stored entries read beside it.  A prime missing or
    added in between is not seen; a whole-file check against an independent
    prime count is still open (ROADMAP, item 2), and this pass is where it
    goes.  Any failure raises CacheFormatError so the caller can rebuild.
    """
    with open(path, "rb") as fh:
        blob = fh.read(_CACHE_HEAD)
        if len(blob) < _CACHE_HEAD:
            raise CacheFormatError("cache file truncated")
        if blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
            raise CacheFormatError("bad cache magic")
        if blob[len(CACHE_MAGIC)] != CACHE_VERSION:
            raise CacheFormatError(f"unsupported cache version {blob[len(CACHE_MAGIC)]}")
        limit, count = _CACHE_HEADER.unpack_from(blob, len(CACHE_MAGIC) + 1)
        if limit > MAX_SIEVE_LIMIT:
            raise CacheFormatError(f"cache limit {limit} exceeds {MAX_SIEVE_LIMIT}")
        if os.fstat(fh.fileno()).st_size - _CACHE_HEAD != 8 * count:
            raise CacheFormatError("cache payload size does not match recorded count")
        last = 1
        for block in _read_blocks(fh, count):
            if int(block[0]) <= last or np.any(block[1:] <= block[:-1]) or int(block[-1]) > limit:
                raise CacheFormatError("cache primes not strictly increasing within limit")
            last = int(block[-1])
        pf = PrimeFile(path=path, limit=int(limit), count=int(count))
        seg = DEFAULT_SEGMENT_SIZE
        for lo, hi in {(1, min(limit, 1 + seg)), (max(1, limit - seg), limit)}:
            a, b = pf._upto(lo), pf._upto(hi)
            fh.seek(_CACHE_HEAD + 8 * a)
            for span in iter_prime_segments(lo, hi):
                a += span.size
                if a > b or not np.array_equal(_read_entries(fh, span.size), span):
                    break
                del span
            else:   # every span matched: so must the count
                if a == b:
                    continue
            raise CacheFormatError(f"cache primes in ({lo}, {hi}] differ from a fresh sieve")
    return pf


def cached_primes_up_to(limit: int, path: str) -> PrimeFile:
    """Primes up to `limit` backed by a cache file, as a handle on it.

    A valid cache with a limit at least as large serves a prefix: a handle
    on its entries <= limit.  Anything else (missing, corrupt, too small)
    is sieved and written again span by span (save_cache), so neither
    the read nor the rebuild holds every prime.  A file that load_cache
    rejects is reported with a RuntimeWarning, naming the path and the
    reason, before it is replaced; a missing or too small one is not.
    """
    limit = int(limit)
    try:
        pf = load_cache(path)
    except FileNotFoundError:
        pf = None
    except CacheFormatError as exc:
        warnings.warn(f"rebuilding prime cache {path}: {exc}", RuntimeWarning, stacklevel=2)
        pf = None
    if pf is not None and pf.limit >= limit:
        return PrimeFile(path=path, limit=limit, count=pf._upto(limit))
    return save_cache(limit, path)
