"""Property tests of the sieve kernel against trial division.

sieve._marked_windows starts each window from the pre-sieve pattern (the
multiples of 3 to 13, period 15015 flags) and then marks it either with one
slice per base prime or, when many primes hit a window a few times each,
with one scatter.  Short windows near 1e10 and mid-size windows below 1e6
take the scatter; windows of a few dozen integers take the slices.  The
drawn segment sizes (16 to 2^14) and ranges reach both.  Two readers take
the flags: the primes reader (iter_prime_segments), whose pad past the
window is largest where primes are sparsest, near 1e10, and the count
reader (count_nonzero per window, prime_count, prime_summary).  Both must
agree with the oracle whatever the windows.
"""

import functools
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinmeans import sieve

import _oracles as oracle

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

segment_sizes = st.integers(16, 1 << 14)
PERIOD = 3 * 5 * 7 * 11 * 13      # flags per period of the pre-sieve pattern


def sieved(lo: int, hi: int, segment_size=None) -> list[int]:
    """The primes of (lo, hi] sieved in windows of segment_size integers
    (the default when None); each chunk must lie within one window, and
    the count reader's count_nonzero per window must add up to as many.

    The size is patched with mock.patch.object rather than a fixture: a
    function-scoped fixture is not reset between Hypothesis examples.
    """
    size = sieve.DEFAULT_SEGMENT_SIZE if segment_size is None else segment_size
    with mock.patch.object(sieve, "DEFAULT_SEGMENT_SIZE", size):
        chunks = list(sieve.iter_prime_segments(lo, hi))
        counted = sum(int(np.count_nonzero(buf[:k])) for _, k, buf in sieve._marked_windows(lo, hi))
    assert all(int(c[-1]) - int(c[0]) < size for c in chunks)
    primes = [int(p) for c in chunks for p in c]
    assert counted == len(primes)
    return primes


@functools.lru_cache(maxsize=1)
def primes_below_400k() -> list[int]:
    return oracle.primes_upto(400_000)


@pytest.fixture
def empty_table(monkeypatch):
    """Start from an empty base table, as a fresh process does."""
    monkeypatch.setattr(sieve, "_base", (0,) + (np.empty(0, dtype=np.int64),) * 2)


@PROPERTY_SETTINGS
@given(hi=st.integers(0, 10**6), width=st.integers(1, 5_000), segment_size=segment_sizes)
def test_segments_match_trial_division_below_1e6(hi, width, segment_size):
    lo = max(0, hi - width)
    assert sieved(lo, hi, segment_size) == oracle.primes_between(lo, hi)


@PROPERTY_SETTINGS
@given(
    below=st.integers(0, 10**6),
    width=st.integers(1, 160),
    segment_size=segment_sizes,
)
def test_short_windows_match_trial_division_below_1e10(below, width, segment_size):
    hi = sieve.MAX_SIEVE_LIMIT - below
    lo = hi - width
    assert sieved(lo, hi, segment_size) == oracle.primes_between(lo, hi)


@PROPERTY_SETTINGS
@given(lo=st.integers(0, 13), width=st.integers(1, 400), segment_size=segment_sizes)
def test_windows_from_the_presieved_primes(lo, width, segment_size):
    """A first window that starts at or below 13 keeps 3 to 13 themselves."""
    assert sieved(lo, lo + width, segment_size) == oracle.primes_between(lo, lo + width)


@PROPERTY_SETTINGS
@given(
    period=st.integers(0, 6),
    before=st.integers(0, 20_000),
    width=st.integers(1, 150_000),
    segment_size=st.integers(16, 1 << 18),
)
def test_windows_across_pattern_periods(period, before, width, segment_size):
    """Windows shorter than one period of the pattern, windows that straddle
    the end of a period, and windows of up to five periods (the doubling
    copies) all take the right phase: (lo, hi] starts `before` flags short
    of the start of a period."""
    lo = max(0, 2 * (PERIOD * period - before))
    hi = lo + width
    expected = [p for p in primes_below_400k() if lo < p <= hi]
    assert sieved(lo, hi, segment_size) == expected


@PROPERTY_SETTINGS
@given(hi=st.integers(0, 20_000), segment_size=segment_sizes)
def test_prime_count_matches_trial_division(hi, segment_size):
    with mock.patch.object(sieve, "DEFAULT_SEGMENT_SIZE", segment_size):
        assert sieve.prime_count(hi) == len(oracle.primes_upto(hi))


@PROPERTY_SETTINGS
@given(limit=st.integers(0, 5_000), segment_size=segment_sizes, cached=st.booleans())
def test_prime_summary_matches_trial_division(limit, segment_size, cached):
    """The payload of the primes command: the count, the first ten and the
    last ten primes, whose tail can span several short windows."""
    primes = oracle.primes_upto(limit)
    with tempfile.TemporaryDirectory() as tmp:
        cache = None
        if cached:   # a cache file written and loaded per example
            path = os.path.join(tmp, "p.tpc1")
            sieve.save_cache(limit, path)
            cache = sieve.load_cache(path)
        with mock.patch.object(sieve, "DEFAULT_SEGMENT_SIZE", segment_size):
            summary = sieve.prime_summary(limit, 10, cache=cache)
    assert summary == (len(primes), primes[:10], primes[-10:])


def test_table_grows_and_serves_prefixes(empty_table):
    small, large = (0, 1_000), (sieve.MAX_SIEVE_LIMIT - 300, sieve.MAX_SIEVE_LIMIT)
    assert sieved(*small) == oracle.primes_between(*small)
    assert sieve._base[0] < math.isqrt(large[1])
    assert sieved(*large) == oracle.primes_between(*large)
    grown = sieve._base
    assert grown[0] >= math.isqrt(large[1])
    assert sieved(*small, segment_size=16) == oracle.primes_between(*small)
    assert sieve._base is grown                      # served as a prefix, not rebuilt
    limit, primes, square = grown
    assert primes.tolist() == oracle.primes_upto(limit)[1:]
    assert np.array_equal(square, primes * primes)
