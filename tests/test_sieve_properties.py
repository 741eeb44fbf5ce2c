"""Property tests of the sieve kernel against trial division.

iter_prime_segments marks each window either with one slice per base prime
or, when many primes hit a window a few times each, with one scatter.
Short windows near 1e10 and mid-size windows below 1e6 take the scatter;
windows of a few dozen integers take the slices.  The drawn segment sizes
(16 to 2^14) and ranges reach both, and the concatenated output must equal
the oracle's primes whatever the windows.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinmeans import sieve

import _oracles as oracle

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

segment_sizes = st.integers(16, 1 << 14)


def sieved(lo: int, hi: int, segment_size=None) -> list[int]:
    """The primes of (lo, hi] sieved in windows of segment_size integers
    (the default when None); each chunk must lie within one window.

    The size is patched with mock.patch.object rather than a fixture: a
    function-scoped fixture is not reset between Hypothesis examples.
    """
    size = sieve.DEFAULT_SEGMENT_SIZE if segment_size is None else segment_size
    with mock.patch.object(sieve, "DEFAULT_SEGMENT_SIZE", size):
        chunks = list(sieve.iter_prime_segments(lo, hi))
    assert all(int(c[-1]) - int(c[0]) < size for c in chunks)
    return [int(p) for c in chunks for p in c]


@pytest.fixture
def empty_table(monkeypatch):
    """Start from an empty base table, as a fresh process does."""
    monkeypatch.setattr(sieve, "_base", (0,) + (np.empty(0, dtype=np.int64),) * 3)


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


def test_table_grows_and_serves_prefixes(empty_table):
    small, large = (0, 1_000), (sieve.MAX_SIEVE_LIMIT - 300, sieve.MAX_SIEVE_LIMIT)
    assert sieved(*small) == oracle.primes_between(*small)
    assert sieve._base[0] < math.isqrt(large[1])
    assert sieved(*large) == oracle.primes_between(*large)
    grown = sieve._base
    assert grown[0] >= math.isqrt(large[1])
    assert sieved(*small, segment_size=16) == oracle.primes_between(*small)
    assert sieve._base is grown                      # served as a prefix, not rebuilt
    limit, primes, square, half = grown
    assert primes.tolist() == oracle.primes_upto(limit)[1:]
    assert np.array_equal(square, primes * primes)
    assert np.array_equal(2 * half % primes, np.ones_like(primes))
