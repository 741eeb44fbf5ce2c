"""Sieve, interval, gap, twin-scan, and cache-format tests.

Expected values come from the trial-division oracle in _oracles.py or are
small enough to check by hand; nothing here trusts the segmented sieve to
validate itself.
"""

import os
import random
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from twinmeans import analytic, sieve
from twinmeans.errors import CacheFormatError, CapacityError

import _oracles as oracle


# ---------------------------------------------------------------------------
# primes_up_to / iter_prime_segments


def test_primes_up_to_10():
    assert sieve.primes_up_to(10).tolist() == [2, 3, 5, 7]


def test_primes_up_to_small_edges():
    assert sieve.primes_up_to(0).tolist() == []
    assert sieve.primes_up_to(1).tolist() == []
    assert sieve.primes_up_to(2).tolist() == [2]
    assert sieve.primes_up_to(3).tolist() == [2, 3]


def test_primes_up_to_100_against_trial_division():
    got = sieve.primes_up_to(100).tolist()
    assert got == oracle.primes_upto(100)
    assert len(got) == 25
    assert got[-1] == 97


def test_primes_up_to_10000_against_trial_division():
    assert sieve.primes_up_to(10_000).tolist() == oracle.primes_upto(10_000)


def test_primes_up_to_holds_its_primes_once():
    sieve.primes_up_to(10**5)   # the base table and first-call set-up outside the trace
    tracemalloc.start()
    try:
        ps = sieve.primes_up_to(2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.size == 1_270_607
    assert peak <= 1.25 * ps.nbytes


def test_prime_seq_dtype_and_limit():
    ps = sieve.primes_up_to(50)
    assert ps.dtype == np.int64
    assert ps[-1] <= 50 < sieve.next_prime_after(int(ps[-1]))   # every prime up to the limit


@pytest.mark.parametrize("segment_size", [16, 17, 64, 1024, 4096])
def test_segment_size_does_not_change_output(monkeypatch, segment_size):
    base = sieve.primes_up_to(100_000)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", segment_size)
    seg = sieve.primes_up_to(100_000)
    assert np.array_equal(base, seg)


@pytest.mark.parametrize(
    "lo,hi",
    [(0, 100), (1, 100), (2, 100), (3, 97), (10, 11), (13, 13), (0, 2), (96, 97)],
)
def test_iter_prime_segments_boundaries(monkeypatch, lo, hi):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    chunks = list(sieve.iter_prime_segments(lo, hi))
    assert all(c[-1] - c[0] < 16 for c in chunks)
    got = [int(p) for c in chunks for p in c]
    assert got == oracle.primes_between(lo, hi)


def test_prime_stream_window():
    got = [int(p) for seg in sieve.iter_prime_segments(2, 13) for p in seg]
    assert got == [3, 5, 7, 11, 13]


def test_prime_count_against_trial_division():
    assert sieve.prime_count(10_000) == len(oracle.primes_upto(10_000))


def test_prime_count_millionth_milestone():
    # classic table value, re-derivable from any prime-counting reference
    assert sieve.prime_count(10**6) == 78_498


def test_last_primes_reads_the_whole_window_past_a_sparse_end():
    """The tail of the primes command falls back to the whole window when
    its last 64*m flags hold fewer than m primes."""
    flags = np.zeros(5_000, dtype=bool)
    flags[[0, 3, 4_000]] = True
    assert sieve._last_primes(11, flags, 3) == [11, 17, 8_011]
    assert sieve._last_primes(11, flags, 2) == [17, 8_011]
    assert sieve._last_primes(11, flags[:4], 3) == [11, 17]


def test_capacity_cap_rejected_before_work():
    with pytest.raises(CapacityError):
        sieve.primes_up_to(sieve.MAX_SIEVE_LIMIT + 1)
    with pytest.raises(CapacityError):
        list(sieve.iter_prime_segments(0, 100, max_limit=50))


# ---------------------------------------------------------------------------
# next_prime_after / interval_primes


@pytest.mark.parametrize(
    "n,expected",
    [(1, 2), (2, 3), (3, 5), (7, 11), (89, 97), (113, 127), (10**6, 1_000_003)],
)
def test_next_prime_after_known(n, expected):
    assert sieve.next_prime_after(n) == expected


@pytest.mark.parametrize("n,expected", [(10**12, 10**12 + 39), (10**14, 10**14 + 31)])
def test_next_prime_after_far_past_the_cap(monkeypatch, n, expected):
    """next_prime_after refuses n far past the cap; the int64 first-multiple
    arithmetic of the windows it would sieve stays exact there."""
    with pytest.raises(CapacityError):
        sieve.next_prime_after(n)
    monkeypatch.setattr(sieve, "_base", sieve._base)   # 1e14 grows the table to 2^24
    hi = n + sieve._probe_width(n)
    assert int(next(sieve.iter_prime_segments(n, hi, max_limit=hi))[0]) == expected


def test_next_prime_after_refused_past_the_cap_before_sieving(monkeypatch):
    # the last n an interval pass at the cap asks for is MAX_SIEVE_LIMIT
    # plus its probe width, 531; without the cap 1e20 would sieve its base
    # primes to 2^34, 16 GiB of flags
    cap = sieve.MAX_SIEVE_LIMIT + sieve._probe_width(sieve.MAX_SIEVE_LIMIT)
    assert cap == sieve.MAX_SIEVE_LIMIT + 531
    assert sieve.next_prime_after(sieve.MAX_SIEVE_LIMIT) == 10_000_000_019
    assert sieve.next_prime_after(cap) == oracle.next_prime(cap)

    def no_sieving(limit):
        raise AssertionError(f"sieved base primes to {limit}")

    monkeypatch.setattr(sieve, "_dense_primes", no_sieving)
    for n in (cap + 1, 10**12, 10**20):
        with pytest.raises(CapacityError):
            sieve.next_prime_after(n)


def test_next_prime_after_random_sweep():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 100_000)
        assert sieve.next_prime_after(n) == oracle.next_prime(n)


def test_interval_10_20():
    ip = sieve.interval_primes(10, 20)
    assert ip.primes.tolist() == [11, 13, 17, 19]
    assert (ip.p_s, ip.P, ip.p_e) == (11, 19, 23)


def test_interval_empty():
    ip = sieve.interval_primes(24, 28)
    assert ip.primes.size == 0
    assert ip.P is None
    assert ip.p_s == ip.p_e == 29


def test_interval_2_3():
    ip = sieve.interval_primes(2, 3)
    assert ip.primes.tolist() == [3]
    assert (ip.p_s, ip.P, ip.p_e) == (3, 3, 5)


def test_interval_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        sieve.interval_primes(20, 10)
    with pytest.raises(ValueError):
        sieve.interval_primes(0, 10)
    with pytest.raises(ValueError):
        sieve.interval_primes(5, 5)


def test_interval_random_sweep():
    rng = random.Random(11)
    for _ in range(100):
        x = rng.randrange(1, 2_000)
        y = x + rng.randrange(1, 300)
        ip = sieve.interval_primes(x, y)
        ref = oracle.primes_between(x, y)
        assert ip.primes.tolist() == ref
        assert ip.p_e == oracle.next_prime(y)
        if ref:
            assert ip.p_s == ref[0] and ip.P == ref[-1]
        else:
            assert ip.P is None and ip.p_s == ip.p_e


# ---------------------------------------------------------------------------
# max gaps


def test_max_gap_smallest_case():
    assert sieve.max_gap_up_to(3) == sieve.GapRecord(limit=3, gap=1, lower_prime=2)


def test_max_gap_30():
    rec = sieve.max_gap_up_to(30)
    assert (rec.gap, rec.lower_prime) == (6, 23)


def test_max_gap_100():
    rec = sieve.max_gap_up_to(100)
    assert (rec.gap, rec.lower_prime) == (8, 89)


def test_max_gap_earliest_tie_wins():
    # gap 4 appears at 7->11, 13->17, 19->23; the first one must be reported
    rec = sieve.max_gap_up_to(23)
    assert (rec.gap, rec.lower_prime) == (4, 7)


def test_max_gap_against_oracle_sweep():
    rng = random.Random(13)
    for _ in range(60):
        limit = rng.randrange(3, 500)
        rec = sieve.max_gap_up_to(limit)
        assert (rec.gap, rec.lower_prime) == oracle.max_gap(limit)


def test_max_gap_segment_boundaries_do_not_split_gaps(monkeypatch):
    # tiny segments force gaps to straddle segment edges
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    rec = sieve.max_gap_up_to(1_000)
    assert (rec.gap, rec.lower_prime) == oracle.max_gap(1_000)


def test_max_gap_earliest_tie_wins_across_a_window_boundary(monkeypatch):
    # windows of 16 integers: 23 -> 29 lies inside (17, 33], and the tying
    # gap 31 -> 37 falls across its end
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    assert sieve.max_gap_up_to(37) == sieve.GapRecord(limit=37, gap=6, lower_prime=23)


# ---------------------------------------------------------------------------
# twin scan


def twin_pairs(x, y):
    """The scan's pairs (p, p+2), from its int64 array of lower primes."""
    lower = sieve.twin_pairs_in(x, y)
    assert lower.dtype == np.int64
    return [(p, p + 2) for p in lower.tolist()]


def test_twin_pairs_10_20():
    assert twin_pairs(10, 20) == [(11, 13), (17, 19)]


def test_twin_pairs_cotwin_beyond_y_counts():
    # 5 <= 6 is in range even though 7 > 6
    assert twin_pairs(1, 6) == [(3, 5), (5, 7)]


def test_twin_pairs_none():
    assert twin_pairs(89, 97) == []


def test_twin_pairs_random_sweep():
    rng = random.Random(17)
    for _ in range(100):
        x = rng.randrange(1, 3_000)
        y = x + rng.randrange(1, 400)
        assert twin_pairs(x, y) == oracle.twin_pairs(x, y)


# ---------------------------------------------------------------------------
# cache format


def _write_raw(path, magic=b"TPC1", version=1, limit=10, primes=(2, 3, 5, 7)):
    """Write a TPC1 file byte by byte, whatever its header and entries."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(bytes([version]))
        fh.write(struct.pack("<QQ", limit, len(primes)))
        fh.write(np.asarray(primes, dtype="<u8").tobytes())


def _stored(cache):
    """The primes a cache handle serves, read back through prime_stream."""
    return [p for seg in sieve.prime_stream(cache.limit, cache=cache) for p in seg.tolist()]


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "p.tpc")
    ps = sieve.primes_up_to(1_000)
    sieve.save_cache(1_000, path)
    back = sieve.load_cache(path)
    assert back.limit == 1_000
    assert np.array_equal(_stored(back), ps)


def test_cache_header_layout(tmp_path):
    path = str(tmp_path / "p.tpc")
    sieve.save_cache(10, path)
    raw = open(path, "rb").read()
    assert raw[:4] == b"TPC1"
    assert raw[4] == 1
    limit, count = struct.unpack_from("<QQ", raw, 5)
    assert (limit, count) == (10, 4)
    assert struct.unpack_from("<4Q", raw, 21) == (2, 3, 5, 7)
    assert len(raw) == 21 + 4 * 8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"magic": b"XPC1"},
        {"version": 2},
        {"primes": (2, 5, 3, 7)},        # not increasing
        {"primes": (2, 3, 5, 7, 11)},    # 11 > limit
        {"primes": (2, 3, 3, 7)},        # not strictly increasing
    ],
)
def test_cache_rejects_bad_files(tmp_path, kwargs):
    path = str(tmp_path / "bad.tpc")
    _write_raw(path, **kwargs)
    with pytest.raises(CacheFormatError):
        sieve.load_cache(path)


def test_cache_rejects_truncation_and_trailing_bytes(tmp_path):
    path = str(tmp_path / "bad.tpc")
    _write_raw(path)
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-3])
    with pytest.raises(CacheFormatError):
        sieve.load_cache(path)
    with open(path, "wb") as fh:
        fh.write(raw + b"\x00")
    with pytest.raises(CacheFormatError):
        sieve.load_cache(path)


def test_cached_primes_builds_then_reuses(tmp_path):
    path = str(tmp_path / "p.tpc")
    first = sieve.cached_primes_up_to(1_000, path)
    stamp = os.stat(path).st_mtime_ns
    again = sieve.cached_primes_up_to(1_000, path)
    assert os.stat(path).st_mtime_ns == stamp  # untouched on reuse
    assert np.array_equal(_stored(first), _stored(again))


def test_cached_primes_serves_prefix_without_rewrite(tmp_path):
    path = str(tmp_path / "p.tpc")
    sieve.cached_primes_up_to(1_000, path)
    stamp = os.stat(path).st_mtime_ns
    small = sieve.cached_primes_up_to(500, path)
    assert os.stat(path).st_mtime_ns == stamp
    assert _stored(small) == oracle.primes_upto(500)
    assert small.limit == 500


def test_cache_served_as_segment_views(tmp_path, monkeypatch):
    path = str(tmp_path / "p.tpc")
    sieve.save_cache(10_000, path)
    ps = sieve.load_cache(path)
    small = sieve.cached_primes_up_to(5_000, path)
    assert (small.path, small.count) == (path, 669)   # a prefix of the same file
    assert _stored(small) == oracle.primes_upto(5_000)
    monkeypatch.setattr(sieve, "_BLOCK", 100)     # the 1,229 entries take 13 reads
    for lo, hi, seg in [(1, 10_000, 16), (100, 9_000, 1000), (7, 8, 16), (1, 10_000, 1 << 21)]:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", seg)
        views = list(sieve.prime_stream(hi, cache=ps))
        assert all(v.size and v.dtype == np.int64 for v in views)
        # one read of at most _BLOCK entries each, whatever the window size
        assert [v.size for v in views[:-1]] == [sieve._BLOCK] * (len(views) - 1)
        assert len(views) == -(-len(oracle.primes_upto(hi)) // sieve._BLOCK)
        served = np.concatenate(views or [[]]).tolist()
        assert served == oracle.primes_upto(hi)
        # the cache's own search finds (lo, hi]
        pi = sieve.prime_count(hi, cache=ps) - sieve.prime_count(lo, cache=ps)
        assert pi == len(oracle.primes_between(lo, hi))


def test_cached_primes_rebuilds_when_too_small(tmp_path):
    path = str(tmp_path / "p.tpc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # first use and a too small file are silent
        sieve.cached_primes_up_to(100, path)
        big = sieve.cached_primes_up_to(1_000, path)
    assert _stored(big) == oracle.primes_upto(1_000)
    assert sieve.load_cache(path).limit == 1_000


def test_cached_primes_rebuilds_corrupt_file(tmp_path):
    path = str(tmp_path / "p.tpc")
    with open(path, "wb") as fh:
        fh.write(b"garbage that is definitely not a prime cache")
    with pytest.warns(RuntimeWarning, match=re.escape(f"{path}: bad cache magic")):
        ps = sieve.cached_primes_up_to(200, path)
    assert _stored(ps) == oracle.primes_upto(200)
    assert sieve.load_cache(path).limit == 200  # file replaced with a valid one


def test_cache_with_a_prime_missing_is_rejected_and_rebuilt(tmp_path):
    path = str(tmp_path / "p.tpc")
    full = sieve.primes_up_to(100)
    _write_raw(path, limit=100, primes=np.delete(full, 10))
    with pytest.raises(CacheFormatError, match="fresh sieve"):
        sieve.load_cache(path)
    reason = re.escape(path) + ": cache primes in .* differ from a fresh sieve"
    with pytest.warns(RuntimeWarning, match=reason):
        ps = sieve.cached_primes_up_to(100, path)
    assert sieve.prime_count(100, cache=ps) == 25
    assert _stored(sieve.load_cache(path)) == oracle.primes_upto(100)


@pytest.mark.parametrize("where", ["first", "last", "middle"])
@pytest.mark.parametrize("fault", ["drop", "composite", "replace"])
def test_cache_content_checked_in_first_and_last_window(tmp_path, monkeypatch, where, fault):
    # windows of 1,000 integers, re-sieved in spans of 100: load_cache sieves
    # the last window (19000, 20000] again, and 19,500 ("middle") lies in its
    # fifth span
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1_000)
    monkeypatch.setattr(sieve, "_SPAN", 50)
    path = str(tmp_path / "p.tpc")
    primes = sieve.primes_up_to(20_000)
    _write_raw(path, limit=20_000, primes=primes)
    sieve.load_cache(path)   # the honest file passes
    i = {"first": 20, "last": primes.size - 20}.get(where, int(np.searchsorted(primes, 19_500)))
    odd = primes[i] + 2 if primes[i] % 3 == 1 else primes[i] + 4   # a multiple of 3
    assert not oracle.is_prime(int(odd)) and odd < primes[i + 2]
    if fault == "drop":
        bad = np.delete(primes, i)
    elif fault == "composite":   # an odd composite between two primes
        assert odd < primes[i + 1]
        bad = np.insert(primes, i + 1, odd)
    else:   # in place of a prime: the count stays, only the content is wrong
        bad = primes.copy()
        bad[i + 1] = odd
    _write_raw(path, limit=20_000, primes=bad)
    with pytest.raises(CacheFormatError, match="fresh sieve"):
        sieve.load_cache(path)


def test_cache_limit_past_the_cap_is_rejected(tmp_path, monkeypatch):
    path = str(tmp_path / "p.tpc")
    _write_raw(path, limit=sieve.MAX_SIEVE_LIMIT + 1)

    def no_read(*args):     # the header is refused before any entry is read
        raise AssertionError("an entry was read")

    monkeypatch.setattr(sieve, "_read_blocks", no_read)
    monkeypatch.setattr(sieve, "_read_entries", no_read)
    cap = sieve.MAX_SIEVE_LIMIT
    with pytest.raises(CacheFormatError, match=f"^cache limit {cap + 1} exceeds {cap}$"):
        sieve.load_cache(path)


def test_cache_entries_below_2_are_rejected(tmp_path):
    path = str(tmp_path / "p.tpc")
    for head in ([1], [0], [0, 1]):
        _write_raw(path, primes=head + [2, 3, 5, 7])
        with pytest.raises(CacheFormatError, match="strictly increasing"):
            sieve.load_cache(path)


@pytest.mark.parametrize("fault", ["swap", "repeat"])
def test_cache_decrease_across_a_read_block_is_rejected(tmp_path, fault):
    # the file is validated in blocks of _BLOCK entries; entries b - 1 and b
    # sit on the two sides of the first boundary, each block is increasing
    # on its own, and the message is the monotonicity check's, not the
    # re-sieve's that would catch the fault too
    b = sieve._BLOCK
    primes = sieve.primes_up_to(2 * 10**5)
    assert primes.size > b + 1
    bad = primes.copy()
    if fault == "swap":
        bad[b - 1], bad[b] = primes[b], primes[b - 1]
    else:
        bad[b] = primes[b - 1]
    path = str(tmp_path / "p.tpc")
    _write_raw(path, limit=2 * 10**5, primes=bad)
    with pytest.raises(CacheFormatError, match="strictly increasing"):
        sieve.load_cache(path)


def test_cache_truncated_after_validation_fails_the_next_read(tmp_path):
    path = str(tmp_path / "p.tpc")
    sieve.save_cache(10_000, path)
    ps = sieve.load_cache(path)
    os.truncate(path, 21 + 8 * 100)
    with pytest.raises(CacheFormatError, match="truncated"):
        list(sieve.prime_stream(10_000, cache=ps))
    with pytest.raises(CacheFormatError, match="truncated"):
        sieve.prime_summary(10_000, 10, cache=ps)


@pytest.mark.parametrize("segment_size", [16, 1000, 1 << 21])
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 1000, 10**5])
def test_built_cache_is_the_file_of_the_materialized_primes(tmp_path, monkeypatch, segment_size, limit):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", segment_size)
    built, whole = str(tmp_path / "built.tpc"), str(tmp_path / "whole.tpc")
    pf = sieve.cached_primes_up_to(limit, built)
    ps = sieve.primes_up_to(limit)
    _write_raw(whole, limit=limit, primes=ps)
    assert open(built, "rb").read() == open(whole, "rb").read()
    assert (pf.path, pf.limit, pf.count) == (built, limit, ps.size)
    assert sieve.load_cache(built) == pf       # an empty file loads too
    assert sorted(os.listdir(tmp_path)) == ["built.tpc", "whole.tpc"]


def _interrupted_sieve(lo, hi, **kwargs):
    yield np.array([2, 3, 5, 7], dtype=np.int64)
    raise KeyboardInterrupt


@pytest.mark.parametrize("failure", ["capacity", "interrupt"])
def test_failed_build_leaves_no_file(tmp_path, monkeypatch, failure):
    path = str(tmp_path / "p.tpc")
    if failure == "capacity":
        with pytest.raises(CapacityError):
            sieve.cached_primes_up_to(sieve.MAX_SIEVE_LIMIT + 1, path)
    else:
        monkeypatch.setattr(sieve, "iter_prime_segments", _interrupted_sieve)
        with pytest.raises(KeyboardInterrupt):
            sieve.cached_primes_up_to(1_000, path)
    assert os.listdir(tmp_path) == []


def test_failed_rebuild_keeps_the_old_cache(tmp_path, monkeypatch):
    path = str(tmp_path / "p.tpc")
    sieve.cached_primes_up_to(100, path)
    before = open(path, "rb").read()
    monkeypatch.setattr(sieve, "iter_prime_segments", _interrupted_sieve)
    with pytest.raises(KeyboardInterrupt):
        sieve.cached_primes_up_to(1_000, path)
    assert os.listdir(tmp_path) == ["p.tpc"]
    assert open(path, "rb").read() == before


def test_cache_build_and_reads_hold_a_fraction_of_the_payload(tmp_path):
    # 5e7: 3,001,134 primes, a 24.0 MB payload.  Building, validating and
    # serving the file each stay under a quarter of it.
    limit, count = 5 * 10**7, 3_001_134
    path = str(tmp_path / "p.tpc")
    sieve.primes_up_to(10**5)   # the base table and first-call set-up outside the trace
    tracemalloc.start()
    try:
        built = sieve.cached_primes_up_to(limit, path)
        peaks = [tracemalloc.get_traced_memory()[1]]
        tracemalloc.reset_peak()
        ps = sieve.cached_primes_up_to(limit, path)
        served = sum(seg.size for seg in sieve.prime_stream(limit, cache=ps))
        summary = sieve.prime_summary(limit, 10, cache=ps)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    payload = os.path.getsize(path) - 21
    assert payload == 8 * count
    assert built == ps and (ps.count, served, summary[0]) == (count, count, count)
    assert summary[1][:3] == [2, 3, 5] and summary[2][-1] == 49_999_991
    assert max(peaks) < payload / 4, peaks


# From a 2e7 cache (1,270,607 primes, 10.2 MB), tracemalloc peaks in MiB
# with whole windows and a 4 MiB validation buffer, and now with reads of at
# most _BLOCK entries (2 cores, numpy 2.4, Python 3.11; the same at 1e8):
#   load_cache         4.51 -> 1.50   (1.1 MiB of window flags, a span
#                                       and its stored entries beside it)
#   prime_stream       2.26 -> 0.26   (two blocks of 128 KiB)
#   max_gap_up_to      2.38 -> 0.26
#   lemma1_report      2.17 -> 1.12   (four 128 KiB term buffers and a read)
# Each bound sits between the two.
CACHE_PEAK_BOUNDS_MIB = {"load_cache": 2.0, "prime_stream": 0.5, "max_gap_up_to": 0.5, "lemma1_report": 1.5}


def test_cache_reads_hold_one_block_or_span_beyond_the_sieve_window(tmp_path):
    limit = 2 * 10**7
    path = str(tmp_path / "p.tpc")
    ps = sieve.cached_primes_up_to(limit, path)
    analytic.mertens_report(10**5, 10**5)   # first-call set-up outside the trace
    runs = {
        "load_cache": lambda: sieve.load_cache(path),
        "prime_stream": lambda: sum(seg.size for seg in sieve.prime_stream(limit, cache=ps)),
        "max_gap_up_to": lambda: sieve.max_gap_up_to(limit, cache=ps),
        "lemma1_report": lambda: analytic.lemma1_report(limit, limit, cache=ps),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            got = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CACHE_PEAK_BOUNDS_MIB[name] * 2**20, (name, peak)
        if name == "prime_stream":
            assert got == ps.count == 1_270_607
