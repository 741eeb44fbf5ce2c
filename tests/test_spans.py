"""The sieve's span reader, and the streamed consumers that drop each step.

iter_prime_segments marks a window of DEFAULT_SEGMENT_SIZE integers whole
and reads it in spans of sieve._SPAN flags.  Whatever the span size, the
concatenated primes equal trial division (_oracles.py), including near the
1e10 cap, where a span reads past its end (the pad) and must put the flags
it overwrote back.  Each consumer drops the array it was given before the
next window is marked; tracemalloc bounds pin what that saves.
"""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from twinmeans import analytic, means, sieve, verify
from twinmeans.analytic import ProductMethod
from twinmeans.means import MeanLimit

import _oracles as oracle

SPANS = [1, 2, 7, 64, 1 << 17]
NEAR_CAP = (10**10 - 3000, 10**10)


@functools.lru_cache(maxsize=None)
def oracle_primes(x: int, y: int) -> tuple[int, ...]:
    return tuple(oracle.primes_between(x, y))


def read(lo: int, hi: int) -> list[np.ndarray]:
    return list(sieve.iter_prime_segments(lo, hi))


def span_of(p: int, lo: int) -> tuple[int, int]:
    """(window, span) of the odd number p in a pass over (lo, hi]: windows
    start at (lo + 1) | 1, every DEFAULT_SEGMENT_SIZE integers, and spans
    at every 2*_SPAN integers from a window's start."""
    off = p - (max(lo + 1, 3) | 1)
    w, r = divmod(off, sieve.DEFAULT_SEGMENT_SIZE)
    return w, r // (2 * sieve._SPAN)


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("segment", [16, 4096, 1 << 21])
def test_span_size_does_not_change_the_primes(monkeypatch, span, segment):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", segment)
    monkeypatch.setattr(sieve, "_SPAN", span)
    for lo, hi in [(0, 3000), (1, 2), (2, 3), (9_000, 21_000), NEAR_CAP]:
        arrays = read(lo, hi)
        assert all(a.size and a.dtype == np.int64 for a in arrays)
        got = np.concatenate([np.empty(0, np.int64), *arrays]).tolist()
        assert got == list(oracle_primes(max(lo, 0), hi)), (lo, hi)
        # one array per span: no array crosses a span or a window
        for a in arrays:
            if int(a[0]) > 2:
                assert span_of(int(a[0]), lo) == span_of(int(a[-1]), lo)


@pytest.mark.parametrize("span", [64, 1 << 17])
def test_padded_spans_near_the_cap_put_the_flags_back(monkeypatch, span):
    # past e^20 the odd primes are under 1/10 of the flags, so a span of 64
    # flags or more reads past its end; the flags it overwrote belong to the
    # next span.  Windows of 2^21 integers hold 8 spans of 2^17 flags.
    monkeypatch.setattr(sieve, "_SPAN", span)
    lo = 10**10 - (1 << 20)
    arrays = read(lo, 10**10)
    primes = np.concatenate(arrays)
    counted = sum(int(np.count_nonzero(buf[:k])) for _, k, buf in sieve._marked_windows(lo, 10**10))
    assert len(arrays) > 1 and primes.size == counted     # the count reader reads no span
    assert np.all(np.diff(primes) > 0)
    monkeypatch.setattr(sieve, "_SPAN", 1 << 40)     # one span per window
    assert np.array_equal(primes, np.concatenate(read(lo, 10**10)))
    tail = primes[primes > NEAR_CAP[0]].tolist()
    assert tail == list(oracle_primes(*NEAR_CAP))
    # a span boundary 400 or more past lo: the primes on both sides of it
    edge = (lo + 1) + 2 * span * (1 + 400 // (2 * span))
    assert primes[(primes > edge - 400) & (primes <= edge + 400)].tolist() == list(
        oracle_primes(edge - 400, edge + 400)
    )


def twin_at_span_end(span: int, start: int) -> tuple[int, int]:
    """(x, p): p is the lower prime of a twin pair past `start` and the
    first span of a pass over (x, ...] ends between p and p + 2."""
    p = oracle.twin_pairs(start, start + 20_000)[0][0]
    return p + 1 - 2 * span, p


@pytest.mark.parametrize("span", SPANS)
def test_a_span_may_end_between_the_primes_of_a_twin_pair(monkeypatch, span):
    monkeypatch.setattr(sieve, "_SPAN", span)
    x, p = twin_at_span_end(span, 4 * span + 10**4)
    arrays = read(x, x + 4 * span + 400)
    assert int(arrays[0][-1]) == p and int(arrays[1][0]) == p + 2
    y = p + 300
    blocks = list(sieve.interval_windows(x, y))
    assert (p, p + 2) in [(int(b[-1]), q) for b, q in blocks]
    assert sieve.twin_pairs_in(x, y).tolist() == [a for a, _ in oracle.twin_pairs(x, y)]
    iv = means.reduce_interval(x, y, tuple(ProductMethod), sup=True, twins=True)
    rs = means.build_ratio_set(sieve.interval_primes(x, y))
    assert iv.twin_lower.tolist() == [a for a, _ in oracle.twin_pairs(x, y)]
    count = sieve.prime_count(y) - sieve.prime_count(x)      # the count reader reads no span
    assert (iv.count, iv.P, iv.p_e) == (count, rs.primes[-1], oracle.next_prime(y))
    assert iv.sup.as_fraction() == rs.sup.as_fraction() == 1
    for m in ProductMethod:
        assert iv.log_t(m) == analytic.log_t_product(sieve.interval_primes(x, y), m)


def test_prime_summary_reads_its_head_from_spans(monkeypatch):
    monkeypatch.setattr(sieve, "_SPAN", 7)
    count, head, tail = sieve.prime_summary(3000, 40)
    ps = oracle.primes_upto(3000)
    assert (count, head, tail) == (len(ps), ps[:40], ps[-40:])


# ---------------------------------------------------------------------------
# no streamed consumer holds what it was given while the next window is marked


@pytest.fixture
def held_at_marking(monkeypatch):
    """Wrap a sieve generator so that every array it yields is watched;
    return a list that gets, each time a window is about to be marked, the
    number of watched arrays still alive."""
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 12)
    monkeypatch.setattr(sieve, "_SPAN", 1 << 8)
    seen, alive = [], []
    marked = sieve._marked_windows

    def counting(*args, **kwargs):
        windows = marked(*args, **kwargs)
        while True:
            alive.append(sum(ref() is not None for ref in seen))
            window = next(windows, None)
            if window is None:
                return
            yield window

    monkeypatch.setattr(sieve, "_marked_windows", counting)

    def watch(name: str) -> list[int]:
        source = getattr(sieve, name)

        def watched(*args, **kwargs):
            for item in source(*args, **kwargs):
                seen.append(weakref.ref(item[0] if isinstance(item, tuple) else item))
                yield item
                del item

        monkeypatch.setattr(sieve, name, watched)
        return alive

    return watch


@pytest.mark.parametrize(
    "run",
    [
        lambda: means.reduce_interval(10**5, 3 * 10**5, tuple(ProductMethod), sup=True, twins=True),
        lambda: verify.theorem1_report(3 * 10**5, 4.0),
        lambda: verify.lemma2_report(3 * 10**5, 4.0),
    ],
    ids=["reduce_interval", "theorem1_report", "lemma2_report"],
)
def test_interval_consumers_drop_each_block(held_at_marking, run):
    alive = held_at_marking("_interval_pass")
    run()
    assert len(alive) > 20 and not any(alive), alive


@pytest.mark.parametrize(
    "run",
    [
        lambda tmp: analytic.mertens_report(2 * 10**5, 2 * 10**5),
        lambda tmp: analytic.lemma1_report(2 * 10**5, 2 * 10**5),
        lambda tmp: sieve.max_gap_up_to(2 * 10**5),
        lambda tmp: sieve.twin_pairs_in(10**5, 3 * 10**5),
        lambda tmp: sieve.save_cache(2 * 10**5, str(tmp / "p.tpc")),
    ],
    ids=["mertens_report", "lemma1_report", "max_gap_up_to", "twin_pairs_in", "save_cache"],
)
def test_stream_consumers_drop_each_array(held_at_marking, tmp_path, run):
    alive = held_at_marking("iter_prime_segments")
    run(tmp_path)
    assert len(alive) > 20 and not any(alive), alive


# ---------------------------------------------------------------------------
# tracemalloc peaks of the streamed reports

# Peaks measured with one window of primes read at a time, and now with
# spans and no held arrays (MiB; 2 cores, numpy 2.4, Python 3.11):
#   theorem1_report(1e8, 4.0)       3.79 -> 2.49
#   lemma2_report(1e9, 1)           3.09 -> 1.86
#   mertens_report(2e7, 2e7)        3.94 -> 2.25
#   max_gap_up_to(1e8)              4.57 -> 1.47
#   twin_criterion(1e9, 1.01e9)     6.18 -> 1.95
# Each bound sits between the two.
PEAK_BOUNDS_MIB = {
    "theorem1_report": 3.0,
    "lemma2_report": 2.5,
    "mertens_report": 3.0,
    "max_gap_up_to": 2.5,
    "twin_criterion": 3.0,
}


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name,run",
    [
        ("theorem1_report", lambda: verify.theorem1_report(10**8, 4.0)),
        ("lemma2_report", lambda: verify.lemma2_report(10**9, 1)),
        ("mertens_report", lambda: analytic.mertens_report(2 * 10**7, 2 * 10**7)),
        ("max_gap_up_to", lambda: sieve.max_gap_up_to(10**8)),
        ("twin_criterion", lambda: verify.twin_criterion(10**9, 101 * 10**7)),
    ],
)
def test_streamed_report_peaks(name, run):
    verify.twin_criterion(10**5, 2 * 10**5)   # first-call set-up outside the trace
    analytic.mertens_report(10**5, 10**5)
    sieve.primes_up_to(10**5)
    assert traced_peak(run) < PEAK_BOUNDS_MIB[name] * 2**20


def test_mean_limit_extremes_build_no_values():
    # 184,673 elements: the values array alone would take 1.4 MiB
    rs = means.build_ratio_set(sieve.interval_primes(10**7, 13 * 10**6))
    rs.k, rs.sup, rs.inf    # the set's own arrays and extremes: built untraced
    got = {}
    for w in (MeanLimit.PLUS_INF, MeanLimit.MINUS_INF):
        assert traced_peak(lambda w=w: got.setdefault(w, means.mean_limit(rs, w))) <= 0.1 * 2**20
    assert "values" not in vars(rs)
    vals = rs.values.tolist()
    for w, m in ((MeanLimit.PLUS_INF, max(vals)), (MeanLimit.MINUS_INF, min(vals))):
        assert got[w] == means.mean_limit(vals, w)
        assert (got[w].value, got[w].count) == (m, rs.primes.size)
