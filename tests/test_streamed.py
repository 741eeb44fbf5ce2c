"""The streamed interval reports equal the materialised ones, bit for bit.

theorem1_report, lemma2_report and twin_criterion reduce (x, y] one block
at a time, a block being the primes of one span of a sieve window
(means.reduce_interval over sieve.interval_windows).  The tests here
rebuild every value from the whole interval (interval_primes,
build_ratio_set, log_t_product) and ask for ==, not closeness, at segment
sizes 2^12, 2^16 and 2^23, with window and span boundaries that fall
between the two primes of a twin pair or of the sup element, at span
sizes down to 1 flag, and intervals that fit in one window.  Two tracemalloc
bounds pin the memory of the streamed report.
"""

import dataclasses
import io
import itertools
import json
import math
import pickle
import random
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from twinmeans import analytic, cli, means, sieve, verify
from twinmeans.analytic import ProductMethod
from twinmeans.errors import EmptySetError
from twinmeans.verify import Theorem1Row, TwinPairs

import _oracles as oracle

SEGMENT_SIZES = [2**12, 2**16, 2**23]
# theorem1_report(1e8, 4.0) peaks at 2.5 MiB streamed in blocks read from
# spans of each window (segment 2^21; test_spans.py bounds it at 3 MiB), at
# 3.8 MiB when a window's primes were one array and the consumers held their
# last block, at 6.1 MiB when each whole window waited for the next, and at
# 40 MiB on the materialised route; its 1,308,577 primes alone take 10 MiB.
REPORT_1E8_PEAK_MIB = 12
REPORT_1E8_BLOCKED_PEAK_MIB = 5


@pytest.fixture(params=SEGMENT_SIZES)
def segment(request, monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", request.param)
    return request.param


def set_twins(rs: means.RatioSet) -> list[int]:
    """The lower primes p of the twin pairs (p, p+2) of a ratio set: the p
    of its elements with excess k = 0, p+2 possibly p_e."""
    return rs.primes[rs.k == 0].tolist()


def materialised_row(x: int, c: float) -> Theorem1Row:
    """theorem1_report from the whole interval held at once."""
    bs = verify.beta_for(x, c)
    ip = sieve.interval_primes(x, bs.y)
    rs = means.build_ratio_set(ip)
    n = len(rs)
    log_t = analytic.log_t_product(ip, ProductMethod.DIRECT)
    logx = math.log(x)
    pi_approx = bs.x_beta / (bs.beta * logx)
    return Theorem1Row(
        interval=bs,
        pi_interval=n,
        m0=math.exp(log_t / n),
        m_inf=rs.sup,
        lower_bound=1.0 - c / bs.x_beta,
        criterion_threshold=Fraction(ip.P, ip.P + 2),
        residual=bs.x_beta * -math.expm1(log_t / n) / c - 1.0,
        logz_crosscheck=(log_t - (2.0 * math.log(bs.beta) - (bs.beta - 1.0) * logx)) / n,
        pi_approx=pi_approx,
        residual_approx_pi=bs.x_beta * -math.expm1(log_t / pi_approx) / c - 1.0,
        twin_pairs=TwinPairs(set_twins(rs)),
    )


def assert_streamed_row(x: int, c: float) -> Theorem1Row:
    row, expected = verify.theorem1_report(x, c), materialised_row(x, c)
    for f in dataclasses.fields(Theorem1Row):
        assert getattr(row, f.name) == getattr(expected, f.name), f.name
    return row


def twin_across_first_window(seg: int) -> int:
    """A twin lower prime p >= 8*seg; with x = p + 1 - seg the first sieve
    window of (x, y] ends at p + 1, between p and p + 2."""
    lo = 8 * seg
    return oracle.twin_pairs(lo, lo + 10_000)[0][0]


SWEEP = [(10**3, 1.0), (12_345, 4.0), (10**5, 1.0), (10**6, 0.5), (3 * 10**6, 2.0), (10**7, 1.0)]


@pytest.mark.parametrize("x,c", SWEEP)
def test_theorem1_streamed_equals_materialised(segment, x, c):
    assert_streamed_row(x, c)


def test_theorem1_random_sweep(segment):
    rng = random.Random(segment)
    for _ in range(40):
        x = rng.randrange(10, 2 * 10**6)
        try:
            assert_streamed_row(x, rng.uniform(*verify.C_RANGE))
        except EmptySetError:
            continue


def test_window_boundary_between_twin_primes(segment):
    p = twin_across_first_window(segment)
    x = p + 1 - segment
    bs = verify.beta_for(x, 4.0)
    seen = 0
    for block, p_next in sieve.interval_windows(x, bs.y):   # up to the first window's end
        seen += block.size
        if int(block[-1]) >= p:
            break
    assert (int(block[-1]), p_next) == (p, p + 2)
    assert seen < assert_streamed_row(x, 4.0).pi_interval
    iv = means.reduce_interval(x, bs.y, twins=True)
    assert p in iv.twin_lower.tolist()
    assert np.array_equal(iv.twin_lower, sieve.twin_pairs_in(x, bs.y))


# (x0, y, p): the sup of (x, y] is the element of p for every x0 <= x < p.
# Below y = 9,999,999,016 there is no twin pair, and the sup is
# 9999998861/9999998865; below 9,999,999,100 it is the twin 9999999017.
SPLIT_TARGETS = [
    (9_999_998_611, 9_999_999_016, 9_999_998_861),
    (9_999_998_611, 9_999_999_100, 9_999_999_017),
]


def split_kind(x: int, y: int, p: int) -> Optional[str]:
    """Check the blocked pass over (x, y] against the whole set, and say
    where the element of p ends: at a window's end ("window"), at a span's
    end inside a window ("span"), or inside a block (None)."""
    ip = sieve.interval_primes(x, y)
    rs = means.build_ratio_set(ip)
    iv = means.reduce_interval(x, y, tuple(ProductMethod), sup=True, twins=True)
    assert (iv.count, iv.product.p_s, iv.P, iv.p_e) == (rs.primes.size, ip.p_s, ip.P, ip.p_e)
    i = int(np.searchsorted(rs.primes, p))
    assert rs.primes[i] == p and iv.sup == rs.sup == oracle.set_elements(rs)[i]
    assert iv.twin_lower.tolist() == set_twins(rs)
    for m in ProductMethod:
        assert iv.log_t(m) == analytic.log_t_product(ip, m)
    cur = (x + 1) | 1      # the first window starts here

    def span_of(q: int) -> tuple[int, int]:    # (window, span within it)
        w, r = divmod(q - cur, sieve.DEFAULT_SEGMENT_SIZE)
        return w, r // (2 * sieve._SPAN)

    blocks = list(sieve.interval_windows(x, y))
    for b, _ in blocks:    # every block lies in one span of one window
        assert span_of(int(b[0])) == span_of(int(b[-1]))
    q = p + int(rs.k[i]) + 2     # the prime after p
    ends = [n for b, n in blocks if int(b[-1]) == p]
    if not ends:
        return None
    assert ends == [q]
    return "window" if span_of(p)[0] < span_of(q)[0] else "span"


@pytest.mark.parametrize("x,y", [(10, 2_000), (10**6, 10**6 + 5_000)])
def test_streamed_sup_is_the_first_twin(monkeypatch, x, y):
    # every twin element is exactly 1, so the block sups tie; the streamed
    # sup must be the whole set's, 1, the element of the first twin
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 64)
    monkeypatch.setattr(sieve, "_SPAN", 7)
    blocks = list(sieve.interval_windows(x, y))
    twin_blocks = [b for b, q in blocks if np.any(np.append(b[1:], q) - b == 2)]
    assert len(twin_blocks) > 2
    rs = means.build_ratio_set(sieve.interval_primes(x, y))
    iv = means.reduce_interval(x, y, sup=True)
    assert iv.sup == rs.sup == 1
    p = oracle.twin_pairs(x, y)[0][0]
    assert oracle.set_elements(rs)[int(np.searchsorted(rs.primes, p))] == 1


def test_blocks_split_twin_pairs_and_the_sup_like_the_whole_interval(monkeypatch):
    # x moves the windows and spans over (x, y]; every (p, span size) must
    # see p end a window, and end a span inside a window
    kinds = {}
    for (x0, y, p), seg, span in itertools.product(SPLIT_TARGETS, (16, 64, 2**12), (1, 2, 3, 7)):
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", seg)
        monkeypatch.setattr(sieve, "_SPAN", span)
        xs = [q - 1 for q in oracle.primes_between(x0, p)] + [p + 1 - seg] * (p + 1 - seg >= x0)
        for x in xs:
            kinds.setdefault((p, span), set()).add(split_kind(x, y, p))
    assert len(kinds) == 8 and all(k >= {"window", "span"} for k in kinds.values())


def test_interval_in_one_window(monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 2**23)
    bs = verify.beta_for(10**6, 1.0)
    assert len(list(sieve.interval_windows(10**6, bs.y))) == 1
    assert_streamed_row(10**6, 1.0)


def test_interval_windows_cover_interval_primes(monkeypatch):
    for seg in (16, 64, 2**12):
        ip = sieve.interval_primes(10_000, 30_000)
        with monkeypatch.context() as m:
            m.setattr(sieve, "DEFAULT_SEGMENT_SIZE", seg)
            windows = list(sieve.interval_windows(10_000, 30_000))
        assert np.array_equal(np.concatenate([w for w, _ in windows]), ip.primes)
        successors = [int(w[0]) for w, _ in windows[1:]] + [ip.p_e]
        assert [p_next for _, p_next in windows] == successors
    [(block, p_e)] = sieve.interval_windows(113, 126)   # no prime in (113, 126]
    assert block.size == 0 and block.dtype == np.int64 and p_e == 127
    with pytest.raises(ValueError):
        list(sieve.interval_windows(20, 20))


@pytest.mark.parametrize("x,c", SWEEP)
def test_lemma2_streamed_equals_materialised(segment, x, c):
    chk, bs, rel_diff = verify.lemma2_report(x, c)
    ip = sieve.interval_primes(x, bs.y)
    direct = math.exp(analytic.log_t_product(ip, ProductMethod.DIRECT))
    tele = math.exp(analytic.log_t_product(ip, ProductMethod.TELESCOPED))
    assert chk.observed == direct
    assert rel_diff == direct / tele - 1.0
    pred = bs.beta**2 / math.exp(c / math.log(x))
    assert (chk.predicted, chk.scaled_residual) == (pred, direct / pred - 1.0)
    iv = means.reduce_interval(x, bs.y, tuple(ProductMethod))
    assert iv.sup is None and iv.twin_lower is None   # not asked for: not collected
    for m in ProductMethod:
        assert iv.log_t(m) == analytic.log_t_product(ip, m)
        one_route = means.reduce_interval(x, bs.y, (m,))
        assert math.exp(one_route.log_t(m)) == math.exp(analytic.log_t_product(ip, m))


def test_reduction_equals_materialised_ratio_set(segment):
    rng = random.Random(segment + 1)
    for _ in range(30):
        x = rng.randrange(3, 10**6)
        y = x + rng.randrange(1, 3 * min(segment, 2**16))
        try:
            rs = means.build_ratio_set(sieve.interval_primes(x, y))
        except EmptySetError:
            with pytest.raises(EmptySetError):
                means.reduce_interval(x, y)
            continue
        iv = means.reduce_interval(x, y, sup=True, twins=True)
        assert (iv.count, iv.product.p_s, iv.P, iv.p_e) == (rs.primes.size, rs.primes[0], rs.primes[-1], rs.p_e)
        assert iv.sup == rs.sup
        assert iv.twin_lower.tolist() == set_twins(rs)
        rep = verify.twin_criterion(x, y)
        assert rep.m_inf == rs.sup and rep.P == int(rs.primes[-1])
        assert rep.decision == bool(rep.brute_force_twins)


def test_reduction_near_the_cap(monkeypatch):
    # p*q passes 2^63 here; the sup is exact only with Python-int products
    x, y = 10**10 - 3000, 10**10
    rs = means.build_ratio_set(sieve.interval_primes(x, y))
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 256)
    iv = means.reduce_interval(x, y, sup=True, twins=True)
    assert iv.sup == rs.sup and iv.count == rs.primes.size
    assert [(p, p + 2) for p in iv.twin_lower.tolist()] == oracle.twin_pairs(x, y)


@pytest.mark.parametrize("seg", [16, 64])
def test_sup_of_a_twinless_interval_from_a_later_window(monkeypatch, seg):
    x, y = 9_999_998_611, 9_999_999_016   # between two twin pairs, near the cap
    rs = means.build_ratio_set(sieve.interval_primes(x, y))
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", seg)
    iv = means.reduce_interval(x, y, sup=True, twins=True)
    first, _ = next(sieve.interval_windows(x, y))
    assert iv.sup.numerator > first[-1] and iv.twin_lower.size == 0   # below 1: numerator p
    assert iv.sup == rs.sup
    assert verify.twin_criterion(x, y).decision is False


@pytest.mark.parametrize("seg", [16, 64, 2**12])
def test_twin_pairs_in_carries_across_windows(monkeypatch, seg):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", seg)
    rng = random.Random(seg)
    for _ in range(30):
        x = rng.randrange(1, 20_000)
        y = x + rng.randrange(1, 2_000)
        assert TwinPairs(sieve.twin_pairs_in(x, y)) == oracle.twin_pairs(x, y)


def traced_report_1e8() -> tuple[Theorem1Row, int]:
    """theorem1_report(1e8, 4.0) and its tracemalloc peak in bytes."""
    verify.theorem1_report(10**5, 4.0)   # imports and first-call set-up outside the trace
    tracemalloc.start()
    try:
        row = verify.theorem1_report(10**8, 4.0)
        return row, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem1_report_memory_is_bounded_by_the_windows():
    row, peak = traced_report_1e8()
    assert (row.pi_interval, len(row.twin_pairs)) == (1_308_577, 93_219)
    assert peak < REPORT_1E8_PEAK_MIB * 2**20


def test_theorem1_report_holds_one_window_of_primes():
    assert traced_report_1e8()[1] < REPORT_1E8_BLOCKED_PEAK_MIB * 2**20


# ---------------------------------------------------------------------------
# the twin-pair view and its json


def test_twin_pairs_view():
    tp = TwinPairs([101, 107, 137])
    assert len(tp) == 3 and bool(tp) and not TwinPairs([])
    assert not isinstance(tp, Sequence) and tp.lower.tolist() == [101, 107, 137]
    assert list(tp) == [(101, 103), (107, 109), (137, 139)]
    assert tp == TwinPairs(np.array([101, 107, 137])) and tp != TwinPairs([101, 107])
    assert tp == [(101, 103), (107, 109), (137, 139)] == tp
    assert tp != [(101, 103)] and tp != (101, 103)
    assert pickle.loads(pickle.dumps(tp)) == tp
    assert repr(tp) == "TwinPairs([(101, 103), (107, 109), (137, 139)])"
    row = verify.theorem1_report(10**4, 1.0)
    assert pickle.loads(pickle.dumps(row)) == row


class Pieces(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def test_json_twin_pairs_are_written_in_pieces(monkeypatch, capsys):
    assert cli.run(["theorem1", "--x", "1e6", "--format", "json"]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "JSON_PAIRS_PER_PIECE", 8)
    out = Pieces()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.run(["theorem1", "--x", "1e6", "--format", "json"]) == 0
    assert out.getvalue() == whole
    assert max(out.sizes) < 8 * 30 < len(whole) // 20
    pairs = json.loads(whole)["twin_pairs"]
    scan = sieve.twin_pairs_in(10**6, verify.beta_for(10**6, 1.0).y)
    assert TwinPairs(scan) == [tuple(p) for p in pairs]


def test_json_renders_twin_pairs_and_dicts_at_any_depth():
    obj = {"rows": [{"pairs": TwinPairs([5, 11]), "n": 2}], "nested": [[TwinPairs([17])], []]}
    text = "".join(cli._json_pieces(obj))
    assert text == (
        '{\n'
        '  "rows": [\n'
        '    {\n'
        '      "pairs": [[5, 7], [11, 13]],\n'
        '      "n": 2\n'
        '    }\n'
        '  ],\n'
        '  "nested": [[[[17, 19]]], []]\n'
        '}'
    )
    assert json.loads(text)["nested"] == [[[[17, 19]]], []]
