"""Array-backed ratio sets: exact sup, inf and twin pairs from the primes
array, the set read only through its arrays, and the vectorised means over
it.

The oracles are trial division and Fraction arithmetic (tests/_oracles.py).
The near-cap window sits just under MAX_SIEVE_LIMIT = 1e10, where a product
of two primes passes 2^63, so an int64 product anywhere on these paths would
show as a wrong sup, inf or mean.  The reductions of a set run in blocks of
at most sieve._BLOCK elements: their bits do not depend on the block size,
and they hold a fixed buffer above the set's own arrays.
"""

import dataclasses
import math
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinmeans import analytic, means, sieve, verify
from twinmeans.analytic import ProductMethod
from twinmeans.errors import EmptySetError
from twinmeans.means import MeanLimit, RatioSet
from twinmeans.sieve import IntervalPrimes

import _oracles as oracle

NEAR_CAP = (10**10 - 3000, 10**10)
NEAR_CAP_TWINLESS = (9_999_998_611, 9_999_999_016)   # between two twin pairs
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SESSION_ALPHAS = [-800.0, -100.0, -10.0, -1.0, 1.0, 10.0, 100.0, 800.0]
# the intervals (x, floor(x^beta)) of perfbench's ratio_means session at seed
# 1, c = 0.444902, 1.697999, 2.640372, 3.416977: 75,688 to 83,188 elements
SESSION_INTERVALS = [
    (53_368_102, 54_719_379),
    (11_699_547, 12_986_124),
    (7_064_700, 8_352_275),
    (5_256_257, 6_554_989),
]


def ratio_set(x, y):
    return means.build_ratio_set(sieve.interval_primes(x, y))


def twin_pairs(rs):
    """The twin pairs (p, p+2) of a ratio set: its elements equal to 1."""
    return [(p, p + 2) for p, e in zip(rs.primes.tolist(), oracle.set_elements(rs)) if e == 1]


# ---------------------------------------------------------------------------
# near the sieve cap


@pytest.fixture(scope="module")
def near_cap():
    x, y = NEAR_CAP
    return ratio_set(x, y), oracle.ratio_elements(x, y)


def test_near_cap_sup_inf_exact(near_cap):
    rs, fracs = near_cap
    assert rs.primes[-1] > 2**33                 # p*q > 2^66: no int64 product fits
    elements = oracle.set_elements(rs)
    assert elements == fracs
    assert rs.sup == max(fracs) == 1
    assert rs.inf == min(fracs)
    # 0 < q - 2 - p < p (Bertrand): a non-twin element keeps numerator p
    ps = oracle.primes_between(*NEAR_CAP)
    seq = ps + [oracle.next_prime(ps[-1])]
    for e, p, q in zip(elements, seq, seq[1:]):
        if q == p + 2:
            assert e == 1
        else:
            assert (e.numerator, e.denominator) == (p, q - 2)


def test_near_cap_twin_pairs(near_cap):
    rs, _ = near_cap
    assert twin_pairs(rs) == oracle.twin_pairs(*NEAR_CAP)
    assert verify.TwinPairs(sieve.twin_pairs_in(*NEAR_CAP)) == twin_pairs(rs)


@pytest.mark.parametrize("alpha", [1, -1, 800, -800])
def test_near_cap_power_means(near_cap, alpha):
    rs, fracs = near_cap
    got = means.power_mean(rs, float(alpha))
    assert got.count == len(fracs)
    assert got.value == pytest.approx(oracle.power_mean_exact(fracs, alpha), rel=1e-14)


def test_near_cap_twinless_window_is_exact():
    x, y = NEAR_CAP_TWINLESS
    rs = ratio_set(x, y)
    fracs = oracle.ratio_elements(x, y)
    assert twin_pairs(rs) == []
    assert rs.sup == max(fracs) < 1
    assert rs.inf == min(fracs)
    rep = verify.twin_criterion(x, y)
    assert rep.m_inf == max(fracs) and rep.decision is False
    for alpha in (1, -1, 800, -800):
        got = means.power_mean(rs, float(alpha)).value
        assert got == pytest.approx(oracle.power_mean_exact(fracs, alpha), rel=1e-14)


# ---------------------------------------------------------------------------
# the order k/p and the set read through its arrays


def test_sup_is_smallest_k_over_p_not_smallest_k():
    # synthetic arrays: k = [2, 84, 4]; 2/11 > 4/101, so 101/105 beats 11/13
    rs = RatioSet(x=10, y=110, primes=np.array([11, 15, 101]), p_e=107)
    assert rs.k.tolist() == [2, 84, 4]
    assert rs.sup == Fraction(101, 105)
    assert rs.inf == Fraction(15, 99)


def test_ratio_set_rejects_empty_and_two():
    with pytest.raises(EmptySetError):
        RatioSet(x=24, y=28, primes=np.empty(0, dtype=np.int64), p_e=29)
    with pytest.raises(ValueError):
        RatioSet(x=1, y=3, primes=np.array([2, 3]), p_e=5)


def test_ratio_set_is_the_interval_record():
    # one record: a set is its IntervalPrimes, and declares no field of its own
    rs = ratio_set(10, 20)
    assert isinstance(rs, IntervalPrimes)
    assert [f.name for f in dataclasses.fields(RatioSet)] == ["x", "y", "primes", "p_e"]
    assert not vars(RatioSet).get("__annotations__")


def test_ratio_set_is_a_lazy_sequence():
    # no element reader: a set is its arrays, its length and its extremes
    rs = ratio_set(10, 20)
    assert not isinstance(rs, Sequence) and rs.elements is rs
    assert len(rs) == 4
    with pytest.raises(TypeError):
        rs[0]
    with pytest.raises(TypeError):
        iter(rs)
    assert means.max_element(rs) is rs.sup and means.min_element(rs) is rs.inf


def test_means_read_the_arrays_not_the_elements():
    rs = ratio_set(1_000, 3_000)
    expected = oracle.set_elements(rs)
    for alpha in (-8.0, -1.0, 2.0, 8.0):
        got = means.power_mean(rs, alpha).value
        assert got == pytest.approx(oracle.power_mean_exact(expected, int(alpha)), rel=1e-14)
    assert means.mean_limit(rs, MeanLimit.PLUS_INF).value == float(max(expected))
    assert means.mean_limit(rs, MeanLimit.MINUS_INF).value == float(min(expected))
    geo = means.mean_limit(rs, MeanLimit.ZERO).value
    assert geo == pytest.approx(float(oracle.t_product_exact(1_000, 3_000)) ** (1 / len(expected)), rel=1e-14)


@pytest.mark.parametrize("x,y", [(100, 400), *SESSION_INTERVALS])
def test_a_list_of_elements_gives_the_set_means(x, y):
    # float() of an element is one correctly rounded division, the bits of
    # rs.values, and the extremes are the set's exact ones: the list's means
    # are the set's, bit for bit (ZERO takes the product route on a set)
    rs = ratio_set(x, y)
    listed = oracle.set_elements(rs)
    for alpha in (-3.0, 0.5, 7.0, *SESSION_ALPHAS):
        assert means.power_mean(listed, alpha).value == means.power_mean(rs, alpha).value
    for which in (MeanLimit.PLUS_INF, MeanLimit.MINUS_INF):
        assert means.mean_limit(listed, which).value == means.mean_limit(rs, which).value


# ---------------------------------------------------------------------------
# reductions in blocks

BLOCKS = [1, 2, 7, 1 << 14, 1 << 20]   # 2^20 holds every set here in one block
# hand-made (primes, p_e); the excess k_n = p_{n+1} - 2 - p_n orders them
CRAFTED = {
    # sup is the smallest k/p, not the smallest k
    "k_over_p": ([11, 15, 101], 107),
    # k/p = 1/5, 2/7, 1/5, 7/26, 2/7: exact ties, equal Fractions
    "exact_ties": ([10, 14, 20, 26, 35], 47),
    # k = 2 throughout and every p rounds to 2^60, so every float k/p ties;
    # the exact sup is the last element and the exact inf the first
    "float_ties": ([2**60 + 1, 2**60 + 5, 2**60 + 9], 2**60 + 13),
}
REAL = {
    "twins_11_17": (10, 20),   # twin pairs (11, 13) and (17, 19): one block each at sizes 1, 2
    "twins_many": (1_000, 3_000),
    "near_cap": NEAR_CAP,
    "near_cap_twinless": NEAR_CAP_TWINLESS,
}


def interval(case: str) -> tuple[IntervalPrimes, list[tuple[int, int]]]:
    """The case's interval primes, and its exact elements as (p, q - 2)
    pairs from the oracle (real intervals) or from the definition."""
    if case in CRAFTED:
        ps, p_e = CRAFTED[case]
        ip = IntervalPrimes(ps[0] - 1, ps[-1], np.array(ps, dtype=np.int64), p_e)
    else:
        x, y = REAL[case]
        ip = sieve.interval_primes(x, y)
        ps = oracle.primes_between(x, y)
        p_e = oracle.next_prime(ps[-1])
    seq = ps + [p_e]
    return ip, [(p, q - 2) for p, q in zip(seq, seq[1:])]


def reductions(ip: IntervalPrimes) -> dict:
    """Every reduction of a fresh ratio set of ip: exact pairs and float bits."""
    rs = means.build_ratio_set(ip)
    return {
        "sup": rs.sup,
        "inf": rs.inf,
        "power": [means.power_mean(rs, a).value.hex() for a in SESSION_ALPHAS],
        "limits": [means.mean_limit(rs, w).value.hex() for w in MeanLimit],
        "log_t": [analytic.log_t_product(ip, m).hex() for m in ProductMethod],
    }


@pytest.mark.parametrize("case", [*CRAFTED, *REAL])
def test_reductions_do_not_depend_on_block_size(monkeypatch, case):
    ip, pairs = interval(case)
    want = reductions(ip)
    fracs = [Fraction(p, q) for p, q in pairs]
    top, bottom = max(fracs), min(fracs)
    assert (want["sup"], want["inf"]) == (top, bottom)
    if case in REAL:    # an extreme below 1 names its element by its numerator
        for got in (want["sup"], want["inf"]):
            assert got == 1 or got.numerator == pairs[fracs.index(got)][0]
    for a, got in zip(SESSION_ALPHAS, want["power"]):
        assert float.fromhex(got) == pytest.approx(oracle.power_mean_exact(fracs, int(a)), rel=1e-14)
    plus, minus, zero = (float.fromhex(want["limits"][i]) for i in (1, 2, 0))
    assert (plus, minus) == (float(top), float(bottom))
    assert zero == pytest.approx(float(math.prod(fracs)) ** (1 / len(fracs)), rel=1e-14)
    if case in REAL:
        log_t = math.fsum(math.log1p(float(f - 1)) for f in fracs)
        for got in want["log_t"]:
            assert float.fromhex(got) == pytest.approx(log_t, rel=1e-12)
    for block in BLOCKS:
        monkeypatch.setattr(sieve, "_BLOCK", block)
        assert reductions(ip) == want


def test_reductions_of_a_set_of_several_full_blocks(monkeypatch):
    ip = sieve.interval_primes(10**6, 10**6 + 290_000)
    assert 1 << 14 < ip.primes.size < 1 << 15
    want = reductions(ip)
    for block in (7, 1 << 20):
        monkeypatch.setattr(sieve, "_BLOCK", block)
        assert reductions(ip) == want


def test_reductions_hold_a_fixed_buffer_above_the_set():
    # 184,673 elements, 12 blocks: a float temporary the size of the set
    # takes 1.4 MiB, above the bound
    ip = sieve.interval_primes(10**7, 13 * 10**6)
    rs = means.build_ratio_set(ip)
    assert rs.primes.size * 8 > 1 << 20
    rs.k, rs.values   # the set's own arrays: built untraced

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    runs = [lambda: rs.sup, lambda: rs.inf]
    runs += [lambda a=a: means.power_mean(rs, a) for a in SESSION_ALPHAS]
    runs += [lambda w=w: means.mean_limit(rs, w) for w in MeanLimit]
    runs += [lambda m=m: analytic.log_t_product(ip, m) for m in ProductMethod]
    for run in runs:
        assert peak(run) <= 1 << 20


# ---------------------------------------------------------------------------
# properties over random intervals


@st.composite
def intervals(draw):
    x = draw(st.integers(min_value=2, max_value=20_000))
    return x, x + draw(st.integers(min_value=1, max_value=800))


@PROPERTY_SETTINGS
@given(intervals())
def test_array_sup_inf_twins_match_oracle(xy):
    x, y = xy
    ip = sieve.interval_primes(x, y)
    if ip.primes.size == 0:
        assert oracle.primes_between(x, y) == []
        return
    rs = means.build_ratio_set(ip)
    fracs = oracle.ratio_elements(x, y)
    assert len(rs) == len(fracs)
    assert rs.sup == max(fracs)
    assert rs.inf == min(fracs)
    assert twin_pairs(rs) == oracle.twin_pairs(x, y)


@PROPERTY_SETTINGS
@given(intervals())
def test_twin_criterion_matches_brute_force(xy):
    x, y = xy
    try:
        rep = verify.twin_criterion(x, y)
    except EmptySetError:
        assert oracle.primes_between(x, y) == []
        return
    assert rep.brute_force_twins == oracle.twin_pairs(x, y)
    assert rep.decision == bool(rep.brute_force_twins)
    assert rep.m_inf == max(oracle.ratio_elements(x, y))


def test_a_products_pass_keeps_neither_criterion_side():
    iv = means.reduce_interval(10, 2_000, tuple(ProductMethod))
    assert iv.sup is None and iv.twin_lower is None


@PROPERTY_SETTINGS
@given(intervals())
def test_a_criterion_pass_keeps_the_sup_beside_the_scan(xy):
    # one switch: the exact sup is never taken without the brute-force scan,
    # and the two, computed apart, agree on whether a twin pair is there
    x, y = xy
    if not oracle.primes_between(x, y):
        with pytest.raises(EmptySetError, match=rf"^no primes in \({x}, {y}\]$"):
            means.reduce_interval(x, y, criterion=True)
        return
    iv = means.reduce_interval(x, y, criterion=True)
    assert (iv.sup == 1) == bool(iv.twin_lower.size)
