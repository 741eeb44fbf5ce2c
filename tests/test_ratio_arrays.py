"""Array-backed ratio sets: exact sup, inf and twin pairs from the primes
array, the lazy elements view, and the vectorised means over it.

The oracles are trial division and Fraction arithmetic (tests/_oracles.py).
The near-cap window sits just under MAX_SIEVE_LIMIT = 1e10, where a product
of two primes passes 2^63, so an int64 product anywhere on these paths would
show as a wrong sup, inf or mean.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinmeans import means, sieve, verify
from twinmeans.errors import EmptySetError
from twinmeans.means import MeanLimit, RatioElement, RatioElements, RatioSet

import _oracles as oracle

NEAR_CAP = (10**10 - 3000, 10**10)
NEAR_CAP_TWINLESS = (9_999_998_611, 9_999_999_016)   # between two twin pairs
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def ratio_set(x, y):
    return means.build_ratio_set(sieve.interval_primes(x, y))


# ---------------------------------------------------------------------------
# near the sieve cap


@pytest.fixture(scope="module")
def near_cap():
    x, y = NEAR_CAP
    return ratio_set(x, y), oracle.ratio_elements(x, y)


def test_near_cap_sup_inf_exact(near_cap):
    rs, fracs = near_cap
    assert rs.primes[-1] > 2**33                 # p*q > 2^66: no int64 product fits
    assert [e.as_fraction() for e in rs.elements] == fracs
    assert rs.sup.as_fraction() == max(fracs) == 1
    assert rs.inf.as_fraction() == min(fracs)


def test_near_cap_twin_pairs(near_cap):
    rs, _ = near_cap
    assert rs.twin_pairs() == oracle.twin_pairs(*NEAR_CAP)
    assert verify.TwinPairs(sieve.twin_pairs_in(*NEAR_CAP)) == rs.twin_pairs()


@pytest.mark.parametrize("alpha", [1, -1, 800, -800])
def test_near_cap_power_means(near_cap, alpha):
    rs, fracs = near_cap
    got = means.power_mean(rs.elements, float(alpha))
    assert got.count == len(fracs)
    assert got.value == pytest.approx(oracle.power_mean_exact(fracs, alpha), rel=1e-14)


def test_near_cap_twinless_window_is_exact():
    x, y = NEAR_CAP_TWINLESS
    rs = ratio_set(x, y)
    fracs = oracle.ratio_elements(x, y)
    assert rs.twin_pairs() == []
    assert rs.sup.as_fraction() == max(fracs) < 1
    assert rs.inf.as_fraction() == min(fracs)
    rep = verify.twin_criterion(x, y)
    assert rep.m_inf == max(fracs) and rep.decision is False
    for alpha in (1, -1, 800, -800):
        got = means.power_mean(rs.elements, float(alpha)).value
        assert got == pytest.approx(oracle.power_mean_exact(fracs, alpha), rel=1e-14)


# ---------------------------------------------------------------------------
# the order k/p and the lazy view


def test_sup_is_smallest_k_over_p_not_smallest_k():
    # synthetic arrays: k = [2, 84, 4]; 2/11 > 4/101, so 101/105 beats 11/13
    rs = RatioSet(x=10, y=110, primes=np.array([11, 15, 101]), p_e=107)
    assert rs.k.tolist() == [2, 84, 4]
    assert rs.sup.as_fraction() == Fraction(101, 105)
    assert rs.inf.as_fraction() == Fraction(15, 99)


def test_ratio_set_rejects_empty_and_two():
    with pytest.raises(EmptySetError):
        RatioSet(x=24, y=28, primes=np.empty(0, dtype=np.int64), p_e=29)
    with pytest.raises(ValueError):
        RatioSet(x=1, y=3, primes=np.array([2, 3]), p_e=5)


def test_elements_view_is_a_lazy_sequence():
    rs = ratio_set(10, 20)
    view = rs.elements
    assert isinstance(view, RatioElements)
    assert len(view) == 4
    assert (view[0].num, view[0].den) == (11, 11)
    assert (view[-1].num, view[-1].den) == (19, 21)
    assert [(e.num, e.den) for e in view[1:3]] == [(13, 15), (17, 17)]
    with pytest.raises(IndexError):
        view[4]
    assert RatioElement(13, 15) in view
    assert means.max_element(view) is rs.sup


def test_means_read_the_arrays_not_the_view(monkeypatch):
    rs = ratio_set(1_000, 3_000)
    expected = [e.as_fraction() for e in rs.elements]

    def no_iteration(self):
        raise AssertionError("the elements view was iterated")

    monkeypatch.setattr(RatioElements, "__iter__", no_iteration)
    for alpha in (-8.0, -1.0, 2.0, 8.0):
        got = means.power_mean(rs.elements, alpha).value
        assert got == pytest.approx(oracle.power_mean_exact(expected, int(alpha)), rel=1e-14)
    assert means.mean_limit(rs.elements, MeanLimit.PLUS_INF).value == float(max(expected))
    assert means.mean_limit(rs.elements, MeanLimit.MINUS_INF).value == float(min(expected))
    geo = means.mean_limit(rs.elements, MeanLimit.ZERO).value
    assert geo == pytest.approx(float(oracle.t_product_exact(1_000, 3_000)) ** (1 / len(expected)), rel=1e-14)


def test_ratio_element_list_is_refused():
    # the means take a ratio set's elements view or floats; a list of
    # RatioElement is neither, and float() refuses its elements
    rs = ratio_set(100, 400)
    listed = list(rs.elements)
    for alpha in (-3.0, 0.5, 7.0):
        with pytest.raises(TypeError):
            means.power_mean(listed, alpha)
    for which in MeanLimit:
        with pytest.raises(TypeError):
            means.mean_limit(listed, which)


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
    assert len(rs.elements) == len(fracs)
    assert rs.sup.as_fraction() == max(fracs)
    assert rs.inf.as_fraction() == min(fracs)
    assert rs.twin_pairs() == oracle.twin_pairs(x, y)


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
