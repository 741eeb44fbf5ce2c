"""Ratio elements, ratio sets, power means, and their limits."""

import math
import random
from fractions import Fraction

import pytest

from twinmeans import analytic, means, sieve, verify
from twinmeans.errors import EmptySetError
from twinmeans.means import MeanLimit

import _oracles as oracle

# the alpha grid of perfbench's ratio_means session
SESSION_ALPHAS = [-800.0, -100.0, -10.0, -1.0, 1.0, 10.0, 100.0, 800.0]


# ---------------------------------------------------------------------------
# ratio elements: exact Fractions


def pairs(rs):
    """The integer pairs (p_n, p_{n+1} - 2) of a ratio set, from its arrays."""
    return list(zip(rs.primes.tolist(), (rs.primes + rs.k).tolist()))


def test_ratio_element_value_and_fraction():
    rs = means.build_ratio_set(sieve.interval_primes(10, 20))
    elements = oracle.set_elements(rs)
    e = elements[1]
    assert float(e) == 13 / 15 == rs.values[1]
    assert e == Fraction(13, 15)
    assert e != 1
    assert elements[2] == 1    # 17/17


def oracle_sweep():
    """80 random intervals (x, y] below 2,300 (seed 5), each with its ratio
    set, unless it holds no prime."""
    rng = random.Random(5)
    for _ in range(80):
        x = rng.randrange(2, 2_000)
        y = x + rng.randrange(1, 300)
        ip = sieve.interval_primes(x, y)
        if ip.primes.size:
            yield x, y, means.build_ratio_set(ip)


def test_ratio_element_invariants_enforced():
    # element p/(q-2) lies in (0, 1]: it is 1 for a twin pair q = p + 2, and
    # otherwise in lowest terms, numerator p, since 0 < q - 2 - p < p
    for x, y, rs in oracle_sweep():
        ps = oracle.primes_between(x, y)
        seq = ps + [oracle.next_prime(ps[-1])]
        for e, p, q in zip(oracle.set_elements(rs), seq, seq[1:]):
            assert 0 < e <= 1
            if q == p + 2:
                assert e == 1
            else:
                assert (e.numerator, e.denominator) == (p, q - 2)


def test_ratio_element_exact_comparisons():
    assert Fraction(13, 15) < Fraction(19, 21)   # 273 < 285
    assert Fraction(19, 21) > Fraction(13, 15)
    assert Fraction(2, 4) == Fraction(3, 6)      # both 1/2
    assert Fraction(2, 4) <= Fraction(3, 6)
    assert Fraction(2, 4) >= Fraction(3, 6)
    assert Fraction(11, 11) == Fraction(97, 97)
    assert Fraction(13, 15) != Fraction(13, 14)


def test_ratio_element_comparison_matches_fractions():
    # the order of the elements is the integer cross-multiplication
    rng = random.Random(3)
    for _ in range(300):
        a_num = rng.randrange(2, 500)
        a_den = rng.randrange(a_num, a_num + 200)
        b_num = rng.randrange(2, 500)
        b_den = rng.randrange(b_num, b_num + 200)
        a, b = Fraction(a_num, a_den), Fraction(b_num, b_den)
        assert (a < b) == (a_num * b_den < b_num * a_den)
        assert (a == b) == (a_num * b_den == b_num * a_den)
        assert (a <= b) == (a_num * b_den <= b_num * a_den)
        assert (a > b) == (a_num * b_den > b_num * a_den)
        assert (a >= b) == (a_num * b_den >= b_num * a_den)


def test_ratio_element_compares_exactly_with_floats():
    # a float is compared by its exact value, not by rounding the element
    r = Fraction(3, 5)
    assert r != 0.6 and not (r == 0.6)
    assert r > 0.6 and r >= 0.6 and not (r < 0.6)   # the double 0.6 lies below 3/5
    assert float(r) == 0.6
    assert r >= Fraction(3, 5)


# ---------------------------------------------------------------------------
# build_ratio_set


def test_ratio_set_10_20():
    rs = means.build_ratio_set(sieve.interval_primes(10, 20))
    assert pairs(rs) == [
        (11, 11),
        (13, 15),
        (17, 17),
        (19, 21),
    ]
    assert oracle.set_elements(rs) == [1, Fraction(13, 15), 1, Fraction(19, 21)]
    assert (rs.x, rs.y) == (10, 20)


def test_ratio_set_uses_successor_prime_beyond_y():
    # single prime 97 in (89, 97]; its successor 101 lies outside
    rs = means.build_ratio_set(sieve.interval_primes(89, 97))
    assert pairs(rs) == [(97, 99)]
    assert oracle.set_elements(rs) == [Fraction(97, 99)]


def test_ratio_set_2_3():
    rs = means.build_ratio_set(sieve.interval_primes(2, 3))
    assert pairs(rs) == [(3, 3)]
    assert oracle.set_elements(rs) == [1]


def test_ratio_set_rejects_prime_two():
    # 2/(3-2) = 2 would break every bound in the package
    with pytest.raises(ValueError):
        means.build_ratio_set(sieve.interval_primes(1, 10))


def test_ratio_set_empty_interval():
    with pytest.raises(EmptySetError):
        means.build_ratio_set(sieve.interval_primes(24, 28))


def test_ratio_set_matches_oracle_sweep():
    for x, y, rs in oracle_sweep():
        assert oracle.set_elements(rs) == oracle.ratio_elements(x, y)


def test_max_min_element():
    rs = means.build_ratio_set(sieve.interval_primes(10, 20))
    assert means.max_element(rs) == 1
    assert means.min_element(rs) == Fraction(13, 15)


# ---------------------------------------------------------------------------
# power_mean on floats


def test_power_mean_quarter_one():
    got = means.power_mean([0.25, 1.0], 2.0)
    assert got.value == pytest.approx(math.sqrt(17 / 32), rel=1e-15)
    assert got.count == 2
    assert got.alpha == 2.0


def test_power_mean_alpha_one_is_arithmetic():
    vals = [0.3, 0.5, 0.9]
    got = means.power_mean(vals, 1.0)
    assert got.value == pytest.approx(sum(vals) / 3, rel=1e-15)


def test_power_mean_harmonic():
    got = means.power_mean([0.25, 1.0], -1.0)
    assert got.value == pytest.approx(0.4, rel=1e-15)


def test_power_mean_constant_set_is_exact():
    for alpha in (-8.0, -1.0, 0.5, 3.0, 64.0):
        assert means.power_mean([0.73] * 5, alpha).value == pytest.approx(
            0.73, rel=1e-15
        )


def test_power_mean_extreme_alpha_no_overflow():
    vals = [1e-150, 1.0]
    up = means.power_mean(vals, 800.0)
    dn = means.power_mean(vals, -800.0)
    assert 0.0 < dn.value <= up.value <= 1.0
    assert math.isfinite(up.value) and math.isfinite(dn.value)


def test_power_mean_rejects_bad_input():
    with pytest.raises(EmptySetError):
        means.power_mean([], 2.0)
    with pytest.raises(ValueError):
        means.power_mean([0.5], 0.0)
    with pytest.raises(ValueError):
        means.power_mean([0.5], math.inf)
    with pytest.raises(ValueError):
        means.power_mean([0.5, -0.5], 2.0)
    with pytest.raises(ValueError):
        means.power_mean([0.5, 0.0], 2.0)
    with pytest.raises(ValueError):
        means.power_mean([0.5, math.nan], 2.0)


def test_power_mean_matches_textbook_formula():
    rng = random.Random(9)
    for _ in range(100):
        vals = [rng.uniform(0.05, 1.0) for _ in range(rng.randrange(1, 30))]
        alpha = rng.choice([-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0])
        got = means.power_mean(vals, alpha).value
        ref = oracle.power_mean_float(vals, alpha)
        assert got == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# power_mean on ratio elements


def test_power_mean_ratio_matches_exact_fraction():
    rs = means.build_ratio_set(sieve.interval_primes(10, 20))
    for alpha in (-3, -1, 1, 2, 5):
        exact = sum(e ** alpha for e in oracle.set_elements(rs)) / Fraction(4)
        got = means.power_mean(rs, float(alpha)).value
        assert got == pytest.approx(float(exact) ** (1.0 / alpha), rel=1e-14)


def test_power_mean_ratio_agrees_with_float_path():
    # one path: a set's values are the correctly rounded floats of its
    # elements, so its power means and +-inf limits are theirs, bit for bit
    rs = means.build_ratio_set(sieve.interval_primes(100, 200))
    vals = [float(e) for e in oracle.set_elements(rs)]
    for alpha in (-8.0, -1.0, 0.5, 2.0, 8.0, *SESSION_ALPHAS):
        a = means.power_mean(rs, alpha).value
        b = means.power_mean(vals, alpha).value
        assert a == b
    assert means.mean_limit(rs, MeanLimit.PLUS_INF).value == max(vals)
    assert means.mean_limit(rs, MeanLimit.MINUS_INF).value == min(vals)


# ---------------------------------------------------------------------------
# mean_limit


def test_mean_limit_extremes_are_exact():
    rs = means.build_ratio_set(sieve.interval_primes(10, 20))
    up = means.mean_limit(rs, MeanLimit.PLUS_INF)
    dn = means.mean_limit(rs, MeanLimit.MINUS_INF)
    assert up.value == 1.0 and up.alpha == math.inf
    assert dn.value == 13 / 15 and dn.alpha == -math.inf


def test_mean_limit_zero_matches_exact_product():
    rs = means.build_ratio_set(sieve.interval_primes(10, 20))
    exact = Fraction(1)
    for e in oracle.set_elements(rs):
        exact *= e
    got = means.mean_limit(rs, MeanLimit.ZERO)
    assert got.value == pytest.approx(float(exact) ** 0.25, rel=1e-15)
    assert got.alpha == 0.0


@pytest.mark.parametrize("x,c", [(1e4, 1), (1e6, 1), (7e6, 2.0), (1e8, 0.1), (3.1e7, 1.3)])
def test_geometric_mean_is_theorem1_m0_and_the_product_mean(x, c):
    # one formula: the ratio set's geometric mean is T^(1/pi) by the DIRECT
    # product route, the number theorem1 reports as M0, to the last bit
    ip = sieve.interval_primes(int(x), verify.beta_for(int(x), c).y)
    geo = means.mean_limit(means.build_ratio_set(ip), MeanLimit.ZERO)
    assert geo.count == ip.primes.size
    assert geo.value == verify.theorem1_report(int(x), c).m0
    assert geo.value == math.exp(analytic.log_t_product(ip) / ip.primes.size)


def test_mean_limit_zero_float_path():
    vals = [0.2, 0.5, 0.9, 1.0]
    got = means.mean_limit(vals, MeanLimit.ZERO)
    assert got.value == pytest.approx(oracle.geometric_mean_float(vals), rel=1e-14)


def test_mean_limit_rejects_junk():
    with pytest.raises(ValueError):
        means.mean_limit([0.5], 0.0)       # must be a MeanLimit member
    with pytest.raises(EmptySetError):
        means.mean_limit([], MeanLimit.ZERO)


def test_small_alpha_approaches_geometric():
    vals = [0.31, 0.62, 0.93]
    geo = means.mean_limit(vals, MeanLimit.ZERO).value
    for alpha in (1e-6, -1e-6):
        assert means.power_mean(vals, alpha).value == pytest.approx(geo, rel=1e-5)


def test_monotone_in_alpha_and_bracketed():
    rng = random.Random(21)
    grid = [-16.0, -4.0, -1.0, -0.25, 0.25, 1.0, 4.0, 16.0]
    for _ in range(50):
        vals = [rng.uniform(0.01, 1.0) for _ in range(rng.randrange(2, 40))]
        ms = [means.power_mean(vals, a).value for a in grid]
        for lo, hi in zip(ms, ms[1:]):
            assert hi >= lo - 1e-12
        assert min(vals) <= ms[0] + 1e-15
        assert ms[-1] <= max(vals) + 1e-15
