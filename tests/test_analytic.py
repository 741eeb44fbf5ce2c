"""Prime sums, constant estimates, and the two product routes.

Reference values marked "frozen oracle" were computed once with 40-digit
mpmath arithmetic over trial-division prime lists (see _oracles.py for the
prime generation); they are exact to well beyond double precision.
"""

import math
import random
from fractions import Fraction

import pytest

from twinmeans import analytic, sieve
from twinmeans.analytic import EULER_GAMMA, ProductMethod

import _oracles as oracle


# ---------------------------------------------------------------------------
# mertens_sum


def test_mertens_sum_smallest():
    assert analytic.mertens_sum(2) == 0.5


def test_mertens_sum_10():
    assert analytic.mertens_sum(10) == pytest.approx(float(Fraction(247, 210)), rel=1e-15)


def test_mertens_sum_exact_fraction_oracle():
    exact = oracle.mertens_sum_exact(100)
    assert analytic.mertens_sum(100) == pytest.approx(
        exact.numerator / exact.denominator, rel=1e-14
    )


def test_mertens_sum_1000_frozen_oracle():
    assert analytic.mertens_sum(1_000) == pytest.approx(
        2.198080127175087541588, rel=1e-14
    )


def test_mertens_sum_rejects_small_x():
    with pytest.raises(ValueError):
        analytic.mertens_sum(1)


def test_mertens_sum_segment_independent(monkeypatch):
    a = analytic.mertens_sum(10_000)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    b = analytic.mertens_sum(10_000)
    assert a == b


# ---------------------------------------------------------------------------
# constant estimates


def test_estimate_M_cutoff_two_closed_form():
    m, tail = analytic.estimate_M(2)
    assert m == pytest.approx(EULER_GAMMA + math.log(0.5) + 0.5, rel=1e-15)
    assert m == pytest.approx(0.38406848434158755, rel=1e-14)  # frozen oracle
    assert tail == 0.5


def test_estimate_M_cutoff_10_frozen_oracle():
    m, tail = analytic.estimate_M(10)
    assert m == pytest.approx(0.2774996212824313, rel=1e-14)
    assert tail == 0.1


def test_estimate_M_cutoff_1000_frozen_oracle():
    m, _ = analytic.estimate_M(1_000)
    assert m == pytest.approx(0.2615607301918138, rel=1e-13)


def test_estimate_M_converges_to_literature_value():
    # Mertens' constant, a standard table value
    M_REF = 0.2614972128476428
    for cutoff in (10_000, 100_000):
        m, tail = analytic.estimate_M(cutoff)
        assert abs(m - M_REF) < tail


def test_estimate_C_smallest_cutoffs_frozen_oracle():
    c3, tail3 = analytic.estimate_C(3)
    assert c3 == pytest.approx(0.4319456220014430, rel=1e-14)
    assert tail3 == 2.0
    c7, _ = analytic.estimate_C(7)
    assert c7 == pytest.approx(0.5935291966743609, rel=1e-14)
    # nothing new between 7 and 10
    c10, tail10 = analytic.estimate_C(10)
    assert c10 == c7
    assert tail10 == pytest.approx(0.6)


def test_estimate_C_cutoff_1000_frozen_oracle():
    c, _ = analytic.estimate_C(1_000)
    assert c == pytest.approx(0.6601586822126091, rel=1e-13)


def test_estimate_C_rejects_small_cutoff():
    with pytest.raises(ValueError):
        analytic.estimate_C(2)


def test_estimates_tail_radii_shrink():
    _, t1 = analytic.estimate_C(1_000)
    _, t2 = analytic.estimate_C(10_000)
    assert t2 < t1
    _, u1 = analytic.estimate_M(1_000)
    _, u2 = analytic.estimate_M(10_000)
    assert u2 < u1


def test_estimate_C_successive_cutoffs_within_tail():
    c1, tail1 = analytic.estimate_C(1_000)
    c2, _ = analytic.estimate_C(100_000)
    assert abs(c2 - c1) < tail1


# The series values of M and C to 30 digits, frozen from the mpmath series
# (the Moebius series for M; Cohen 1998, "High precision computation of
# Hardy-Littlewood constants", for C).  Compared as exact fractions.
M_30 = Fraction("0.261497212847642783755426838609")
C_30 = Fraction("0.660412841474602882352627514524")
ORACLE_CUTOFFS = (10**4, 10**5, 10**6, 10**7)


@pytest.mark.parametrize("cutoff", ORACLE_CUTOFFS)
def test_estimates_lie_within_their_tail_radii_of_the_30_digit_constants(cutoff):
    m, tail_m = analytic.estimate_M(cutoff)
    assert abs(Fraction(m) - M_30) <= tail_m
    c, tail_c = analytic.estimate_C(cutoff)
    assert abs(Fraction(c) - C_30) <= tail_c


def test_estimate_C_rises_to_the_30_digit_constant():
    cs = [Fraction(analytic.estimate_C(cutoff)[0]) for cutoff in ORACLE_CUTOFFS]
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert cs[-1] < C_30


# ---------------------------------------------------------------------------
# derived constants


def test_derived_constants_arithmetic():
    b = analytic.derived_constants(0.25, 0.5)
    assert b.D_prime == pytest.approx(0.0, abs=1e-16)
    assert b.D == pytest.approx(math.log(2), rel=1e-15)


def test_compute_constants_bundles_consistently():
    b = analytic.compute_constants(1_000)
    m, mt = analytic.estimate_M(1_000)
    c, ct = analytic.estimate_C(1_000)
    assert b.M == m and b.C == c
    assert b.D_prime == pytest.approx(2 * m + c - 1, rel=1e-15)
    assert b.D == pytest.approx(b.D_prime + math.log(2), rel=1e-15)
    assert b.cutoff == 1_000
    assert (b.tail_radius_M, b.tail_radius_C) == (mt, ct)
    assert b.tail_radius == max(mt, ct)


# ---------------------------------------------------------------------------
# twin-factor product


def test_twin_product_tiny():
    assert analytic.twin_product(3) == pytest.approx(1 / 6, rel=1e-15)
    assert analytic.twin_product(10) == pytest.approx(1 / 14, rel=1e-15)


def test_twin_product_100_frozen_oracle():
    assert analytic.twin_product(100) == pytest.approx(
        0.019148520552562376, rel=1e-14
    )


def test_twin_product_matches_exact_fraction_sweep():
    rng = random.Random(23)
    for _ in range(30):
        x = rng.randrange(3, 500)
        exact = oracle.twin_product_exact(x)
        assert analytic.twin_product(x) == pytest.approx(
            exact.numerator / exact.denominator, rel=1e-13
        )


def test_twin_product_rejects_small_x():
    with pytest.raises(ValueError):
        analytic.twin_product(2)


# ---------------------------------------------------------------------------
# interval ratio product, both routes


def test_t_product_10_20_known_value():
    want = float(Fraction(247, 315))
    assert analytic.t_product(10, 20, ProductMethod.DIRECT) == pytest.approx(
        want, rel=1e-14
    )
    assert analytic.t_product(10, 20, ProductMethod.TELESCOPED) == pytest.approx(
        want, rel=1e-14
    )


def test_t_product_single_unit_ratio():
    # (2, 3] holds only 3, and 3/(5-2) = 1
    assert analytic.t_product(2, 3, ProductMethod.DIRECT) == pytest.approx(1.0)
    assert analytic.t_product(2, 3, ProductMethod.TELESCOPED) == pytest.approx(1.0)


def test_t_product_routes_agree_and_match_exact_oracle():
    rng = random.Random(29)
    for _ in range(40):
        x = rng.randrange(2, 3_000)
        y = x + rng.randrange(2, 500)
        try:
            d = analytic.t_product(x, y, ProductMethod.DIRECT)
        except Exception:
            continue  # empty interval; covered elsewhere
        t = analytic.t_product(x, y, ProductMethod.TELESCOPED)
        exact = oracle.t_product_exact(x, y)
        ref = exact.numerator / exact.denominator
        assert d == pytest.approx(ref, rel=1e-12)
        assert t == pytest.approx(ref, rel=1e-12)
        assert d == pytest.approx(t, rel=1e-12)


def test_log_t_product_is_log_of_t_product():
    from twinmeans import sieve

    ip = sieve.interval_primes(100, 200)
    for method in ProductMethod:
        lg = analytic.log_t_product(ip, method)
        assert math.exp(lg) == pytest.approx(
            analytic.t_product(100, 200, method), rel=1e-14
        )


# ---------------------------------------------------------------------------
# asymptotic checks


def test_mertens_check_formula():
    m_hat, _ = analytic.estimate_M(10_000)
    chk = analytic.mertens_check(10_000, m_hat)
    logx = math.log(10_000)
    assert chk.observed == pytest.approx(analytic.mertens_sum(10_000), rel=1e-15)
    assert chk.predicted == pytest.approx(math.log(logx) + m_hat, rel=1e-15)
    assert chk.scaled_residual == pytest.approx(
        (chk.observed - chk.predicted) * logx**2, rel=1e-12
    )
    assert chk.scale_note


def test_lemma1_check_formula():
    consts = analytic.compute_constants(10_000)
    chk = analytic.lemma1_check(1_000, consts)
    logx = math.log(1_000)
    assert chk.observed == pytest.approx(analytic.twin_product(1_000), rel=1e-15)
    assert chk.predicted == pytest.approx(
        math.exp(-consts.D) / logx**2, rel=1e-15
    )
    assert chk.scaled_residual == pytest.approx(
        chk.observed / chk.predicted - 1.0, rel=1e-12
    )


def test_lemma2_check_formula():
    from twinmeans import verify

    chk = analytic.lemma2_check(100, 1.0)
    bs = verify.beta_for(100, 1.0)
    assert chk.observed == pytest.approx(
        analytic.t_product(100, bs.y, ProductMethod.DIRECT), rel=1e-15
    )
    assert chk.predicted == pytest.approx(
        bs.beta**2 / math.exp(1.0 / math.log(100)), rel=1e-15
    )
    assert chk.scaled_residual == pytest.approx(
        chk.observed / chk.predicted - 1.0, rel=1e-12
    )
