"""Prime sums, constant estimates, and the two product routes.

Reference values marked "frozen oracle" were computed once with 40-digit
mpmath arithmetic over trial-division prime lists (see _oracles.py for the
prime generation); they are exact to well beyond double precision.
"""

import ast
import inspect
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from twinmeans import analytic, means, sieve, verify
from twinmeans.analytic import EULER_GAMMA, ProductMethod
from twinmeans.errors import EmptySetError

import _oracles as oracle


# The paper's quantities are read through the entry points the CLI uses:
# the Mertens sum through mertens_report, M and C through compute_constants,
# the twin-factor product through lemma1_report, and the interval product T
# through the streamed reduction that lemma2_report runs.


def mertens_sum(x: int) -> float:
    """The sum of 1/p over p <= x, as the mertens report observes it."""
    return analytic.mertens_report(x, 2)[0].observed


def twin_product(x: int) -> float:
    """(1/2) prod_{2<p<=x} (1 - 2/p), as the lemma 1 report observes it."""
    return analytic.lemma1_report(x, 3)[0].observed


def t_product(x: int, y: int, method: ProductMethod) -> float:
    """T over (x, y] by one product route, from the streamed reduction."""
    return math.exp(means.reduce_interval(x, y, (method,)).log_t(method))


# ---------------------------------------------------------------------------
# Mertens sum


def test_mertens_sum_smallest():
    assert mertens_sum(2) == 0.5


def test_mertens_sum_10():
    assert mertens_sum(10) == pytest.approx(float(Fraction(247, 210)), rel=1e-15)


def test_mertens_sum_exact_fraction_oracle():
    exact = oracle.mertens_sum_exact(100)
    assert mertens_sum(100) == pytest.approx(
        exact.numerator / exact.denominator, rel=1e-14
    )


def test_mertens_sum_1000_frozen_oracle():
    assert mertens_sum(1_000) == pytest.approx(
        2.198080127175087541588, rel=1e-14
    )


def test_mertens_sum_rejects_small_x():
    with pytest.raises(ValueError):
        mertens_sum(1)


def test_mertens_sum_segment_independent(monkeypatch):
    a = mertens_sum(10_000)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    b = mertens_sum(10_000)
    assert a == b


# ---------------------------------------------------------------------------
# constant estimates


def test_estimate_M_cutoff_two_closed_form():
    # C needs cutoff >= 3, so M at 2 comes from the mertens report, and its
    # tail radius from the estimate both reports share
    m = analytic.mertens_report(2, 2)[1]
    assert m == pytest.approx(EULER_GAMMA + math.log(0.5) + 0.5, rel=1e-15)
    assert m == pytest.approx(0.38406848434158755, rel=1e-14)  # frozen oracle
    assert analytic._m_estimate(analytic.prime_sums({"M": 2})["M"], 2) == (m, 0.5)


def test_estimate_M_cutoff_10_frozen_oracle():
    b = analytic.compute_constants(10)
    assert b.M == pytest.approx(0.2774996212824313, rel=1e-14)
    assert b.tail_radius_M == 0.1


def test_estimate_M_cutoff_1000_frozen_oracle():
    assert analytic.compute_constants(1_000).M == pytest.approx(0.2615607301918138, rel=1e-13)


def test_estimate_M_converges_to_literature_value():
    # Mertens' constant, a standard table value
    M_REF = 0.2614972128476428
    for cutoff in (10_000, 100_000):
        b = analytic.compute_constants(cutoff)
        assert abs(b.M - M_REF) < b.tail_radius_M


def test_estimate_C_smallest_cutoffs_frozen_oracle():
    b3 = analytic.compute_constants(3)
    assert b3.C == pytest.approx(0.4319456220014430, rel=1e-14)
    assert b3.tail_radius_C == 2.0
    c7 = analytic.compute_constants(7).C
    assert c7 == pytest.approx(0.5935291966743609, rel=1e-14)
    # nothing new between 7 and 10
    b10 = analytic.compute_constants(10)
    assert b10.C == c7
    assert b10.tail_radius_C == pytest.approx(0.6)


def test_estimate_C_cutoff_1000_frozen_oracle():
    assert analytic.compute_constants(1_000).C == pytest.approx(0.6601586822126091, rel=1e-13)


def test_estimate_C_rejects_small_cutoff():
    with pytest.raises(ValueError):
        analytic.compute_constants(2)


def test_estimates_tail_radii_shrink():
    b1, b2 = analytic.compute_constants(1_000), analytic.compute_constants(10_000)
    assert b2.tail_radius_C < b1.tail_radius_C
    assert b2.tail_radius_M < b1.tail_radius_M


def test_estimate_C_successive_cutoffs_within_tail():
    b1 = analytic.compute_constants(1_000)
    c2 = analytic.compute_constants(100_000).C
    assert abs(c2 - b1.C) < b1.tail_radius_C


# The series values of M and C to 30 digits, frozen from the mpmath series
# (the Moebius series for M; Cohen 1998, "High precision computation of
# Hardy-Littlewood constants", for C).  Compared as exact fractions.
M_30 = Fraction("0.261497212847642783755426838609")
C_30 = Fraction("0.660412841474602882352627514524")
ORACLE_CUTOFFS = (10**4, 10**5, 10**6, 10**7)


@pytest.mark.parametrize("cutoff", ORACLE_CUTOFFS)
def test_estimates_lie_within_their_tail_radii_of_the_30_digit_constants(cutoff):
    b = analytic.compute_constants(cutoff)
    assert abs(Fraction(b.M) - M_30) <= b.tail_radius_M
    assert abs(Fraction(b.C) - C_30) <= b.tail_radius_C


def test_estimate_C_rises_to_the_30_digit_constant():
    cs = [Fraction(analytic.compute_constants(cutoff).C) for cutoff in ORACLE_CUTOFFS]
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert cs[-1] < C_30


# ---------------------------------------------------------------------------
# derived constants


def test_derived_constants_arithmetic():
    b = analytic._constants({"M": 0.25 - EULER_GAMMA, "C": -0.5}, 1)
    assert (b.M, b.C) == (0.25, 0.5)
    assert b.D_prime == pytest.approx(0.0, abs=1e-16)
    assert b.D == pytest.approx(math.log(2), rel=1e-15)


def test_compute_constants_bundles_consistently():
    b = analytic.compute_constants(1_000)
    m = analytic.mertens_report(1_000, 1_000)[1]            # M from a pass of its own
    c = -analytic.prime_sums({"C": 1_000})["C"]             # and C
    mt, ct = 1.0 / 1_000, 6.0 / 1_000
    assert b.M == m and b.C == c
    assert b.D_prime == pytest.approx(2 * m + c - 1, rel=1e-15)
    assert b.D == pytest.approx(b.D_prime + math.log(2), rel=1e-15)
    assert b.cutoff == 1_000
    assert (b.tail_radius_M, b.tail_radius_C) == (mt, ct)
    assert b.tail_radius == max(mt, ct)


# ---------------------------------------------------------------------------
# twin-factor product


def test_twin_product_tiny():
    assert twin_product(3) == pytest.approx(1 / 6, rel=1e-15)
    assert twin_product(10) == pytest.approx(1 / 14, rel=1e-15)


def test_twin_product_100_frozen_oracle():
    assert twin_product(100) == pytest.approx(
        0.019148520552562376, rel=1e-14
    )


def test_twin_product_matches_exact_fraction_sweep():
    rng = random.Random(23)
    for _ in range(30):
        x = rng.randrange(3, 500)
        exact = oracle.twin_product_exact(x)
        assert twin_product(x) == pytest.approx(
            exact.numerator / exact.denominator, rel=1e-13
        )


def test_twin_product_rejects_small_x():
    with pytest.raises(ValueError):
        twin_product(2)


# ---------------------------------------------------------------------------
# interval ratio product, both routes


def test_t_product_10_20_known_value():
    want = float(Fraction(247, 315))
    assert t_product(10, 20, ProductMethod.DIRECT) == pytest.approx(
        want, rel=1e-14
    )
    assert t_product(10, 20, ProductMethod.TELESCOPED) == pytest.approx(
        want, rel=1e-14
    )


def test_t_product_single_unit_ratio():
    # (2, 3] holds only 3, and 3/(5-2) = 1
    assert t_product(2, 3, ProductMethod.DIRECT) == pytest.approx(1.0)
    assert t_product(2, 3, ProductMethod.TELESCOPED) == pytest.approx(1.0)


def test_t_product_routes_agree_and_match_exact_oracle():
    rng = random.Random(29)
    for _ in range(40):
        x = rng.randrange(2, 3_000)
        y = x + rng.randrange(2, 500)
        try:
            d = t_product(x, y, ProductMethod.DIRECT)
        except Exception:
            continue  # empty interval; covered elsewhere
        t = t_product(x, y, ProductMethod.TELESCOPED)
        exact = oracle.t_product_exact(x, y)
        ref = exact.numerator / exact.denominator
        assert d == pytest.approx(ref, rel=1e-12)
        assert t == pytest.approx(ref, rel=1e-12)
        assert d == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("x,c", [(10**4, 1), (10**6, 1)])
def test_direct_log_t_within_its_error_budget(x, c):
    # the budget of the IntervalProduct docstring, 3u|log T| + ulp/2 (2.55
    # and 3.47 ulp here), against a 60-digit log T; both points also meet
    # the 2 ulp of ROADMAP item 10 (measured +0.34 and -0.37 ulp)
    y = verify.beta_for(x, c).y
    exact = oracle.log_t_exact(x, y)
    ulp = Decimal(math.ulp(float(exact)))
    got = analytic.log_t_product(sieve.interval_primes(x, y), ProductMethod.DIRECT)
    err = abs(Decimal(got) - exact) / ulp
    assert err <= 3 * Decimal(2) ** -53 * abs(exact) / ulp + Decimal("0.5")
    assert err <= 2


def test_log_t_product_is_log_of_t_product():
    ip = sieve.interval_primes(100, 200)
    for method in ProductMethod:
        lg = analytic.log_t_product(ip, method)
        assert math.exp(lg) == pytest.approx(
            t_product(100, 200, method), rel=1e-14
        )


# One gate (analytic._ratio_primes) refuses a set that holds no ratio, with
# one text, whichever entry point asks: the whole set, its product, or the
# streamed pass, whose one empty block is a RatioSet too.
RATIO_GATE = {
    "empty": ((113, 126), EmptySetError, "no primes in (113, 126]"),
    "empty_24_28": ((24, 28), EmptySetError, "no primes in (24, 28]"),
    "from_2": ((1, 10), ValueError, "ratio sets need interval primes above 2 (x >= 2)"),
}
RATIO_ENTRIES = {
    "build_ratio_set": lambda x, y: means.build_ratio_set(sieve.interval_primes(x, y)),
    "log_t_product": lambda x, y: analytic.log_t_product(sieve.interval_primes(x, y)),
    "reduce_interval": lambda x, y: means.reduce_interval(x, y),
}


def _gate_case(entry, case):
    (x, y), exc, msg = RATIO_GATE[case]
    return pytest.param(lambda: RATIO_ENTRIES[entry](x, y), exc, msg, id=f"{entry}_{case}")


@pytest.mark.parametrize(
    "call,exc,msg",
    [
        *(_gate_case(entry, case) for entry in RATIO_ENTRIES for case in RATIO_GATE),
        pytest.param(lambda: analytic.IntervalProduct(("direct",)), ValueError,
                     "unknown product method 'direct'", id="IntervalProduct_method"),
    ],
)
def test_refusals(call, exc, msg):
    with pytest.raises(exc, match=f"^{re.escape(msg)}$"):
        call()


# ---------------------------------------------------------------------------
# asymptotic checks


def test_mertens_check_formula():
    chk, m_hat = analytic.mertens_report(10_000, 10_000)
    logx = math.log(10_000)
    assert chk.observed == pytest.approx(mertens_sum(10_000), rel=1e-15)
    assert chk.predicted == pytest.approx(math.log(logx) + m_hat, rel=1e-15)
    assert chk.scaled_residual == pytest.approx(
        (chk.observed - chk.predicted) * logx**2, rel=1e-12
    )
    assert chk.scale_note


def test_lemma1_check_formula():
    chk, consts = analytic.lemma1_report(1_000, 10_000)
    assert consts == analytic.compute_constants(10_000)
    logx = math.log(1_000)
    assert chk.observed == pytest.approx(twin_product(1_000), rel=1e-15)
    assert chk.predicted == pytest.approx(
        math.exp(-consts.D) / logx**2, rel=1e-15
    )
    assert chk.scaled_residual == pytest.approx(
        chk.observed / chk.predicted - 1.0, rel=1e-12
    )


def test_lemma2_check_formula():
    chk, bs, _ = verify.lemma2_report(100, 1.0)
    assert bs == verify.beta_for(100, 1.0)
    assert chk.observed == pytest.approx(
        t_product(100, bs.y, ProductMethod.DIRECT), rel=1e-15
    )
    assert chk.predicted == pytest.approx(
        bs.beta**2 / math.exp(1.0 / math.log(100)), rel=1e-15
    )
    assert chk.scaled_residual == pytest.approx(
        chk.observed / chk.predicted - 1.0, rel=1e-12
    )


def test_analytic_imports_no_layer_above_it():
    # means and verify build on analytic; the interval reports live in verify
    tree = ast.parse(inspect.getsource(analytic))
    imported = {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert imported == {"sieve", "errors"}
