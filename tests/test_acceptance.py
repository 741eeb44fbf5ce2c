"""Acceptance suite: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion; each test also prints a short evidence line (visible with -s or
in the failure report).

The K envelope constants below were calibrated once on 2026-08-19 with
scripts/calibrate.py and frozen with ~1.5-2x headroom over the measured
maxima; they are not tuned to the current run.

test_criterion_09b checks that the exact-count geometric mean M0 = T^(1/pi)
approaches its predicted main term at the paper's O(1/log x) rate.  The
interval (x, x^beta] holds pi ~ c*x/log^2 x primes (120 at x=1e4, 779 at
1e5), not ~ x^beta/log x, so the x^beta-normalised `residual` column grows
like log x (6.92, 9.10, 11.31, 13.58 at x = 1e4..1e7; see the Theorem1Row
docstring).  Criterion 6 and 2*log beta = 2c/log^2 x give
1 - M0 = (c/log x)/pi * (1 + O(1/log x)), so 9b normalises by the exact count:
r9b = pi*log x*(1 - M0)/c - 1, measured -0.2143, -0.1697, -0.1442, -0.1240.
"""

import math
import random
import time

import pytest

from twinmeans import analytic, means, selftest, verify
from twinmeans.analytic import ProductMethod

import _oracles as oracle

# frozen envelopes (calibrated 2026-08-19, scripts/calibrate.py)
K_MERTENS = 0.15        # measured max E*log^2 x = 0.1048 at x=1e4
K1_TWIN_PRODUCT = 0.025  # measured max r*log^2 x = 0.0149 at x=1e6
K2_INTERVAL = 0.005     # measured max r*log^2 x = 0.0024 at x=1e6
K9B = 3.0               # measured max |r9b|*log x = 1.998 at x=1e7 (2026-10-18)

CONSTANTS_CUTOFF = 10**7


@pytest.fixture(scope="module")
def consts():
    t0 = time.perf_counter()
    bundle = analytic.compute_constants(CONSTANTS_CUTOFF)
    elapsed = time.perf_counter() - t0
    return bundle, elapsed


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    rows, failures = verify.theorem1_scan([10**4, 10**5, 10**6, 10**7], 1.0)
    elapsed = time.perf_counter() - t0
    assert failures == []
    return rows, elapsed


def test_criterion_01_constant_C(consts):
    bundle, elapsed = consts
    err = abs(bundle.C - 0.660413)
    print(
        f"criterion 1: C={bundle.C:.8f} err={err:.2e} "
        f"tail={bundle.tail_radius:.1e} elapsed={elapsed:.2f}s"
    )
    assert err < 5e-6
    assert bundle.tail_radius < 1e-6
    assert elapsed < 10.0


def test_criterion_02_derived_constants(consts):
    bundle, _ = consts
    err_dp = abs(bundle.D_prime - 0.183407)
    err_d = abs(bundle.D - 0.876554)
    print(
        f"criterion 2: D'={bundle.D_prime:.8f} (err {err_dp:.2e})  "
        f"D={bundle.D:.8f} (err {err_d:.2e})"
    )
    assert err_dp < 5e-6
    assert err_d < 5e-6


def test_criterion_03_mertens_sum_envelope(consts):
    bundle, _ = consts
    errs = []
    elapsed_1e8 = None
    for x in (10**4, 10**6, 10**8):
        t0 = time.perf_counter()
        s = analytic.mertens_report(x, 2)[0].observed
        dt = time.perf_counter() - t0
        if x == 10**8:
            elapsed_1e8 = dt
        e = abs(s - math.log(math.log(x)) - bundle.M)
        errs.append(e)
        print(f"criterion 3: x={x:.0e} E={e:.3e} K/log^2x={K_MERTENS / math.log(x)**2:.3e}")
        assert e <= K_MERTENS / math.log(x) ** 2
    assert errs[0] > errs[1] > errs[2], "error must decrease across the points"
    print(f"criterion 3: 1e8 pass took {elapsed_1e8:.1f}s")
    assert elapsed_1e8 <= 60.0


def test_criterion_04_twin_product_envelope(consts):
    bundle, _ = consts
    resids = []
    for x in (10**6, 10**7, 10**8):
        tp = analytic.lemma1_report(x, 3)[0].observed
        r = abs(math.exp(bundle.D) * math.log(x) ** 2 * tp - 1.0)
        resids.append(r)
        print(
            f"criterion 4: x={x:.0e} r={r:.3e} "
            f"K1/log^2x={K1_TWIN_PRODUCT / math.log(x)**2:.3e}"
        )
        assert r <= K1_TWIN_PRODUCT / math.log(x) ** 2
    assert resids[0] > resids[1] > resids[2], "residual must be strictly decreasing"


def test_criterion_05_product_route_identity():
    rel = abs(verify.lemma2_report(10**6, 1.0)[2])   # DIRECT / TELESCOPED - 1
    print(f"criterion 5: route disagreement at 1e6 = {rel:.2e}")
    assert rel <= 1e-12

    rng = random.Random(20260819)
    for _ in range(100):
        x = rng.randrange(2, 100_000)
        k = rng.randrange(1, 21)   # interval with at most 20 primes
        p = x
        for _ in range(k):
            p = oracle.next_prime(p)
        y = p
        exact = oracle.t_product_exact(x, y)
        ref = exact.numerator / exact.denominator
        iv = means.reduce_interval(x, y, tuple(ProductMethod))
        for method in ProductMethod:
            got = math.exp(iv.log_t(method))
            assert got == pytest.approx(ref, rel=1e-12)
    print("criterion 5: 100/100 random intervals match the rational oracle")


def test_criterion_06_interval_product_envelope():
    for x in (10**6, 10**7):
        chk, bs, _ = verify.lemma2_report(x, 1.0)
        tp = chk.observed
        r = abs(tp * math.exp((bs.beta - 1.0) * math.log(x)) / bs.beta**2 - 1.0)
        print(
            f"criterion 6: x={x:.0e} r={r:.3e} "
            f"K2/log^2x={K2_INTERVAL / math.log(x)**2:.3e}"
        )
        assert r <= K2_INTERVAL / math.log(x) ** 2


def test_criterion_07_power_mean_property_suite():
    t0 = time.perf_counter()
    rep = selftest.run_selftest(seed=0, sets=100)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7: {rep.monotonicity_checks} monotonicity checks, "
        f"{rep.limit_checks} limit checks, {len(rep.failures)} failures, "
        f"{elapsed:.2f}s"
    )
    assert rep.passed, rep.failures[:5]
    assert rep.sets == 100
    assert elapsed < 5.0


def test_criterion_08_exact_criterion_equivalence():
    rng = random.Random(1_000_003)
    matches = 0
    for _ in range(1000):
        width = rng.choice((rng.randrange(2, 200), rng.randrange(200, 5_000)))
        x = rng.randrange(2, 10**6 - width)
        y = x + width
        try:
            rep = verify.twin_criterion(x, y)
        except Exception:
            # empty interval: nothing to decide; draw again
            width = rng.randrange(30, 5_000)
            x = rng.randrange(2, 10**6 - width)
            rep = verify.twin_criterion(x, x + width)
        assert rep.decision == bool(rep.brute_force_twins), (rep.x, rep.y)
        matches += 1
    print(f"criterion 8: {matches}/1000 decisions match the brute-force scan")
    assert matches == 1000


def test_criterion_09a_sup_mean_is_one(sweep):
    rows, elapsed = sweep
    for row in rows:
        print(
            f"criterion 9a: x={row.interval.x:.0e} M_inf={float(row.m_inf)} "
            f"twins={len(row.twin_pairs)}"
        )
        assert row.m_inf == 1, f"no unit ratio in ({row.interval.x}, {row.interval.y}]"
        assert len(row.twin_pairs) > 0
    assert elapsed <= 300.0


def test_criterion_09b_residual_trend(sweep):
    rows, _ = sweep
    first = rows[0].interval
    assert rows[0].pi_interval == len(oracle.primes_between(first.x, first.y))
    resids = []
    for row in rows:
        bs = row.interval
        # 1 - M0 recovered from the row's expm1-accurate residual column
        one_minus_m0 = (row.residual + 1.0) * bs.c / bs.x_beta
        resids.append(row.pi_interval * math.log(bs.x) * one_minus_m0 / bs.c - 1.0)
    print(f"criterion 9b: residuals = {[f'{r:.4f}' for r in resids]}")
    for row, r in zip(rows, resids):
        assert abs(r) <= K9B / math.log(row.interval.x), (row.interval.x, r)
    for a, b in zip(resids, resids[1:]):
        assert abs(b) < abs(a), "exact-count residual must decrease along x"


def test_criterion_10_trend_suite_in_lieu_of_asymptotics():
    """No finite computation can decide the asymptotic statements themselves;
    the seeded property suite (criterion 7) and the exact equivalence sweep
    (criterion 8) stand in for them.  This test records that substitution and
    re-runs a small slice of each as a liveness check."""
    rep = selftest.run_selftest(seed=1, sets=10)
    assert rep.passed
    spot = verify.twin_criterion(10**6 - 1_000, 10**6)
    assert spot.decision == bool(spot.brute_force_twins)
    print(
        "criterion 10: asymptotic statements are represented by the "
        "property/trend suite (criteria 7-9), not verified directly"
    )


# ---------------------------------------------------------------------------
# companion (not an acceptance criterion): the row's residual_approx_pi,
# which puts the smooth count x^beta/(beta*log x) in place of the exact pi
# under the paper's x^beta normalisation, also decreases in magnitude.


def test_companion_smoothed_count_residual_decreases(sweep):
    rows, _ = sweep
    resids = [abs(row.residual_approx_pi) for row in rows]
    print(f"companion: smoothed-count residuals = {[f'{r:.4f}' for r in resids]}")
    for a, b in zip(resids, resids[1:]):
        assert b < a
