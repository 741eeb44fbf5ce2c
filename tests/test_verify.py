"""Interval exponent, full interval reports, exact criterion, and the scan.

Frozen reference values were computed once with 40-digit mpmath arithmetic
from the exact ratio product of the interval (the product itself is the
Fraction 1268651/1456875 for x=100, c=1; see _oracles.t_product_exact).
"""

import concurrent.futures
import decimal
import math
import multiprocessing
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from twinmeans import means, sieve, verify
from twinmeans.errors import EmptySetError
from twinmeans.verify import C_RANGE, beta_for, theorem1_report, theorem1_scan, twin_criterion

import _oracles as oracle


# ---------------------------------------------------------------------------
# beta_for


def test_beta_for_100():
    bs = beta_for(100, 1.0)
    assert bs.beta == pytest.approx(1.0471529242529035, rel=1e-15)
    assert bs.x_beta == pytest.approx(124.25270395332172, rel=1e-15)
    assert bs.y == 124


def test_beta_for_million():
    bs = beta_for(10**6, 1.0)
    assert bs.beta == pytest.approx(1.0052392138058782, rel=1e-15)
    assert bs.x_beta == pytest.approx(1075066.3855259353, rel=1e-15)
    assert bs.y == 1_075_066


def test_beta_for_rejections():
    with pytest.raises(ValueError):
        beta_for(9, 1.0)
    with pytest.raises(ValueError):
        beta_for(100, C_RANGE[0] - 0.01)
    with pytest.raises(ValueError):
        beta_for(100, C_RANGE[1] + 0.01)
    with pytest.raises(ValueError):
        beta_for(10, 0.1)  # floor(x^beta) == x: nothing to look at


# (x, c, floor(x^beta)): x*exp(c/log x) in float64 rounds up onto
# floor + 1, which is prime for x = 9001444428 (x^beta =
# 9779415676.99999928...) and composite for the others; settled in 60-
# and 120-digit decimal arithmetic.
FLOAT_FLOOR_OVERSHOOTS = [
    (9_001_444_428, 1.9, 9_779_415_676),
    (74_429_522, 0.25, 75_463_227),
    (68_412_280, 1.0, 72_311_374),
    (36_873_889, 1.5, 40_189_135),
    (93_269_179, 1.5, 101_213_193),
    (94_213_188, 1.75, 103_634_523),
    (97_138_042, 1.75, 106_834_935),
    (24_632_798, 3.5, 30_256_897),
    (68_997_091, 3.5, 83_761_604),
]


@pytest.mark.parametrize("x,c,y", FLOAT_FLOOR_OVERSHOOTS)
def test_beta_for_endpoint_is_the_exact_floor(x, c, y):
    bs = beta_for(x, c)
    assert bs.y == y
    assert math.floor(bs.x_beta) == y + 1    # the float x_beta is kept as reported


def floor_brackets(x: int, c: float, y: int) -> tuple[bool, bool]:
    """(y <= x^beta, x^beta < y + 1), decided by logarithms at 80 digits:
    ln(y/x)*ln x <= c < ln((y+1)/x)*ln x, with c's exact binary value."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        dx, dc = decimal.Decimal(x), decimal.Decimal(c)
        lnx = dx.ln()
        return (decimal.Decimal(y) / dx).ln() * lnx <= dc, dc < (decimal.Decimal(y + 1) / dx).ln() * lnx


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.integers(verify.X_MIN, 10**10), c=st.floats(*C_RANGE))
@example(x=FLOAT_FLOOR_OVERSHOOTS[0][0], c=FLOAT_FLOOR_OVERSHOOTS[0][1])
@example(x=10, c=0.1)
def test_beta_for_endpoint_property(x, c):
    try:
        y = beta_for(x, c).y
    except ValueError:    # degenerate: the floor is x itself
        assert floor_brackets(x, c, x) == (True, True)
        return
    assert y > x and floor_brackets(x, c, y) == (True, True)


def test_report_at_a_float_overshoot_against_trial_division():
    # x^beta = 75463227.99999...; 75463228, where the float floor ends the
    # interval, is composite, so the counts agree and only y moves
    x, c, y = FLOAT_FLOOR_OVERSHOOTS[1]
    row = theorem1_report(x, c)
    assert row.interval.y == y and not oracle.is_prime(y + 1)
    P = next(p for p in range(y, x, -1) if oracle.is_prime(p))
    assert row.criterion_threshold == Fraction(P, P + 2)
    tail = [p for p, _ in row.twin_pairs if p > y - 20_000]
    assert tail and tail == [p for p, _ in oracle.twin_pairs(y - 20_000, y)]
    assert row.pi_interval == sieve.prime_count(y) - sieve.prime_count(x)


# ---------------------------------------------------------------------------
# theorem1_report


def test_theorem1_row_at_100():
    row = theorem1_report(100, 1.0)
    assert row.interval.y == 124
    assert row.pi_interval == 5
    assert row.m_inf == 1                       # 101 -> 103 gives 101/101
    assert float(row.m_inf) == 1.0
    assert row.criterion_threshold == Fraction(113, 115)
    assert row.twin_pairs == [(101, 103), (107, 109)]
    # frozen oracle values (exact product 1268651/1456875)
    assert row.m0 == pytest.approx(0.9727113312297420, rel=1e-14)
    assert row.lower_bound == pytest.approx(0.9919518854062470, rel=1e-14)
    assert row.residual == pytest.approx(2.3906908819911281, rel=1e-12)
    assert row.logz_crosscheck == pytest.approx(-0.00266846400233, rel=1e-9)


def test_theorem1_row_internal_consistency():
    row = theorem1_report(1_000, 1.0)
    bs = row.interval
    # residual must be the advertised function of m0
    assert row.residual == pytest.approx(
        bs.x_beta * (1.0 - row.m0) / bs.c - 1.0, rel=1e-9
    )
    assert row.pi_approx == pytest.approx(
        bs.x_beta / (bs.beta * math.log(bs.x)), rel=1e-15
    )
    assert row.lower_bound == pytest.approx(1.0 - bs.c / bs.x_beta, rel=1e-15)
    # the sup of a ratio set never exceeds 1 and m0 never exceeds the sup
    assert row.m0 <= float(row.m_inf) <= 1.0
    assert len(row.twin_pairs) <= row.pi_interval


def test_theorem1_counts_match_oracle():
    row = theorem1_report(200, 2.0)
    assert row.pi_interval == len(oracle.primes_between(200, row.interval.y))
    assert row.twin_pairs == oracle.twin_pairs(200, row.interval.y)


def test_theorem1_empty_interval_raises():
    # (113, 115] holds no prime at all
    with pytest.raises(EmptySetError):
        theorem1_report(113, 0.1)


# ---------------------------------------------------------------------------
# twin_criterion


def test_criterion_10_20_twin_exists():
    rep = twin_criterion(10, 20)
    assert rep.P == 19
    assert rep.threshold == Fraction(19, 21)
    assert rep.m_inf == 1
    assert rep.decision is True
    assert rep.brute_force_twins == [(11, 13), (17, 19)]


def test_criterion_89_97_equality_is_no():
    # single ratio 97/99 equals the threshold exactly; strict > must say no
    rep = twin_criterion(89, 97)
    assert rep.m_inf == rep.threshold == Fraction(97, 99)
    assert rep.decision is False
    assert rep.brute_force_twins == []


def test_criterion_2_3():
    rep = twin_criterion(2, 3)
    assert rep.P == 3
    assert rep.m_inf == 1
    assert rep.decision is True
    assert rep.brute_force_twins == [(3, 5)]


def test_criterion_empty_interval():
    with pytest.raises(EmptySetError):
        twin_criterion(24, 28)


def test_criterion_twin_scan_reads_no_excess(monkeypatch):
    """The exact decision reads the excesses k = p_{n+1} - 2 - p_n and the
    brute-force scan does not: excesses that hide the one twin of (10, 16]
    flip the decision but leave the scan's (11, 13)."""
    real = means._excesses

    def hiding(primes, p_e, out):
        k = real(primes, p_e, out)
        k[k == 0] = 2       # as if the next prime were p + 4
        return k

    monkeypatch.setattr(means, "_excesses", hiding)
    rep = twin_criterion(10, 16)
    assert rep.m_inf == rep.threshold == Fraction(13, 15)
    assert rep.decision is False
    assert rep.brute_force_twins == [(11, 13)]


def test_criterion_decision_equals_brute_force_sweep():
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        x = rng.randrange(2, 5_000)
        y = x + rng.randrange(2, 600)
        try:
            rep = twin_criterion(x, y)
        except EmptySetError:
            assert oracle.primes_between(x, y) == []
            continue
        assert rep.decision == bool(rep.brute_force_twins)
        assert rep.brute_force_twins == oracle.twin_pairs(x, y)
        checked += 1
    assert checked > 250


# ---------------------------------------------------------------------------
# theorem1_scan


def test_scan_matches_individual_reports():
    rows, failures = theorem1_scan([100, 1_000], 1.0)
    assert failures == []
    assert rows == [theorem1_report(100, 1.0), theorem1_report(1_000, 1.0)]


def test_scan_parallel_equals_serial():
    xs = [100, 500, 1_000, 5_000]
    serial = theorem1_scan(xs, 1.0, jobs=1)
    parallel = theorem1_scan(xs, 1.0, jobs=2)
    assert parallel == serial
    assert len(serial[0]) == len(xs) and serial[1] == []


@pytest.mark.parametrize(
    "xs,jobs,workers",
    [([100], 5_000, 1), ([100, 500, 1_000], 8, 3), ([100, 500, 1_000], 2, 2)],
)
def test_scan_starts_no_more_workers_than_rows(monkeypatch, xs, jobs, workers):
    # a fork pool starts every worker at its first submit; this stand-in
    # records how many were asked for and runs the rows here, starting none
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rows, failures = theorem1_scan(xs, 1.0, jobs=jobs)
    assert asked == [workers]
    assert failures == [] and rows == [theorem1_report(x, 1.0) for x in xs]
    assert theorem1_scan([], 1.0, jobs=jobs) == ([], []) and asked == [workers]
    assert multiprocessing.active_children() == []


def test_scan_collects_failures_and_keeps_going():
    # x=10 with c=0.1 degenerates; x=113 gives an empty interval
    rows, failures = theorem1_scan([100, 10, 113], 0.1)
    assert [r.interval.x for r in rows] == [100]
    assert sorted(x for x, _ in failures) == [10, 113]
    for _, msg in failures:
        assert ":" in msg  # "ExceptionName: detail"


def test_cli_import_leaves_the_process_pool_out():
    # only theorem1_scan(jobs > 1) needs concurrent.futures (and with it
    # multiprocessing); a plain command must not pay for importing it
    code = "import sys, twinmeans.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
