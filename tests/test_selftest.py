"""Seeded property-check harness: determinism, counts, speed."""

import time

from twinmeans import selftest


def test_default_run_passes():
    rep = selftest.run_selftest(seed=0, sets=100)
    assert rep.passed
    assert rep.failures == []
    assert rep.seed == 0 and rep.sets == 100
    assert rep.monotonicity_checks > 0
    assert rep.limit_checks > 0


def test_run_is_deterministic():
    a = selftest.run_selftest(seed=0, sets=30)
    b = selftest.run_selftest(seed=0, sets=30)
    assert (a.monotonicity_checks, a.limit_checks, a.failures) == (
        b.monotonicity_checks,
        b.limit_checks,
        b.failures,
    )


def test_check_counts_scale_with_sets():
    small = selftest.run_selftest(seed=1, sets=10)
    big = selftest.run_selftest(seed=1, sets=20)
    assert big.monotonicity_checks == 2 * small.monotonicity_checks
    assert big.limit_checks == 2 * small.limit_checks


def test_other_seeds_pass_too():
    for seed in (1, 2, 42):
        assert selftest.run_selftest(seed=seed, sets=25).passed


def test_runs_fast():
    t0 = time.perf_counter()
    selftest.run_selftest(seed=0, sets=100)
    wall = time.perf_counter() - t0
    assert wall < 5.0
