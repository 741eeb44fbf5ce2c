"""Seeded property-check harness: determinism, counts, speed, and that a
wrong mean makes it fail."""

import time

import pytest

from twinmeans import cli, selftest
from twinmeans.means import MeanValue


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


def test_refuses_zero_sets():
    with pytest.raises(ValueError, match="^need at least one set$"):
        selftest.run_selftest(sets=0)


def _wrong_means(monkeypatch, grid, limit=None):
    """Swap selftest's power_mean (value grid(alpha)) and, when limit is
    given, its mean_limit (value limit) for wrong ones."""
    monkeypatch.setattr(selftest, "power_mean", lambda vals, a: MeanValue(a, grid(a), len(vals)))
    if limit is not None:
        monkeypatch.setattr(selftest, "mean_limit", lambda vals, which: MeanValue(0.0, limit, len(vals)))


@pytest.mark.parametrize(
    "grid,limit,kinds",
    [
        (lambda a: -a, 0.5, [
            "mean at alpha=-8.0 below alpha=-16.0",
            "grid means escape the [min, max] bracket",
            "constant set spread",
            "alpha=1e-06 mean far from geometric mean",
            "alpha=-1e-06 mean far from geometric mean",
            "alpha=200.0 mean not within 2% of max",
            "PLUS_INF limit is not the exact max",
            "MINUS_INF limit is not the exact min",
        ]),
        (lambda a: 1.0, None, ["distinct values but flat grid"]),
    ],
    ids=["falling_grid_wrong_limits", "flat_grid"],
)
def test_wrong_means_fail_the_run(monkeypatch, grid, limit, kinds):
    _wrong_means(monkeypatch, grid, limit)
    rep = selftest.run_selftest(seed=0, sets=10)    # set 9 is a constant set
    assert not rep.passed
    for kind in kinds:
        assert any(kind in f for f in rep.failures), kind


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cli_reports_a_failed_selftest(monkeypatch, capsys, fmt):
    _wrong_means(monkeypatch, lambda a: -a, 0.5)
    failures = selftest.run_selftest(seed=0, sets=5).failures
    assert len(failures) > 20
    argv = ["selftest", "--sets", "5"] + ([] if fmt == "table" else ["--format", fmt])
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    if fmt == "table":      # the first 20, one line each
        assert err.splitlines() == [f"failure: {msg}" for msg in failures[:20]]
    else:
        assert err == ""
