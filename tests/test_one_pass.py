"""One sieve pass per interval report, and scan rows that survive a crashed
worker.

The sieve-work tests wrap sieve.iter_prime_segments with a counter: every
sieve in the package (interval_primes, next_prime_after, twin_pairs_in,
prime_stream) goes through it.  A report over (x, y] may sieve y - x
integers once, plus the first window of the successor probe past y.
"""

import math
import multiprocessing
import os
import random

import pytest

from twinmeans import cli, sieve, verify
from twinmeans.errors import EmptySetError

import _oracles as oracle


@pytest.fixture
def sieved(monkeypatch):
    """(lo, hi) of every iter_prime_segments call made while the test runs."""
    spans = []
    real = sieve.iter_prime_segments

    def counting(lo, hi, **kwargs):
        spans.append((int(lo), int(hi)))
        return real(lo, hi, **kwargs)

    monkeypatch.setattr(sieve, "iter_prime_segments", counting)
    return spans


def probe_window(y: int) -> int:
    """The first window next_prime_after(y) sieves."""
    return max(64, int(math.log(y) ** 2) + 1)


def assert_one_pass(spans, x, y):
    assert spans[0] == (x, y)
    assert all(lo == y for lo, _ in spans[1:])          # only the successor probe
    assert sum(hi - lo for lo, hi in spans) <= (y - x) + probe_window(y)


@pytest.mark.parametrize("x", [10**5, 10**6, 10**7])
def test_theorem1_report_sieves_once(sieved, x):
    row = verify.theorem1_report(x, 1.0)
    assert_one_pass(sieved, x, row.interval.y)


@pytest.mark.parametrize("x", ["1e5", "1e6", "1e7"])
def test_cli_lemma2_sieves_once(sieved, capsys, x):
    assert cli.run(["lemma2", "--x", x, "--c", "1", "--format", "json"]) == 0
    capsys.readouterr()
    bs = verify.beta_for(int(float(x)), 1.0)
    assert_one_pass(sieved, bs.x, bs.y)


def test_theorem1_twin_pairs_match_twin_scan_sweep():
    rng = random.Random(47)
    checked = 0
    for _ in range(120):
        x = rng.randrange(10, 30_000)
        c = rng.uniform(*verify.C_RANGE)
        try:
            row = verify.theorem1_report(x, c)
        except (EmptySetError, ValueError):   # empty or degenerate interval
            continue
        y = row.interval.y
        assert row.twin_pairs == sieve.twin_pairs_in(x, y)
        if x < 3_000:
            assert row.twin_pairs == oracle.twin_pairs(x, y)
        checked += 1
    assert checked > 100


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash is planted in the parent and reaches workers only through fork",
)
def test_scan_worker_crash_becomes_row_failures(monkeypatch):
    real = verify.theorem1_report

    def crash_at_1000(x, c):
        if x == 1_000:
            os._exit(3)   # the worker dies as if killed
        return real(x, c)

    monkeypatch.setattr(verify, "theorem1_report", crash_at_1000)
    xs = [100, 1_000, 5_000, 10_000]
    rows, failures = verify.theorem1_scan(xs, 1.0, jobs=2)
    failed = dict(failures)
    assert "BrokenProcessPool" in failed[1_000]
    done = [r.interval.x for r in rows]
    assert sorted(done + list(failed)) == xs
    assert done == sorted(done)                       # input order kept
    assert all(r == real(r.interval.x, 1.0) for r in rows)
