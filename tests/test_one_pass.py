"""One sieve pass per interval report and per prime-sum command, and scan
rows that survive a crashed worker.

The sieve-work tests wrap sieve.iter_prime_segments with a counter: every
sieve in the package (interval_primes, next_prime_after, twin_pairs_in,
prime_stream) goes through it.  A report over (x, y] may sieve y - x
integers once, plus the first window of the successor probe past y.  A
prime-sum command sieves (1, max(x, cutoff)] once.
"""

import math
import multiprocessing
import os
import random

import numpy as np
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


@pytest.mark.parametrize(
    "argv,top",
    [
        (["primes", "--limit", "30000"], 30_000),
        (["gaps", "--limit", "30000"], 30_000),
        (["mertens", "--x", "30000", "--cutoff", "1000"], 30_000),     # cutoff < x
        (["mertens", "--x", "1000", "--cutoff", "30000"], 30_000),     # cutoff > x
        (["constants", "--cutoff", "30000"], 30_000),
        (["lemma1", "--x", "30000", "--cutoff", "1000"], 30_000),
        (["lemma1", "--x", "1000", "--cutoff", "30000"], 30_000),
    ],
)
def test_prime_sum_commands_sieve_once(sieved, capsys, argv, top):
    assert cli.run(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert sieved == [(1, top)]


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


def test_short_windows_build_the_base_primes_once(monkeypatch):
    """The window, its successor probe and the brute-force scan of each
    twin_criterion call share one kept base table: 200 windows near 1e9
    build it once, where a build per sieve call would make 600."""
    monkeypatch.setattr(sieve, "_base", (0,) + (np.empty(0, dtype=np.int64),) * 3)
    builds = []
    real = sieve._dense_primes

    def counting(limit):
        builds.append(limit)
        return real(limit)

    monkeypatch.setattr(sieve, "_dense_primes", counting)
    rng = random.Random(8)
    for _ in range(200):
        x = rng.randrange(10**9 - 10**7, 10**9 - 600)
        rep = verify.twin_criterion(x, x + rng.randrange(300, 601))
        assert rep.decision == bool(rep.brute_force_twins)
    assert len(builds) <= 1


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
