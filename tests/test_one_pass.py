"""One sieve pass per interval report, twin criterion included, and per
prime-sum command, and scan rows that survive a crashed worker or a pool
broken at submit.

The sieve-work tests count the calls of sieve._marked_windows, the
generator of marked windows (the `sieved` fixture, conftest.py): every
reader of the sieve in the package (iter_prime_segments and through it
interval_windows and prime_stream, and the counting prime_summary) goes
through it.  A report over (x, y] sieves (x, y + w] in one call, w the
look-ahead that holds the successor prime of y; twin_criterion's
brute-force twin scan reads the blocks of that same pass.  A prime-sum
command sieves (1, max(x, cutoff)] once.
"""

import math
import multiprocessing
import os
import random

import numpy as np
import pytest

from twinmeans import cli, means, sieve, verify
from twinmeans.errors import CapacityError, EmptySetError

import _oracles as oracle


def probe_window(y: int) -> int:
    """The look-ahead past y that an interval pass sieves with (x, y]."""
    return max(64, int(math.log(y) ** 2) + 1)


def assert_one_pass(spans, x, y):
    assert spans == [(x, y + probe_window(y))]


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
        assert row.twin_pairs == verify.TwinPairs(sieve.twin_pairs_in(x, y))
        if x < 3_000:
            assert row.twin_pairs == oracle.twin_pairs(x, y)
        checked += 1
    assert checked > 100


def test_twin_criterion_sieves_once(sieved):
    """One pass over the window and its look-ahead gives both the exact
    decision and the brute-force scan."""
    x, y = 999_999_000, 999_999_600
    rep = verify.twin_criterion(x, y)
    assert rep.decision == bool(rep.brute_force_twins)
    assert_one_pass(sieved, x, y)


@pytest.mark.parametrize(
    "x,y,p_e",
    [(24, 28, 29), (436_273_009, 436_273_290, 436_273_291)],   # the second: a record gap of 282
)
def test_interval_without_primes_sieves_once(sieved, x, y, p_e):
    """p_e of an interval without primes comes from the same pass as the
    interval, not from a second probe past y."""
    ip = sieve.interval_primes(x, y)
    assert ip.primes.size == 0
    assert ip.p_e == p_e
    assert_one_pass(sieved, x, y)


@pytest.mark.parametrize(
    "p,width", [(23, 1), (999_983, 8), (1_294_268_491, 64)]   # gaps 6, 20, 288
)
def test_successor_past_a_look_ahead_without_primes(monkeypatch, sieved, p, width):
    """When (y, y + w] holds no prime, interval_primes and reduce_interval
    raise CapacityError after their one pass; nothing searches on.  Up to
    the cap the look-ahead always holds a prime (the maximal-gap tests of
    test_sieve.py), so only a narrower look-ahead, as here, reaches this."""
    x, y = p - 1, p + 1
    assert oracle.next_prime(y) > y + width
    monkeypatch.setattr(sieve, "_probe_width", lambda n: width)
    with pytest.raises(CapacityError, match=rf"no prime in the look-ahead \({y}, {y + width}\]"):
        sieve.interval_primes(x, y)
    assert sieved == [(x, y + width)]
    sieved.clear()
    with pytest.raises(CapacityError, match="no prime in the look-ahead"):
        means.reduce_interval(x, y)
    assert sieved == [(x, y + width)]


def test_twin_criterion_at_the_cap(sieved):
    """The cap applies to y, checked before any sieving; the look-ahead
    past y may pass the cap."""
    x, y = sieve.MAX_SIEVE_LIMIT - 600, sieve.MAX_SIEVE_LIMIT
    rep = verify.twin_criterion(x, y)
    twins = oracle.twin_pairs(x, y)
    assert rep.P == oracle.primes_between(x, y)[-1]
    assert rep.m_inf == max(oracle.ratio_elements(x, y))
    assert rep.brute_force_twins == twins
    assert rep.decision == bool(twins)
    sieved.clear()
    with pytest.raises(CapacityError, match=f"limit {y + 1} exceeds"):
        verify.twin_criterion(x, y + 1)
    assert sieved == []


def test_short_windows_build_the_base_primes_once(monkeypatch):
    """The twin_criterion calls share one kept base table: 200 windows
    near 1e9 build it once, where a build per sieve call would make 200."""
    monkeypatch.setattr(sieve, "_base", (0,) + (np.empty(0, dtype=np.int64),) * 2)
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


def test_scan_pool_broken_at_submit_fails_the_rows_it_refused(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    real_submit, calls = ProcessPoolExecutor.submit, []

    def breaks_after_first(pool, *args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise BrokenProcessPool("pool broke while rows were queued")
        return real_submit(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", breaks_after_first)
    xs = [100, 1_000, 5_000, 10_000]
    rows, failures = verify.theorem1_scan(xs, 1.0, jobs=2)
    assert len(calls) == len(xs)
    assert rows == [verify.theorem1_report(100, 1.0)]
    assert [x for x, _ in failures] == xs[1:]         # input order kept
    assert all(msg.startswith("BrokenProcessPool: ") for _, msg in failures), failures
    assert multiprocessing.active_children() == []
