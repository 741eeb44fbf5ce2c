"""The benchmark's checks catch wrong outputs.

Each test takes a real twinmeans output at a small size, shows that the
check passes it, then doctors it and shows that the check catches it.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import refsieve  # noqa: E402
import session  # noqa: E402
from twinmeans import cli, sieve  # noqa: E402

with open(os.path.join(HERE, "refs.json")) as _fh:
    REFS = json.load(_fh)
M, C = float(REFS["M"]), float(REFS["C"])


def run_cli(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run([*argv, "--format", "json"]) == 0
    return json.loads(buf.getvalue())


def report_ref(x, c):
    return dict(refsieve.interval_ref(x, refsieve.interval_end(x, c)), c=c)


def test_dropped_twin_pair_is_caught():
    out = run_cli("theorem1", "--x", "1e5", "--c", "1")
    ref = report_ref(10**5, 1.0)
    assert checks.check_theorem1(out, ref) == []
    del out["twin_pairs"][3]
    out["twin_count"] -= 1
    assert checks.check_theorem1(out, ref)


def test_pi_interval_off_by_one_is_caught():
    out = run_cli("theorem1", "--x", "1e5", "--c", "1")
    ref = report_ref(10**5, 1.0)
    out["pi_interval"] += 1
    assert any("pi_interval" in p for p in checks.check_theorem1(out, ref))


def test_interval_product_outside_criterion_6_is_caught():
    out = run_cli("lemma2", "--x", "1e6", "--c", "1")
    ref = report_ref(10**6, 1.0)
    assert checks.check_lemma2(out, ref) == []
    out["observed"] *= 1 + 2 * checks.K2_INTERVAL / math.log(10**6) ** 2
    assert any("criterion 6" in p for p in checks.check_lemma2(out, ref))


def test_M_outside_its_tail_radius_is_caught():
    cutoff = {"limit": 10**6}
    out = run_cli("constants", "--cutoff", "1e6")
    assert checks.check_constants(out, cutoff, M, C) == []
    out["M"] += 2 * out["tail_radius_M"]
    assert any("M estimate" in p for p in checks.check_constants(out, cutoff, M, C))

    out = run_cli("mertens", "--x", "1e6", "--cutoff", "1e6")
    ref = dict(cutoff, mertens_sum=sum(1.0 / p for p in refsieve.primes_upto(10**6).tolist()))
    assert checks.check_mertens(out, ref, M) == []
    out["m_estimate"] -= 2e-6
    assert checks.check_mertens(out, ref, M)


def test_non_monotone_power_mean_grid_is_caught():
    x, c = 10**5, 2.0
    out = session.interval_means(x, c, [-800.0, -10.0, -1.0, 1.0, 10.0, 800.0])
    ref = refsieve.interval_ref(x, refsieve.interval_end(x, c))
    assert checks.check_interval_means(out, ref) == []
    grid = out["grid"]
    grid[1][1], grid[2][1] = grid[2][1], grid[1][1]
    assert any("nondecreasing" in p for p in checks.check_interval_means(out, ref))


def test_wrong_twin_decision_is_caught():
    for x, y in ((10**8, 10**8 + 300), (999_999_000, 999_999_400)):
        out = session.window_decision(x, y)
        ref = refsieve.window_ref(x, y)
        assert checks.check_window(out, ref) == []
        out["decision"] = not out["decision"]
        assert checks.check_window(out, ref)


def test_cached_stdout_one_byte_off_is_caught():
    out = b'{\n  "limit": 100,\n  "count": 25\n}\n'
    assert checks.check_same_stdout("primes", out, out) == []
    assert checks.check_same_stdout("primes", out, out.replace(b"25", b"24"))
    assert checks.check_same_stdout("primes", out, out + b"\n")


def test_changed_or_rebuilt_cache_file_is_caught(tmp_path):
    path = str(tmp_path / "primes.tpc1")
    sieve.cached_primes_up_to(1000, path)
    before = checks.fingerprint(path)
    sieve.cached_primes_up_to(500, path)          # a prefix is served: no change
    assert checks.check_cache_unchanged(before, checks.fingerprint(path)) == []
    sieve.cached_primes_up_to(2000, path)         # too small: silently rebuilt
    assert checks.check_cache_unchanged(before, checks.fingerprint(path))

    before = checks.fingerprint(path)
    with open(path, "r+b") as fh:                 # one byte of the payload flipped
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    assert checks.check_cache_unchanged(before, checks.fingerprint(path))


def test_reference_sieve_agrees_with_the_published_counts():
    assert refsieve.primes_upto(10**6).size == 78_498
    assert refsieve.primes_between(10**6, 2 * 10**6).size == 148_933 - 78_498
    assert [n for n in range(1, 60) if refsieve.is_prime(n)] == refsieve.primes_upto(59).tolist()
