"""End-to-end command tests, run in-process through cli.run().

The json/csv outputs carry 17 significant digits, which round-trips any
double exactly; several tests lean on that to read values back from parsed
output and compare them against the library results.
"""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from twinmeans import analytic, cli, selftest, sieve, verify

import _oracles as oracle


def run_cmd(capsys, *argv):
    rc = cli.run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# formats


def test_primes_json(capsys):
    rc, out, err = run_cmd(capsys, "primes", "--limit", "100", "--format", "json")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["count"] == 25
    assert doc["largest"] == 97
    assert doc["head"][:4] == [2, 3, 5, 7]
    assert doc["tail"][-1] == 97


def test_primes_tail_spans_sieve_windows(capsys):
    # the last sieve window (2097155, 2097200] holds fewer than ten primes
    limit = 2_097_200
    rc, out, _ = run_cmd(capsys, "primes", "--limit", str(limit), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    primes = oracle.sieved_upto(limit)
    assert doc["count"] == primes.size
    assert doc["tail"] == primes[-10:].tolist() and doc["largest"] == int(primes[-1])


def test_primes_accepts_scientific_notation(capsys):
    rc, out, _ = run_cmd(capsys, "primes", "--limit", "1e3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["count"] == 168


def test_primes_csv(capsys):
    rc, out, _ = run_cmd(capsys, "primes", "--limit", "100", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["limit", "count", "largest"]
    assert rows[1] == ["100", "25", "97"]


def test_gaps_table(capsys):
    rc, out, _ = run_cmd(capsys, "gaps", "--limit", "100")
    assert rc == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["gap"] == "8"
    assert lines["lower_prime"] == "89"
    assert lines["upper_prime"] == "97"


def test_table_uses_six_significant_digits(capsys):
    rc, out, _ = run_cmd(capsys, "mertens", "--x", "10000", "--cutoff", "10000")
    assert rc == 0
    assert "2.48306" in out          # 2.4830599... to 6 digits
    assert "2.4830599" not in out


def test_json_preserves_doubles_exactly(capsys):
    rc, out, _ = run_cmd(capsys, "criterion", "--x", "89", "--y", "97", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["threshold"] == 97 / 99
    assert doc["M_inf"] == 97 / 99
    assert doc["threshold_exact"] == "97/99"
    assert doc["decision"] is False


def test_json_renders_bools_and_refuses_what_it_cannot_carry():
    text = "".join(cli._json_pieces({"ok": [True, False, 1, 0], "none": None}))
    assert text == '{\n  "ok": [true, false, 1, 0],\n  "none": null\n}'
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^non-finite value in report$"):
            "".join(cli._json_pieces({"v": [v]}))
    with pytest.raises(TypeError):
        "".join(cli._json_pieces({"v": np.int64(3)}))


# ---------------------------------------------------------------------------
# json output is the library's report, and reads back without loss


def _fractions(report):
    """(payload key, value) of each Fraction field, nested dataclasses included."""
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        if dataclasses.is_dataclass(v):
            yield from _fractions(v)
        elif isinstance(v, Fraction):
            yield cli._KEYS.get(f.name, f.name), v


def _check_json_roundtrip(capsys, argv, cls, library):
    """stdout is the rendered payload of the library's `cls` report, byte for
    byte, and every value reads back from it as the library has it: each
    scalar equals the payload's, each `_exact` string parses to the
    library's Fraction, and the twin pairs equal its TwinPairs."""
    rc, out, _ = run_cmd(capsys, *argv.split(), "--format", "json")
    assert rc == 0
    report = library()
    assert type(report) is cls
    doc = json.loads(out)
    extra = {k: v for k, v in doc.items() if k not in cli.to_payload(report)}
    payload = cli.to_payload(report, **extra)
    assert "".join(cli._json_pieces(payload)) + "\n" == out
    for key, v in payload.items():
        if isinstance(v, verify.TwinPairs):
            assert v == [tuple(pair) for pair in doc[key]]
        else:
            assert doc[key] == v, key
    for key, v in _fractions(report):
        assert Fraction(doc[key + "_exact"]) == v, key


def test_theorem1_json_roundtrip(capsys):
    _check_json_roundtrip(
        capsys, "theorem1 --x 100", verify.Theorem1Row,
        lambda: verify.theorem1_report(100, 1.0),
    )


def test_criterion_json_roundtrip(capsys):
    _check_json_roundtrip(
        capsys, "criterion --x 10 --y 20", verify.CriterionReport,
        lambda: verify.twin_criterion(10, 20),
    )


def test_constants_json_roundtrip(capsys):
    _check_json_roundtrip(
        capsys, "constants --cutoff 1000", analytic.ConstantsBundle,
        lambda: analytic.compute_constants(1_000),
    )


def test_gaps_json_roundtrip(capsys):
    _check_json_roundtrip(
        capsys, "gaps --limit 1000", sieve.GapRecord,
        lambda: sieve.max_gap_up_to(1_000),
    )


def test_mertens_json_roundtrip(capsys):
    _check_json_roundtrip(
        capsys, "mertens --x 10000 --cutoff 10000", analytic.AsymptoticCheck,
        lambda: analytic.mertens_report(10_000, 10_000)[0],
    )


def test_selftest_json_roundtrip(capsys):
    _check_json_roundtrip(
        capsys, "selftest --seed 0 --sets 5", selftest.SelftestReport,
        lambda: selftest.run_selftest(0, 5),
    )


# ---------------------------------------------------------------------------
# scan


def test_scan_csv_column_contract(capsys):
    rc, out, _ = run_cmd(
        capsys, "scan", "--x-values", "100,1000", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "x", "c", "beta", "x_beta", "pi_interval", "M0", "M_inf",
        "lower_bound", "threshold", "residual", "twin_count",
    ]
    assert len(rows) == 3
    assert rows[1][0] == "100" and rows[2][0] == "1000"


def test_scan_csv_and_json_carry_identical_numbers(capsys):
    rc, csv_out, _ = run_cmd(capsys, "scan", "--x-values", "100,1000", "--format", "csv")
    assert rc == 0
    rc, json_out, _ = run_cmd(capsys, "scan", "--x-values", "100,1000", "--format", "json")
    assert rc == 0
    header, *rows = list(csv.reader(io.StringIO(csv_out)))
    doc = json.loads(json_out)
    assert doc["c"] == 1.0 and doc["failures"] == []
    for csv_row, json_row in zip(rows, doc["rows"]):
        for name, cell in zip(header, csv_row):
            assert float(cell) == pytest.approx(float(json_row[name]), rel=0, abs=0)


def test_scan_reports_failures_on_stderr_and_exits_nonzero(capsys):
    rc, out, err = run_cmd(
        capsys, "scan", "--x-values", "100,10", "--c", "0.1", "--format", "csv"
    )
    assert rc == 1
    assert "x=10" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2  # header plus the surviving x=100 row


# ---------------------------------------------------------------------------
# cache plumbing


def test_cache_flag_does_not_change_output(capsys, tmp_path):
    rc, plain, _ = run_cmd(capsys, "gaps", "--limit", "2000", "--format", "json")
    assert rc == 0
    path = str(tmp_path / "p.tpc")
    rc, cached, _ = run_cmd(
        capsys, "gaps", "--limit", "2000", "--format", "json", "--cache-path", path
    )
    assert rc == 0
    assert cached == plain
    assert sieve.load_cache(path).limit == 2_000


def test_cache_env_var_honored(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "env.tpc")
    monkeypatch.setenv(cli.CACHE_ENV_VAR, path)
    rc, out, _ = run_cmd(capsys, "primes", "--limit", "500", "--format", "json")
    assert rc == 0
    assert json.loads(out)["count"] == 95
    assert sieve.load_cache(path).limit == 500


def test_unreadable_cache_path_is_a_computation_error(capsys, tmp_path):
    rc, _, err = run_cmd(
        capsys,
        "primes", "--limit", "100",
        "--cache-path", str(tmp_path / "no" / "such" / "dir" / "p.tpc"),
    )
    assert rc == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", "--x", "20", "--y", "10"],
        ["criterion", "--x", "1", "--y", "10"],
        ["primes"],                                  # missing --limit
        ["primes", "--limit", "-5"],
        ["primes", "--limit", "2.5"],
        ["gaps", "--limit", "2"],
        ["mertens", "--x", "1"],
        ["theorem1", "--x", "5"],
        ["lemma2", "--x", "100", "--c", "9"],
        ["scan", "--x-values", "100", "--jobs", "0"],
        ["scan", "--x-values", ""],
        ["selftest", "--sets", "0"],
        ["no-such-command"],
        ["primes", "--limit", "10", "--format", "yaml"],
    ],
)
def test_argument_errors_exit_2(capsys, argv):
    rc, _, err = run_cmd(capsys, *argv)
    assert rc == 2
    assert err  # usage text lands on stderr


def test_computation_errors_exit_1(capsys):
    rc, _, err = run_cmd(capsys, "criterion", "--x", "24", "--y", "28")
    assert rc == 1
    assert err.startswith("error:")
    rc, _, err = run_cmd(capsys, "theorem1", "--x", "113", "--c", "0.1")
    assert rc == 1
    assert err.startswith("error:")


def test_selftest_exit_zero_on_pass(capsys):
    rc, out, _ = run_cmd(capsys, "selftest", "--sets", "5", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["failures"] == []


@pytest.mark.parametrize(
    "argv,code",
    [("criterion --x 10 --y 20", 0), ("criterion --x 24 --y 28", 1), ("theorem1 --x 5", 2)],
)
def test_main_exits_with_the_code_of_run(capsys, argv, code):
    """`python -m twinmeans.cli` goes through main(), which exits with run's
    code; on success its stdout is run's, byte for byte."""
    src = os.path.dirname(os.path.dirname(cli.__file__))   # this twinmeans, not another
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "twinmeans.cli", *argv.split()], capture_output=True, env=env
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.decode() == run_cmd(capsys, *argv.split())[1]


def test_theorem1_table_lists_twin_pairs(capsys):
    rc, out, _ = run_cmd(capsys, "theorem1", "--x", "100")
    assert rc == 0
    assert "(101, 103)" in out and "(107, 109)" in out


def test_criterion_table_decision_wording(capsys):
    rc, out, _ = run_cmd(capsys, "criterion", "--x", "10", "--y", "20")
    assert rc == 0 and "twin exists" in out
    rc, out, _ = run_cmd(capsys, "criterion", "--x", "89", "--y", "97")
    assert rc == 0 and "no twin" in out
