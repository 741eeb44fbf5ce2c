"""Command-line surface: one subcommand per verification artifact.

Output contract: --format table prints reals with 6 significant digits for
reading; json and csv carry 17 significant digits so every value round-trips
to the exact double.  Exit codes: 0 success, 2 argument errors (usage to
stderr), 1 computation errors.  Every report, scan's rows included, prints
through one function, _emit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import analytic, selftest, sieve, verify
from .errors import CacheFormatError, CapacityError
from .sieve import PrimeFile
from .verify import TwinPairs

CACHE_ENV_VAR = "TWINMEANS_PRIME_CACHE"
TABLE_DIGITS = 6
WIRE_DIGITS = 17
JSON_PAIRS_PER_PIECE = 4096   # twin pairs rendered and written at a time

SCAN_CSV_FIELDS = [
    "x",
    "c",
    "beta",
    "x_beta",
    "pi_interval",
    "M0",
    "M_inf",
    "lower_bound",
    "threshold",
    "residual",
    "twin_count",
]


# ---------------------------------------------------------------------------
# rendering


def _json_scalar(v) -> str:
    """A float to 17 digits; a bool, int, str or None as json.dumps writes
    it, which refuses any other type with TypeError."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError("non-finite value in report")
        return format(v, f".{WIRE_DIGITS}g")
    return json.dumps(v)


def _json_pieces(obj, indent: int = 0) -> Iterator[str]:
    """The json text of obj in pieces.  A TwinPairs is formatted from
    its array, JSON_PAIRS_PER_PIECE pairs a piece, so no list of its pairs
    or of their strings is ever built.  A list holding a dict puts each
    item on a line of its own."""
    pad = "  " * indent
    if isinstance(obj, TwinPairs):
        yield "["
        for i in range(0, len(obj), JSON_PAIRS_PER_PIECE):
            lower = obj.lower[i : i + JSON_PAIRS_PER_PIECE].tolist()
            yield (", " if i else "") + ", ".join(f"[{p}, {p + 2}]" for p in lower)
        yield "]"
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(obj.items()):
            yield f"{',' if i else '{'}\n{pad}  {json.dumps(k)}: "
            yield from _json_pieces(v, indent + 1)
        yield f"\n{pad}}}" if obj else "{}"
    elif isinstance(obj, (list, tuple)):
        lines = any(isinstance(v, dict) for v in obj)
        yield "["
        for i, v in enumerate(obj):
            if lines:
                yield f"{',' if i else ''}\n{pad}  "
            elif i:
                yield ", "
            yield from _json_pieces(v, indent + 1 if lines else indent)
        yield f"\n{pad}]" if lines else "]"
    else:
        yield _json_scalar(obj)


def _cell(v, table: bool = False) -> str:
    """One csv cell (17 digits, None empty) or table cell (6 digits, None '-')."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, f".{TABLE_DIGITS if table else WIRE_DIGITS}g")
    if v is None:
        return "-" if table else ""
    return str(v)


def _table(rows: Sequence[Sequence[str]]) -> None:
    """Print rows of cells, each column padded to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _pairs_preview(pairs: TwinPairs, limit: int = 8) -> str:
    shown = " ".join(f"({p}, {p + 2})" for p in pairs.lower[:limit].tolist())
    extra = len(pairs) - limit
    return shown + (f" ... +{extra} more" if extra > 0 else "") if pairs else "none"


# ---------------------------------------------------------------------------
# report payloads: one dict per result dataclass

# payload fields printed in json only, a count in their place elsewhere
_LISTS = (list, TwinPairs)
# payload keys that differ from the field names
_KEYS = {"m0": "M0", "m_inf": "M_inf", "criterion_threshold": "threshold"}
# the count key that stands in for each list field outside json
_COUNTS = {
    "twin_pairs": "twin_count",
    "brute_force_twins": "twin_count",
    "failures": "failure_count",
}


def to_payload(report, **extra) -> dict:
    """The report of a result dataclass as a flat dict, in field order.

    A nested dataclass is flattened in place.  A Fraction field gives its
    float and then `<key>_exact`, the exact ratio.  A list field gives its
    count; the list itself goes last, after the `extra` keys, and only json
    output prints it.
    """
    d, lists = {}, {}
    for f in dataclasses.fields(report):
        v, key = getattr(report, f.name), _KEYS.get(f.name, f.name)
        if dataclasses.is_dataclass(v):
            d.update(to_payload(v))
        elif isinstance(v, Fraction):
            d[key] = float(v)
            d[key + "_exact"] = str(v)
        elif isinstance(v, _LISTS):
            d[_COUNTS[f.name]] = len(v)
            lists[key] = v
        else:
            d[key] = v
    return {**d, **extra, **lists}


def _scalars(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if not isinstance(v, _LISTS)}


# ---------------------------------------------------------------------------
# argument plumbing


def _int_arg(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        try:
            v = float(s)   # accepts 1e6 style
        except ValueError:
            v = math.nan
        if math.isinf(v):
            raise argparse.ArgumentTypeError(f"too large: {s}")
        if not v.is_integer():   # 2.5, nan, or no number at all
            raise argparse.ArgumentTypeError(f"not an integer: {s}")
        return int(v)


def _int_list_arg(s: str) -> list[int]:
    vals = [_int_arg(tok) for tok in s.split(",") if tok.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty value list")
    return vals


def _cache_for(args, limit: int) -> Optional[PrimeFile]:
    path = getattr(args, "cache_path", None) or os.environ.get(CACHE_ENV_VAR)
    return sieve.cached_primes_up_to(limit, path) if path else None


def _emit(args, payload: dict, csv_fields: Sequence[str] = (), table=(), rows=None) -> None:
    """Print a report; every command prints through here, its lists in json
    only.  csv, and the table of a scan, print a header of `csv_fields` (of
    every scalar by default) over one line per payload of `rows`, or over
    the report's scalars when `rows` is None.  Any other table prints a line
    per scalar, where the (key, text) pairs of `table` replace the value of
    that key and go last."""
    if args.format == "json":
        sys.stdout.writelines(_json_pieces(payload))
        sys.stdout.write("\n")
        return
    scalars = _scalars(payload)
    is_table = args.format == "table"
    if is_table and rows is None:
        replaced = dict(table)
        cells = [(k, _cell(v, table=True)) for k, v in scalars.items() if k not in replaced]
        _table(cells + list(table))
        return
    fields = csv_fields or list(scalars)
    rows = [scalars] if rows is None else rows
    grid = [fields] + [[_cell(r[f], is_table) for f in fields] for r in rows]
    if is_table:
        _table(grid)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(grid)


# ---------------------------------------------------------------------------
# handlers


def _cmd_primes(args) -> int:
    count, head, tail = sieve.prime_summary(args.limit, 10, cache=_cache_for(args, args.limit))
    payload = {
        "limit": args.limit,
        "count": count,
        "largest": tail[-1] if tail else None,
        "head": head,
        "tail": tail,
    }
    _emit(args, payload)
    return 0


def _cmd_gaps(args) -> int:
    rec = sieve.max_gap_up_to(args.limit, cache=_cache_for(args, args.limit))
    _emit(args, to_payload(rec, upper_prime=rec.lower_prime + rec.gap))
    return 0


def _cmd_mertens(args) -> int:
    cache = _cache_for(args, max(args.x, args.cutoff))
    chk, m_hat = analytic.mertens_report(args.x, args.cutoff, cache=cache)
    _emit(args, to_payload(chk, m_estimate=m_hat, m_cutoff=args.cutoff))
    return 0


def _cmd_constants(args) -> int:
    cache = _cache_for(args, args.cutoff)
    _emit(args, to_payload(analytic.compute_constants(args.cutoff, cache=cache)))
    return 0


def _cmd_lemma1(args) -> int:
    cache = _cache_for(args, max(args.x, args.cutoff))
    chk, consts = analytic.lemma1_report(args.x, args.cutoff, cache=cache)
    _emit(args, to_payload(chk, D=consts.D, cutoff=consts.cutoff))
    return 0


def _cmd_lemma2(args) -> int:
    chk, bs, rel_diff = verify.lemma2_report(args.x, args.c)
    _emit(args, to_payload(chk, c=args.c, beta=bs.beta, y=bs.y, telescoped_rel_diff=rel_diff))
    return 0


def _cmd_theorem1(args) -> int:
    row = verify.theorem1_report(args.x, args.c)
    preview = [("twin_pairs", _pairs_preview(row.twin_pairs))]
    _emit(args, to_payload(row), SCAN_CSV_FIELDS, preview)
    return 0


def _cmd_scan(args) -> int:
    rows, failures = verify.theorem1_scan(args.x_values, args.c, jobs=args.jobs)
    payloads = [_scalars(to_payload(r)) for r in rows]
    failed = [{"x": x, "error": msg} for x, msg in failures]
    doc = {"c": args.c, "rows": payloads, "failures": failed}
    _emit(args, doc, SCAN_CSV_FIELDS, rows=payloads)
    for x, msg in failures:
        print(f"scan: x={x}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_criterion(args) -> int:
    rep = verify.twin_criterion(args.x, args.y)
    decision = ("decision", "twin exists" if rep.decision else "no twin")
    preview = ("brute_force_twins", _pairs_preview(rep.brute_force_twins))
    _emit(args, to_payload(rep), table=[decision, preview])
    return 0


def _cmd_selftest(args) -> int:
    rep = selftest.run_selftest(seed=args.seed, sets=args.sets)
    _emit(args, to_payload(rep, passed=rep.passed))
    if args.format == "table":
        for msg in rep.failures[:20]:
            print(f"failure: {msg}", file=sys.stderr)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# argument table


class Arg(NamedTuple):
    """One subcommand option; an option without a default is required.

    `bound` is a minimum (for a list, of each entry), a (lo, hi) range, or
    the flag of an option this one must exceed.
    """

    flag: str
    bound: object = None
    type: Callable = _int_arg
    default: object = None
    help: Optional[str] = None


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    cached: bool   # takes --cache-path
    args: tuple[Arg, ...]


_BETA_ARGS = (Arg("--x", verify.X_MIN), Arg("--c", verify.C_RANGE, float, 1.0))
_SUM_MIN = {name: least for name, (least, _) in analytic.PRIME_SUMS.items()}
_CUTOFF = Arg("--cutoff", max(_SUM_MIN["M"], _SUM_MIN["C"]), default=10**7)

# name: Command(handler, help, takes --cache-path, options)
COMMANDS = {
    "primes": Command(_cmd_primes, "primes up to a limit", True, (Arg("--limit", 0),)),
    "gaps": Command(_cmd_gaps, "largest consecutive-prime gap", True, (Arg("--limit", 3),)),
    "mertens": Command(_cmd_mertens, "sum of 1/p against log log x + M", True, (
        Arg("--x", _SUM_MIN["recip"]),
        Arg("--cutoff", _SUM_MIN["M"], default=10**6,
            help="cutoff for the M estimate (default 1e6)"),
    )),
    "constants": Command(
        _cmd_constants, "estimate M, C and the derived D', D with tail bounds", True, (_CUTOFF,)
    ),
    "lemma1": Command(_cmd_lemma1, "twin-factor product against exp(-D)/log^2 x", True, (
        Arg("--x", _SUM_MIN["twin"]), _CUTOFF
    )),
    "lemma2": Command(
        _cmd_lemma2, "interval ratio product against beta^2/x^(beta-1)", False, _BETA_ARGS
    ),
    "theorem1": Command(_cmd_theorem1, "full interval mean report at one x", False, _BETA_ARGS),
    "scan": Command(_cmd_scan, "interval mean reports across several x", False, (
        Arg("--x-values", verify.X_MIN, _int_list_arg,
            help="comma-separated x list, e.g. 10000,100000,1000000"),
        Arg("--c", verify.C_RANGE, float, 1.0),
        Arg("--jobs", 1, default=1, help="parallel workers"),
    )),
    "criterion": Command(
        _cmd_criterion, "exact twin decision for (x, y]", False, (Arg("--x", 2), Arg("--y", "--x"))
    ),
    "selftest": Command(_cmd_selftest, "seeded power-mean property checks", False, (
        Arg("--seed", default=0),
        Arg("--sets", 1, default=100),
    )),
}


def _check_order(a: Arg) -> int:
    """Single-value minimums first, then ranges, then list entries and y > x."""
    if isinstance(a.bound, str) or a.type is _int_list_arg:
        return 2
    return 1 if isinstance(a.bound, tuple) else 0


def _bound_error(a: Arg, args) -> Optional[str]:
    v = getattr(args, a.flag[2:].replace("-", "_"))
    if isinstance(a.bound, tuple):
        lo, hi = a.bound
        return None if lo <= v <= hi else f"{a.flag} must lie in [{lo}, {hi}]"
    if isinstance(a.bound, str):
        other = getattr(args, a.bound[2:])
        return None if v > other else f"{a.flag} must be greater than {a.bound}"
    if isinstance(v, list):
        low = [item for item in v if item < a.bound]
        name = a.flag[2:].removesuffix("-values")
        return f"every {name} must be >= {a.bound} (got {low[0]})" if low else None
    return None if v >= a.bound else f"{a.flag} must be >= {a.bound}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinmeans",
        description="Prime-interval ratio sets, power means, and Mertens-type "
        "product checks at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default table; json/csv carry 17 significant digits)",
        )
        if cmd.cached:
            sp.add_argument(
                "--cache-path",
                default=None,
                help=f"prime cache file; defaults to ${CACHE_ENV_VAR} when set",
            )
        for a in cmd.args:
            sp.add_argument(
                a.flag, type=a.type, default=a.default, required=a.default is None, help=a.help
            )
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, check the bounds and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cmd = COMMANDS[args.command]
        for a in sorted((a for a in cmd.args if a.bound is not None), key=_check_order):
            msg = _bound_error(a, args)
            if msg:
                parser.error(msg)
        try:
            return cmd.handler(args)
        except (CapacityError, CacheFormatError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
