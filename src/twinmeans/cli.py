"""Command-line surface: one subcommand per verification artifact.

Output contract: --format table prints reals with 6 significant digits for
reading; json and csv carry 17 significant digits so every value round-trips
to the exact double.  Exit codes: 0 success, 2 argument errors (usage to
stderr), 1 computation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from . import analytic, selftest, sieve, verify
from .analytic import AsymptoticCheck, ConstantsBundle, ProductMethod
from .errors import CacheFormatError, CapacityError, EmptySetError
from .selftest import SelftestReport
from .sieve import GapRecord, PrimeSeq
from .verify import BetaSpec, CriterionReport, Theorem1Row

CACHE_ENV_VAR = "TWINMEANS_PRIME_CACHE"
TABLE_DIGITS = 6
WIRE_DIGITS = 17

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


def _wire(v: float) -> str:
    return format(float(v), f".{WIRE_DIGITS}g")


def _json_scalar(v) -> str:
    if type(v) is int:   # the common case first; a bool is not exactly int
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError("non-finite value in report")
        return _wire(v)
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"unsupported report value {v!r}")


_SCALAR_TYPES = {bool, int, float, str, type(None)}


def _json_flat(items) -> str:
    return "[" + ", ".join(map(_json_scalar, items)) + "]"


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        # fast paths: a list of scalars, and a list of such lists (twin pairs)
        kinds = set(map(type, items))
        if kinds <= _SCALAR_TYPES:
            return _json_flat(items)
        if kinds <= {list, tuple} and set(map(type, chain.from_iterable(items))) <= _SCALAR_TYPES:
            return "[" + ", ".join([_json_flat(v) for v in items]) + "]"
        if any(isinstance(v, dict) for v in items):
            body = ",\n".join(f"{pad}  {_render_json(v, indent + 1)}" for v in items)
            return "[\n" + body + "\n" + pad + "]"
        return "[" + ", ".join(_render_json(v, indent) for v in items) + "]"
    return _json_scalar(obj)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _wire(v)
    if v is None:
        return ""
    return str(v)


def _emit_csv(fields: Sequence[str], rows: Sequence[dict], out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(fields)
    for r in rows:
        w.writerow([_csv_cell(r[f]) for f in fields])


def _table_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, f".{TABLE_DIGITS}g")
    if v is None:
        return "-"
    return str(v)


def _emit_kv_table(pairs: Sequence[tuple[str, str]], out) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}", file=out)


def _emit_row_table(fields: Sequence[str], rows: Sequence[dict], out) -> None:
    cells = [list(fields)] + [[_table_cell(r[f]) for f in fields] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(fields))]
    for row in cells:
        line = "  ".join(val.ljust(w) for val, w in zip(row, widths))
        print(line.rstrip(), file=out)


def _pairs_preview(pairs: Sequence[Sequence[int]], limit: int = 8) -> str:
    shown = " ".join(f"({a}, {b})" for a, b in pairs[:limit])
    extra = len(pairs) - limit
    return shown + (f" ... +{extra} more" if extra > 0 else "") if pairs else "none"


# ---------------------------------------------------------------------------
# report payloads and their inverses (json round-trip support)


def check_payload(chk: AsymptoticCheck) -> dict:
    return {
        "x": chk.x,
        "observed": chk.observed,
        "predicted": chk.predicted,
        "scaled_residual": chk.scaled_residual,
        "scale_note": chk.scale_note,
    }


def check_from_dict(d: dict) -> AsymptoticCheck:
    return AsymptoticCheck(
        x=d["x"],
        observed=d["observed"],
        predicted=d["predicted"],
        scaled_residual=d["scaled_residual"],
        scale_note=d["scale_note"],
    )


def bundle_payload(b: ConstantsBundle) -> dict:
    return {
        "cutoff": b.cutoff,
        "M": b.M,
        "C": b.C,
        "D_prime": b.D_prime,
        "D": b.D,
        "tail_radius": b.tail_radius,
    }


def bundle_from_dict(d: dict) -> ConstantsBundle:
    return ConstantsBundle(
        M=d["M"],
        C=d["C"],
        D_prime=d["D_prime"],
        D=d["D"],
        cutoff=d["cutoff"],
        tail_radius=d["tail_radius"],
    )


def gap_payload(g: GapRecord) -> dict:
    return {
        "limit": g.limit,
        "gap": g.gap,
        "lower_prime": g.lower_prime,
        "upper_prime": g.lower_prime + g.gap,
    }


def gap_from_dict(d: dict) -> GapRecord:
    return GapRecord(limit=d["limit"], gap=d["gap"], lower_prime=d["lower_prime"])


def theorem1_row_payload(row: Theorem1Row, *, with_pairs: bool) -> dict:
    d = {
        "x": row.interval.x,
        "c": row.interval.c,
        "beta": row.interval.beta,
        "x_beta": row.interval.x_beta,
        "y": row.interval.y,
        "pi_interval": row.pi_interval,
        "M0": row.m0,
        "M_inf": row.m_inf_value,
        "M_inf_exact": str(row.m_inf),
        "lower_bound": row.lower_bound,
        "threshold": float(row.criterion_threshold),
        "threshold_exact": str(row.criterion_threshold),
        "residual": row.residual,
        "logz_crosscheck": row.logz_crosscheck,
        "pi_approx": row.pi_approx,
        "residual_approx_pi": row.residual_approx_pi,
        "twin_count": len(row.twin_pairs),
    }
    if with_pairs:
        d["twin_pairs"] = [[a, b] for a, b in row.twin_pairs]
    return d


def theorem1_row_from_dict(d: dict) -> Theorem1Row:
    return Theorem1Row(
        interval=BetaSpec(
            x=d["x"], c=d["c"], beta=d["beta"], x_beta=d["x_beta"], y=d["y"]
        ),
        pi_interval=d["pi_interval"],
        m0=d["M0"],
        m_inf=Fraction(d["M_inf_exact"]),
        m_inf_value=d["M_inf"],
        lower_bound=d["lower_bound"],
        criterion_threshold=Fraction(d["threshold_exact"]),
        twin_pairs=[(a, b) for a, b in d["twin_pairs"]],
        residual=d["residual"],
        logz_crosscheck=d["logz_crosscheck"],
        pi_approx=d["pi_approx"],
        residual_approx_pi=d["residual_approx_pi"],
    )


def criterion_payload(rep: CriterionReport, *, with_pairs: bool) -> dict:
    d = {
        "x": rep.x,
        "y": rep.y,
        "P": rep.P,
        "threshold": float(rep.threshold),
        "threshold_exact": str(rep.threshold),
        "M_inf": float(rep.m_inf),
        "M_inf_exact": str(rep.m_inf),
        "decision": rep.decision,
        "twin_count": len(rep.brute_force_twins),
    }
    if with_pairs:
        d["brute_force_twins"] = [[a, b] for a, b in rep.brute_force_twins]
    return d


def criterion_from_dict(d: dict) -> CriterionReport:
    return CriterionReport(
        x=d["x"],
        y=d["y"],
        P=d["P"],
        threshold=Fraction(d["threshold_exact"]),
        m_inf=Fraction(d["M_inf_exact"]),
        decision=d["decision"],
        brute_force_twins=[(a, b) for a, b in d["brute_force_twins"]],
    )


def selftest_payload(rep: SelftestReport, *, with_failures: bool) -> dict:
    d = {
        "seed": rep.seed,
        "sets": rep.sets,
        "monotonicity_checks": rep.monotonicity_checks,
        "limit_checks": rep.limit_checks,
        "failure_count": len(rep.failures),
        "elapsed_s": rep.elapsed_s,
        "passed": rep.passed,
    }
    if with_failures:
        d["failures"] = list(rep.failures)
    return d


def selftest_from_dict(d: dict) -> SelftestReport:
    return SelftestReport(
        seed=d["seed"],
        sets=d["sets"],
        monotonicity_checks=d["monotonicity_checks"],
        limit_checks=d["limit_checks"],
        failures=list(d["failures"]),
        elapsed_s=d["elapsed_s"],
    )


# ---------------------------------------------------------------------------
# argument plumbing


def _int_arg(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        v = float(s)   # accepts 1e6 style; argparse turns ValueError into exit 2
        if v != int(v):
            raise argparse.ArgumentTypeError(f"not an integer: {s}")
        return int(v)


def _int_list_arg(s: str) -> list[int]:
    vals = [_int_arg(tok) for tok in s.split(",") if tok.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty value list")
    return vals


def _cache_for(args, limit: int) -> Optional[PrimeSeq]:
    path = getattr(args, "cache_path", None) or os.environ.get(CACHE_ENV_VAR)
    if not path:
        return None
    return sieve.cached_primes_up_to(limit, path)


def _emit(args, payload: dict, csv_fields: Sequence[str], table_pairs) -> None:
    if args.format == "json":
        print(_render_json(payload))
    elif args.format == "csv":
        _emit_csv(csv_fields, [payload], sys.stdout)
    else:
        _emit_kv_table(table_pairs(payload), sys.stdout)


def _kv_default(payload: dict) -> list[tuple[str, str]]:
    return [(k, _table_cell(v)) for k, v in payload.items() if not isinstance(v, list)]


# ---------------------------------------------------------------------------
# handlers


def _cmd_primes(args, parser) -> int:
    if args.limit < 0:
        parser.error("--limit must be >= 0")
    cache = _cache_for(args, args.limit)
    ps = (
        cache
        if cache is not None
        else sieve.primes_up_to(args.limit)
    )
    arr = ps.primes
    payload = {
        "limit": args.limit,
        "count": int(arr.size),
        "largest": int(arr[-1]) if arr.size else None,
    }
    if args.format == "json":
        payload["head"] = [int(p) for p in arr[:10]]
        payload["tail"] = [int(p) for p in arr[-10:]]
    _emit(args, payload, ["limit", "count", "largest"], _kv_default)
    return 0


def _cmd_gaps(args, parser) -> int:
    if args.limit < 3:
        parser.error("--limit must be >= 3")
    cache = _cache_for(args, args.limit)
    rec = sieve.max_gap_up_to(args.limit, cache=cache)
    payload = gap_payload(rec)
    _emit(args, payload, list(payload), _kv_default)
    return 0


def _cmd_mertens(args, parser) -> int:
    if args.x < 2:
        parser.error("--x must be >= 2")
    if args.cutoff < 2:
        parser.error("--cutoff must be >= 2")
    cache = _cache_for(args, max(args.x, args.cutoff))
    m_hat, _ = analytic.estimate_M(args.cutoff, cache=cache)
    chk = analytic.mertens_check(args.x, m_hat, cache=cache)
    payload = dict(check_payload(chk), m_estimate=m_hat, m_cutoff=args.cutoff)
    _emit(args, payload, list(payload), _kv_default)
    return 0


def _cmd_constants(args, parser) -> int:
    if args.cutoff < 3:
        parser.error("--cutoff must be >= 3")
    cache = _cache_for(args, args.cutoff)
    m_hat, m_tail = analytic.estimate_M(args.cutoff, cache=cache)
    c_hat, c_tail = analytic.estimate_C(args.cutoff, cache=cache)
    bundle = analytic.derived_constants(
        m_hat, c_hat, cutoff=args.cutoff, tail_radius=max(m_tail, c_tail)
    )
    payload = dict(bundle_payload(bundle), tail_radius_M=m_tail, tail_radius_C=c_tail)
    _emit(args, payload, list(payload), _kv_default)
    return 0


def _cmd_lemma1(args, parser) -> int:
    if args.x < 3:
        parser.error("--x must be >= 3")
    if args.cutoff < 3:
        parser.error("--cutoff must be >= 3")
    cache = _cache_for(args, max(args.x, args.cutoff))
    consts = analytic.compute_constants(args.cutoff, cache=cache)
    chk = analytic.lemma1_check(args.x, consts, cache=cache)
    payload = dict(check_payload(chk), D=consts.D, cutoff=consts.cutoff)
    _emit(args, payload, list(payload), _kv_default)
    return 0


def _cmd_lemma2(args, parser) -> int:
    _validate_beta_args(args, parser)
    bs = verify.beta_for(args.x, args.c)
    ip = sieve.interval_primes(args.x, bs.y)   # one sieve pass feeds both routes
    chk = analytic.lemma2_check(args.x, args.c, spec=bs, ip=ip)
    tele = analytic.t_product(args.x, bs.y, ProductMethod.TELESCOPED, ip=ip)
    payload = dict(
        check_payload(chk),
        c=args.c,
        beta=bs.beta,
        y=bs.y,
        telescoped_rel_diff=chk.observed / tele - 1.0,
    )
    _emit(args, payload, list(payload), _kv_default)
    return 0


def _validate_beta_args(args, parser) -> None:
    if args.x < 10:
        parser.error("--x must be >= 10")
    lo, hi = verify.C_RANGE
    if not lo <= args.c <= hi:
        parser.error(f"--c must lie in [{lo}, {hi}]")


def _theorem1_table(payload: dict) -> list[tuple[str, str]]:
    pairs = _kv_default(payload)
    if "twin_pairs" in payload:
        pairs.append(("twin_pairs", _pairs_preview(payload["twin_pairs"])))
    return pairs


def _cmd_theorem1(args, parser) -> int:
    _validate_beta_args(args, parser)
    row = verify.theorem1_report(args.x, args.c)
    payload = theorem1_row_payload(row, with_pairs=args.format != "csv")
    if args.format == "csv":
        _emit_csv(SCAN_CSV_FIELDS, [payload], sys.stdout)
    elif args.format == "json":
        print(_render_json(payload))
    else:
        _emit_kv_table(_theorem1_table(payload), sys.stdout)
    return 0


def _cmd_scan(args, parser) -> int:
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    lo, hi = verify.C_RANGE
    if not lo <= args.c <= hi:
        parser.error(f"--c must lie in [{lo}, {hi}]")
    for x in args.x_values:
        if x < 10:
            parser.error(f"every x must be >= 10 (got {x})")
    rows, failures = verify.theorem1_scan(args.x_values, args.c, jobs=args.jobs)
    payloads = [theorem1_row_payload(r, with_pairs=False) for r in rows]
    if args.format == "json":
        print(
            _render_json(
                {
                    "c": args.c,
                    "rows": payloads,
                    "failures": [{"x": x, "error": msg} for x, msg in failures],
                }
            )
        )
    elif args.format == "csv":
        _emit_csv(SCAN_CSV_FIELDS, payloads, sys.stdout)
    else:
        _emit_row_table(SCAN_CSV_FIELDS, payloads, sys.stdout)
    for x, msg in failures:
        print(f"scan: x={x}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_criterion(args, parser) -> int:
    if args.x < 2:
        parser.error("--x must be >= 2")
    if args.y <= args.x:
        parser.error("--y must be greater than --x")
    rep = verify.twin_criterion(args.x, args.y)
    payload = criterion_payload(rep, with_pairs=args.format != "csv")
    if args.format == "table":
        pairs = [
            (k, _table_cell(v))
            for k, v in payload.items()
            if k not in ("decision", "brute_force_twins")
        ]
        pairs.append(("decision", "twin exists" if rep.decision else "no twin"))
        pairs.append(("brute_force_twins", _pairs_preview(rep.brute_force_twins)))
        _emit_kv_table(pairs, sys.stdout)
    else:
        _emit(args, payload, [k for k in payload if k != "brute_force_twins"], None)
    return 0


def _cmd_selftest(args, parser) -> int:
    if args.sets < 1:
        parser.error("--sets must be >= 1")
    rep = selftest.run_selftest(seed=args.seed, sets=args.sets)
    payload = selftest_payload(rep, with_failures=args.format == "json")
    if args.format == "table":
        pairs = _kv_default(payload)
        _emit_kv_table(pairs, sys.stdout)
        for msg in rep.failures[:20]:
            print(f"failure: {msg}", file=sys.stderr)
    else:
        _emit(args, payload, [k for k in payload if k != "failures"], _kv_default)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinmeans",
        description="Prime-interval ratio sets, power means, and Mertens-type "
        "product checks at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default table; json/csv carry 17 significant digits)",
    )
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument(
        "--cache-path",
        default=None,
        help=f"prime cache file; defaults to ${CACHE_ENV_VAR} when set",
    )

    sp = sub.add_parser("primes", parents=[fmt, cached], help="primes up to a limit")
    sp.add_argument("--limit", type=_int_arg, required=True)
    sp.set_defaults(handler=_cmd_primes)

    sp = sub.add_parser(
        "gaps", parents=[fmt, cached], help="largest consecutive-prime gap"
    )
    sp.add_argument("--limit", type=_int_arg, required=True)
    sp.set_defaults(handler=_cmd_gaps)

    sp = sub.add_parser(
        "mertens",
        parents=[fmt, cached],
        help="sum of 1/p against log log x + M",
    )
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument(
        "--cutoff",
        type=_int_arg,
        default=10**6,
        help="cutoff for the M estimate (default 1e6)",
    )
    sp.set_defaults(handler=_cmd_mertens)

    sp = sub.add_parser(
        "constants",
        parents=[fmt, cached],
        help="estimate M, C and the derived D', D with tail bounds",
    )
    sp.add_argument("--cutoff", type=_int_arg, default=10**7)
    sp.set_defaults(handler=_cmd_constants)

    sp = sub.add_parser(
        "lemma1",
        parents=[fmt, cached],
        help="twin-factor product against exp(-D)/log^2 x",
    )
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--cutoff", type=_int_arg, default=10**7)
    sp.set_defaults(handler=_cmd_lemma1)

    sp = sub.add_parser(
        "lemma2",
        parents=[fmt],
        help="interval ratio product against beta^2/x^(beta-1)",
    )
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.set_defaults(handler=_cmd_lemma2)

    sp = sub.add_parser(
        "theorem1", parents=[fmt], help="full interval mean report at one x"
    )
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.set_defaults(handler=_cmd_theorem1)

    sp = sub.add_parser(
        "scan", parents=[fmt], help="interval mean reports across several x"
    )
    sp.add_argument(
        "--x-values",
        type=_int_list_arg,
        required=True,
        help="comma-separated x list, e.g. 10000,100000,1000000",
    )
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser(
        "criterion", parents=[fmt], help="exact twin decision for (x, y]"
    )
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--y", type=_int_arg, required=True)
    sp.set_defaults(handler=_cmd_criterion)

    sp = sub.add_parser(
        "selftest", parents=[fmt], help="seeded power-mean property checks"
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sets", type=int, default=100)
    sp.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.handler(args, parser)
        except (
            CapacityError,
            EmptySetError,
            CacheFormatError,
            ValueError,
            OSError,
        ) as exc:
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
