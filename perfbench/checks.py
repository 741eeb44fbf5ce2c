"""Checks of twinmeans outputs against references made apart from the program.

Every check returns a list of problems; an empty list means the output is
right.  References come from refs.json (see make_refs.py) or from refsieve.py
at run time, never from twinmeans itself.
"""

from __future__ import annotations

import hashlib
import math
import os
from fractions import Fraction

import refsieve

# Envelope constants of acceptance criteria 6 and 9b (tests/test_acceptance.py).
K2_INTERVAL = 0.005
K9B = 3.0
# Relative tolerance between two compensated float reductions of the same terms.
REL_TOL = 1e-12


def _close(got, want, rel=REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want)


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# the prime-sum commands, all to 1e8


def check_primes(out: dict, ref: dict) -> list[str]:
    p: list[str] = []
    _expect(p, out.get("limit") == ref["limit"], f"primes: limit {out.get('limit')}")
    _expect(p, out.get("count") == ref["count"], f"primes: count {out.get('count')} != {ref['count']}")
    _expect(p, out.get("largest") == ref["largest"], f"primes: largest {out.get('largest')}")
    _expect(p, out.get("head") == ref["head"], "primes: head differs")
    _expect(p, out.get("tail") == ref["tail"], "primes: tail differs")
    return p


def check_gaps(out: dict, ref: dict) -> list[str]:
    p: list[str] = []
    _expect(p, out.get("limit") == ref["limit"], f"gaps: limit {out.get('limit')}")
    _expect(p, out.get("gap") == ref["gap"], f"gaps: gap {out.get('gap')} != {ref['gap']}")
    _expect(p, out.get("lower_prime") == ref["gap_lower"], f"gaps: lower prime {out.get('lower_prime')}")
    _expect(p, out.get("upper_prime") == ref["gap_lower"] + ref["gap"], "gaps: upper prime")
    return p


def _M_problems(tag: str, m: float, radius: float, M: float) -> list[str]:
    if abs(m - M) <= radius:
        return []
    return [f"{tag}: M estimate {m!r} is {abs(m - M):.3e} from M, outside radius {radius:.3e}"]


def check_mertens(out: dict, ref: dict, M: float) -> list[str]:
    p: list[str] = []
    x = ref["limit"]
    _expect(p, out.get("x") == x and out.get("m_cutoff") == x, "mertens: x or cutoff")
    _expect(p, _close(out["observed"], ref["mertens_sum"]), f"mertens: sum 1/p = {out['observed']!r}")
    p += _M_problems("mertens", out["m_estimate"], 1.0 / x, M)
    _expect(p, _close(out["predicted"], math.log(math.log(x)) + out["m_estimate"], 1e-15),
            "mertens: predicted != log log x + M estimate")
    return p


def check_constants(out: dict, ref: dict, M: float, C: float) -> list[str]:
    p: list[str] = []
    _expect(p, out.get("cutoff") == ref["limit"], f"constants: cutoff {out.get('cutoff')}")
    p += _M_problems("constants", out["M"], out["tail_radius_M"], M)
    _expect(p, abs(out["C"] - C) <= out["tail_radius_C"],
            f"constants: C {out['C']!r} outside radius {out['tail_radius_C']:.3e}")
    _expect(p, out["tail_radius_M"] <= 1.0 / ref["limit"] and out["tail_radius_C"] <= 6.0 / ref["limit"],
            "constants: radii wider than the series tails 1/cutoff and 6/cutoff")
    _expect(p, out["tail_radius"] == max(out["tail_radius_M"], out["tail_radius_C"]), "constants: tail_radius")
    _expect(p, abs(out["D_prime"] - (2 * out["M"] + out["C"] - 1)) <= 1e-15, "constants: D' != 2M + C - 1")
    _expect(p, abs(out["D"] - (out["D_prime"] + math.log(2))) <= 1e-15, "constants: D != D' + log 2")
    return p


def check_lemma1(out: dict, ref: dict, M: float, C: float) -> list[str]:
    p: list[str] = []
    x = ref["limit"]
    _expect(p, out.get("x") == x and out.get("cutoff") == x, "lemma1: x or cutoff")
    _expect(p, _close(out["observed"], ref["twin_product"]), f"lemma1: twin product {out['observed']!r}")
    D = 2 * M + C - 1 + math.log(2)
    _expect(p, abs(out["D"] - D) <= 2 / x + 6 / x, f"lemma1: D {out['D']!r} outside radius of {D!r}")
    _expect(p, _close(out["predicted"], math.exp(-out["D"]) / math.log(x) ** 2, 1e-14),
            "lemma1: predicted != exp(-D)/log^2 x")
    return p


# ---------------------------------------------------------------------------
# the interval report at 1e9


def check_theorem1(out: dict, ref: dict) -> list[str]:
    p: list[str] = []
    x, c = ref["x"], ref["c"]
    _expect(p, out.get("x") == x and out.get("c") == c, "theorem1: x or c")
    _expect(p, out.get("y") == ref["y"], f"theorem1: y {out.get('y')} != {ref['y']}")
    _expect(p, out.get("pi_interval") == ref["pi"], f"theorem1: pi_interval {out.get('pi_interval')} != {ref['pi']}")
    _expect(p, Fraction(out["threshold_exact"]) == Fraction(ref["P"], ref["P"] + 2),
            f"theorem1: threshold {out['threshold_exact']} is not P/(P+2) for P = {ref['P']}")
    pairs = out.get("twin_pairs", [])
    lows = [a for a, _ in pairs]
    _expect(p, out.get("twin_count") == ref["twin_count"] == len(pairs),
            f"theorem1: {len(pairs)} twin pairs, {ref['twin_count']} expected")
    _expect(p, all(b == a + 2 for a, b in pairs), "theorem1: a twin pair is not (p, p+2)")
    _expect(p, refsieve.digest(lows) == ref["twin_sha256"], "theorem1: twin pairs differ from the reference")
    has_twin = ref["twin_count"] > 0
    _expect(p, (out["M_inf_exact"] == "1") == has_twin and (out["M_inf"] == 1) == has_twin,
            f"theorem1: M_inf = {out['M_inf_exact']} but twin pair exists is {has_twin}")
    _expect(p, _close(out["M0"], math.exp(ref["log_t"] / ref["pi"])), f"theorem1: M0 {out['M0']!r}")
    _expect(p, _close(out["lower_bound"], 1 - c / out["x_beta"], 1e-15), "theorem1: lower_bound != 1 - c/x^beta")
    # criterion 9b: pi*log x*(1 - M0)/c - 1 within K9B/log x, 1 - M0 taken
    # from the expm1-accurate residual column
    one_minus_m0 = (out["residual"] + 1.0) * c / out["x_beta"]
    r9b = ref["pi"] * math.log(x) * one_minus_m0 / c - 1.0
    _expect(p, abs(r9b) <= K9B / math.log(x), f"theorem1: criterion 9b residual {r9b:.4f} outside K9B/log x")
    return p


def check_lemma2(out: dict, ref: dict) -> list[str]:
    p: list[str] = []
    x, c = ref["x"], ref["c"]
    _expect(p, out.get("x") == x and out.get("c") == c and out.get("y") == ref["y"], "lemma2: x, c or y")
    _expect(p, _close(out["observed"], math.exp(ref["log_t"])), f"lemma2: T {out['observed']!r}")
    beta = 1 + c / math.log(x) ** 2
    _expect(p, _close(out["predicted"], beta**2 / math.exp(c / math.log(x)), 1e-14),
            "lemma2: predicted != beta^2/x^(beta-1)")
    # criterion 6
    r = out["observed"] / out["predicted"] - 1
    _expect(p, abs(r) <= K2_INTERVAL / math.log(x) ** 2, f"lemma2: criterion 6 residual {r:.3e} outside K2/log^2 x")
    _expect(p, abs(out["telescoped_rel_diff"]) <= REL_TOL, "lemma2: the two product routes disagree")
    return p


def check_cli(name: str, out: dict, refs: dict) -> list[str]:
    """Dispatch on the subcommand name."""
    upto, M, C = refs["upto_1e8"], float(refs["M"]), float(refs["C"])
    if name == "primes":
        return check_primes(out, upto)
    if name == "gaps":
        return check_gaps(out, upto)
    if name == "mertens":
        return check_mertens(out, upto, M)
    if name == "constants":
        return check_constants(out, upto, M, C)
    if name == "lemma1":
        return check_lemma1(out, upto, M, C)
    if name == "theorem1":
        return check_theorem1(out, refs["report_1e9"])
    if name == "lemma2":
        return check_lemma2(out, refs["report_1e9"])
    return [f"no check for {name}"]


# ---------------------------------------------------------------------------
# the library session of ratio_means


def check_interval_means(out: dict, ref: dict) -> list[str]:
    """Power-mean grid, the three limits and the product of one interval."""
    p: list[str] = []
    tag = f"means ({out['x']}, {out['y']}]"
    _expect(p, out["y"] == ref["y"], f"{tag}: y != {ref['y']}")
    _expect(p, out["pi"] == ref["pi"], f"{tag}: {out['pi']} elements, {ref['pi']} primes")
    lo, hi = float(Fraction(ref["ratio_min"])), float(Fraction(ref["ratio_max"]))
    lim = out["limits"]
    _expect(p, lim["minus_inf"] == lo, f"{tag}: M_-inf {lim['minus_inf']!r} != min {lo!r}")
    _expect(p, lim["plus_inf"] == hi, f"{tag}: M_inf {lim['plus_inf']!r} != max {hi!r}")
    _expect(p, (lim["plus_inf"] == 1.0) == (ref["twin_count"] > 0), f"{tag}: M_inf = 1 does not match twin existence")
    _expect(p, _close(lim["zero"], math.exp(ref["log_t"] / ref["pi"])), f"{tag}: M_0 != exp(log T/pi)")
    _expect(p, _close(out["log_t"], ref["log_t"]), f"{tag}: log T {out['log_t']!r} != {ref['log_t']!r}")
    # M_alpha must be nondecreasing in alpha, from the min to the max
    pts = sorted([(a, v) for a, v in out["grid"]] + [(0.0, lim["zero"])])
    vals = [lim["minus_inf"]] + [v for _, v in pts] + [lim["plus_inf"]]
    _expect(p, all(a <= b for a, b in zip(vals, vals[1:])), f"{tag}: M_alpha grid is not nondecreasing")
    _expect(p, all(lo <= v <= hi for v in vals), f"{tag}: M_alpha outside [min, max]")
    return p


def check_window(out: dict, ref: dict) -> list[str]:
    """One exact twin_criterion decision on a short window."""
    p: list[str] = []
    tag = f"criterion ({out['x']}, {out['y']}]"
    _expect(p, out["P"] == ref["P"], f"{tag}: P {out['P']} != {ref['P']}")
    _expect(p, out["m_inf"] == ref["m_inf"], f"{tag}: sup {out['m_inf']} != {ref['m_inf']}")
    _expect(p, out["twins"] == ref["twins"], f"{tag}: twins {out['twins']} != {ref['twins']}")
    _expect(p, out["decision"] == bool(ref["twins"]), f"{tag}: decision {out['decision']} with twins {ref['twins']}")
    _expect(p, Fraction(out["threshold"]) == Fraction(ref["P"], ref["P"] + 2), f"{tag}: threshold")
    return p


# ---------------------------------------------------------------------------
# the prime cache


def fingerprint(path: str) -> dict:
    """Identity and content of a file: a rewrite shows even with equal bytes."""
    st = os.stat(path)
    with open(path, "rb") as fh:
        sha = hashlib.file_digest(fh, "sha256").hexdigest()
    return {"ino": st.st_ino, "size": st.st_size, "mtime_ns": st.st_mtime_ns, "sha256": sha}


def check_cache_unchanged(before: dict, after: dict) -> list[str]:
    changed = sorted(k for k in before if before[k] != after.get(k))
    return [f"cache file changed during the run: {', '.join(changed)}"] if changed else []


def check_same_stdout(name: str, cached: bytes, uncached: bytes) -> list[str]:
    if cached == uncached:
        return []
    at = next((i for i, (a, b) in enumerate(zip(cached, uncached)) if a != b), min(len(cached), len(uncached)))
    return [f"{name}: cached stdout differs from uncached at byte {at}"]
