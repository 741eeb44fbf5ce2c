"""The ratio_means library session: power means of interval ratio sets and
exact twin decisions on short windows.

    python3 perfbench/session.py INPUT.json OUTPUT.json TRACE(0|1)

INPUT.json holds {"intervals": [[x, c], ...], "windows": [[x, y], ...],
"alphas": [...]}.  OUTPUT.json gets the results, the time the calls took
(interpreter start and imports excluded) per interval and per batch of
windows, the operations that raised, and, with TRACE 1, the span summary.
"""

import json
import sys
import time

from twinmeans import analytic, means, sieve, verify
from twinmeans.means import MeanLimit

WINDOW_BATCH = 50   # windows timed together as one entry of op_s


def interval_means(x: int, c: float, alphas: list) -> dict:
    bs = verify.beta_for(x, c)
    ip = sieve.interval_primes(x, bs.y)
    rs = means.build_ratio_set(ip)
    grid = [[a, means.power_mean(rs.elements, a).value] for a in alphas]
    limits = {w.value: means.mean_limit(rs.elements, w).value for w in MeanLimit}
    log_t = analytic.log_t_product(ip)
    return {"x": x, "c": c, "y": bs.y, "pi": len(rs.elements), "grid": grid, "limits": limits, "log_t": log_t}


def window_decision(x: int, y: int) -> dict:
    rep = verify.twin_criterion(x, y)
    return {
        "x": x,
        "y": y,
        "P": rep.P,
        "threshold": str(rep.threshold),
        "m_inf": str(rep.m_inf),
        "decision": rep.decision,
        "twins": [p for p, _ in rep.brute_force_twins],
    }


def main() -> int:
    in_path, out_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(in_path) as fh:
        spec = json.load(fh)
    tracer = None
    if trace:
        import spantrace

        tracer = spantrace.install()
    errors = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # counted as a failed operation, session goes on
            errors.append(f"{fn.__name__}{args}: {type(exc).__name__}: {exc}")
            return None

    op_s = {}

    def timed(name, fn, items):
        t0 = time.perf_counter()
        out = [attempt(fn, *item) for item in items]
        op_s[name] = time.perf_counter() - t0
        return out

    intervals, windows = [], []
    for i, (x, c) in enumerate(spec["intervals"]):
        intervals += timed(f"interval{i}", interval_means, [(x, c, spec["alphas"])])
    for i in range(0, len(spec["windows"]), WINDOW_BATCH):
        windows += timed(f"windows{i}", window_decision, spec["windows"][i : i + WINDOW_BATCH])
    result = {
        "op_s": op_s,
        "intervals": intervals,
        "windows": windows,
        "errors": errors,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
