"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sets.py --workload NAME [--seeds 1-10] [--trace 0]

Run from the root of a checkout.  Uses the command and run length in
BENCHMARK.json, prints each run's result line, then for every metric the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1)/median, and the share of failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        argv = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", flush=True)
        res = json.loads(line)
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed/attempted: {sorted(shares)}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
