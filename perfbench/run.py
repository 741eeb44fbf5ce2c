"""Benchmark of twinmeans: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports twinmeans from ./src and
writes only under ./.perfbench_run/, which it removes at exit.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See perfbench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from spantrace import ANALYTIC_REDUCERS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5      # set-up runs per run; setup_s is their median
MIN_ROUNDS = 3         # rounds per run however short --seconds is
COMMAND_TIMEOUT_S = 120
C_RANGE = (0.1, 4.0)   # the accepted c window, twinmeans.verify.C_RANGE

PRIME_SUMS = [
    ["primes", "--limit", "1e8"],
    ["gaps", "--limit", "1e8"],
    ["mertens", "--x", "1e8", "--cutoff", "1e8"],
    ["constants", "--cutoff", "1e8"],
    ["lemma1", "--x", "1e8", "--cutoff", "1e8"],
]
INTERVAL_REPORT = [
    ["theorem1", "--x", "1e9", "--c", "1"],
    ["lemma2", "--x", "1e9", "--c", "1"],
]
# ratio_means session make-up
ALPHAS = [-800.0, -100.0, -10.0, -1.0, 1.0, 10.0, 100.0, 800.0]
SESSION_INTERVALS = 4          # one per quarter of C_RANGE
SESSION_ELEMENTS = 75_000      # ratio-set size of each interval, so the work is seed-independent
SESSION_WINDOWS = 200
WINDOW_X = (5 * 10**8, 10**9 - 600)
WINDOW_H = (300, 600)          # the largest prime gap below 1e9 is 282

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(RuntimeError):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# starting commands


class Spawner:
    """Client of spawner.py, which starts each command and reports its cost."""

    def __init__(self, rundir: str, env: dict):
        self.rundir, self.env, self.n = rundir, env, 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> dict:
        """Run argv to its end; the reply names the files holding its output."""
        self.n += 1
        base = os.path.join(self.rundir, f"cmd{self.n}")
        req = {"argv": argv, "env": self.env, "stdout": base + ".out", "stderr": base + ".err",
               "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the spawner process died")
        return dict(json.loads(line), stdout=req["stdout"], stderr=req["stderr"])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def take(path: str) -> bytes:
    """Read a command's output file and remove it."""
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-400:].decode(errors="replace").strip()


# ---------------------------------------------------------------------------
# workloads


class Round:
    """One pass over a workload's operations."""

    def __init__(self):
        self.walls: dict[str, float] = {}   # operation -> wall seconds, if it succeeded
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.summaries: list[dict] = []
        self.stdout_bytes = 0


class Workload:
    def __init__(self, root: str, rundir: str, spawner: Spawner, seed: int):
        self.root, self.rundir, self.spawner, self.seed = root, rundir, spawner, seed
        self.problems: list[str] = []
        self.py = sys.executable

    def warm_up(self, module: str) -> None:
        """One interpreter start that imports the package, as a user's first run does."""
        src = os.path.join(self.root, "src")
        rep = self.spawner.run([self.py, "-c", f"import {module}; print({module}.__file__)"])
        where = take(rep["stdout"]).decode().strip()
        if rep["code"] != 0 or not where.startswith(src + os.sep):
            raise SetupError(f"cannot import {module} from {src}: {where or tail(rep['stderr'])}")
        os.remove(rep["stderr"])

    def wall_s(self, rounds: list[Round]) -> float:
        """Time of one round: the sum over operations of each one's median time."""
        names = {n for r in rounds for n in r.walls}
        return sum(median([r.walls[n] for r in rounds if n in r.walls]) for n in names)

    def refs(self) -> dict:
        with open(os.path.join(HERE, "refs.json")) as fh:
            return json.load(fh)


class CliWorkload(Workload):
    """CLI commands, each a fresh `python3 -m twinmeans.cli ... --format json`."""

    def __init__(self, *a, commands, cached: bool):
        super().__init__(*a)
        self.commands = list(commands)
        random.Random(self.seed).shuffle(self.commands)   # the seed picks the order in a round
        self.cache = os.path.join(self.rundir, "primes.tpc1") if cached else None
        self.first: dict[str, bytes] = {}
        self.cache_print = None

    def argv(self, cmd: list[str], traced: bool, summary: str, cache: bool = True) -> list[str]:
        head = ([self.py, os.path.join(HERE, "traced_cli.py"), summary] if traced
                else [self.py, "-m", "twinmeans.cli"])
        extra = ["--cache-path", self.cache] if self.cache and cache else []
        return head + cmd + ["--format", "json"] + extra

    def setup(self, traced: bool) -> dict:
        self.warm_up("twinmeans.cli")
        if not self.cache:
            return {}
        if os.path.exists(self.cache):
            os.remove(self.cache)
        summary = os.path.join(self.rundir, "setup.trace.json")
        rep = self.spawner.run(self.argv(PRIME_SUMS[0], traced, summary))
        if rep["code"] != 0:
            raise SetupError(f"writing the prime cache failed: {tail(rep['stderr'])}")
        take(rep["stdout"])
        os.remove(rep["stderr"])
        self.cache_print = None
        if not traced:
            return {}
        with open(summary) as fh:
            return {"sieve.cache_save_s": json.load(fh)["self_s"].get("sieve.save_cache", 0.0)}

    def round(self, traced: bool) -> Round:
        if self.cache and self.cache_print is None:
            import checks

            self.cache_print = checks.fingerprint(self.cache)   # after set-up, untimed
        rnd = Round()
        summary = os.path.join(self.rundir, "trace.json")
        for cmd in self.commands:
            name = cmd[0]
            rep = self.spawner.run(self.argv(cmd, traced, summary))
            rnd.attempted += 1
            rnd.rss_kb = max(rnd.rss_kb, rep["rss_kb"])
            out = take(rep["stdout"])
            if rep["code"] != 0:
                rnd.failed += 1
                print(f"{name} failed: {tail(rep['stderr'])}", file=sys.stderr)
                continue
            os.remove(rep["stderr"])
            rnd.walls[name] = rep["wall_s"]
            rnd.stdout_bytes += len(out)
            if traced:
                with open(summary) as fh:
                    rnd.summaries.append(json.load(fh))
            if name not in self.first:
                self.first[name] = out
            elif out != self.first[name]:
                self.problems.append(f"{name}: stdout differs between rounds")
        return rnd

    def check(self) -> None:
        import checks

        refs = self.refs()
        for name, out in self.first.items():
            self.problems += checks.check_cli(name, json.loads(out), refs)
        if not self.cache:
            return
        self.problems += checks.check_cache_unchanged(self.cache_print, checks.fingerprint(self.cache))
        for cmd in self.commands:
            if cmd[0] not in self.first:
                continue
            rep = self.spawner.run(self.argv(cmd, False, "", cache=False))
            self.problems += checks.check_same_stdout(cmd[0], self.first[cmd[0]], take(rep["stdout"]))


class SessionWorkload(Workload):
    """The ratio_means library session, one fresh process per round."""

    def __init__(self, *a):
        super().__init__(*a)
        self.spec_path = os.path.join(self.rundir, "session.in.json")
        self.spec = None
        self.first = None

    def make_spec(self) -> dict:
        rng = random.Random(self.seed)
        lo, hi = C_RANGE
        intervals = []
        for k in range(SESSION_INTERVALS):
            c = round(lo + (hi - lo) * (k + rng.uniform(0.3, 0.7)) / SESSION_INTERVALS, 6)
            # (x, x^beta] holds about c*x/log^2 x primes: pick x to hold SESSION_ELEMENTS
            x = 10**7
            for _ in range(8):
                x = SESSION_ELEMENTS * math.log(x) ** 2 / c
            intervals.append([int(x), c])
        windows = []
        for _ in range(SESSION_WINDOWS):
            x = rng.randrange(*WINDOW_X)
            windows.append([x, x + rng.randrange(WINDOW_H[0], WINDOW_H[1] + 1)])
        return {"intervals": intervals, "windows": windows, "alphas": ALPHAS}

    def setup(self, traced: bool) -> dict:
        self.spec = self.make_spec()
        with open(self.spec_path, "w") as fh:
            json.dump(self.spec, fh)
        self.warm_up("twinmeans")
        return {}

    def round(self, traced: bool) -> Round:
        rnd = Round()
        out_path = os.path.join(self.rundir, "session.out.json")
        rep = self.spawner.run(
            [self.py, os.path.join(HERE, "session.py"), self.spec_path, out_path, "1" if traced else "0"])
        ops = len(self.spec["intervals"]) + len(self.spec["windows"])
        rnd.attempted = ops
        rnd.rss_kb = rep["rss_kb"]
        take(rep["stdout"])
        if rep["code"] != 0:
            rnd.failed = ops
            print(f"session failed: {tail(rep['stderr'])}", file=sys.stderr)
            return rnd
        os.remove(rep["stderr"])
        with open(out_path) as fh:
            res = json.load(fh)
        os.remove(out_path)
        rnd.failed = len(res["errors"])
        for err in res["errors"]:
            print(f"session: {err}", file=sys.stderr)
        rnd.walls = res["op_s"]
        if traced:
            rnd.summaries.append(res["trace"])
        results = {"intervals": res["intervals"], "windows": res["windows"]}
        if self.first is None:
            self.first = results
        elif results != self.first:
            self.problems.append("session results differ between rounds")
        return rnd

    def check(self) -> None:
        import checks
        import refsieve

        if self.first is None:
            return
        for (x, c), out in zip(self.spec["intervals"], self.first["intervals"]):
            if out is not None:
                ref = refsieve.interval_ref(x, refsieve.interval_end(x, c))
                self.problems += checks.check_interval_means(out, ref)
        for (x, y), out in zip(self.spec["windows"], self.first["windows"]):
            if out is not None:
                self.problems += checks.check_window(out, refsieve.window_ref(x, y))


WORKLOADS = {
    "interval_report": lambda *a: CliWorkload(*a, commands=INTERVAL_REPORT, cached=False),
    "prime_sums": lambda *a: CliWorkload(*a, commands=PRIME_SUMS, cached=False),
    "cached_prime_sums": lambda *a: CliWorkload(*a, commands=PRIME_SUMS, cached=True),
    "ratio_means": SessionWorkload,
}


# ---------------------------------------------------------------------------
# per-layer metrics

SIEVE_GROUPS = {
    "sieve.segment_s": {"sieve.iter_prime_segments"},
    "sieve.interval_s": {"sieve.interval_primes", "sieve.next_prime_after", "sieve.twin_pairs_in"},
    "sieve.cache_load_s": {"sieve.load_cache", "sieve.cached_primes_up_to"},
}
PER_LAYER_UNITS = {
    "sieve.segment_s": "s",
    "sieve.segments": "count",
    "sieve.primes": "count",
    "sieve.bytes": "B",
    "sieve.integers": "count",
    "sieve.calls": "count",
    "sieve.interval_s": "s",
    "sieve.other_s": "s",
    "sieve.cache_load_s": "s",
    "sieve.cache_bytes": "B",
    "sieve.cache_save_s": "s",
    "means.build_s": "s",
    "means.elements": "count",
    "means.sup_s": "s",
    "means.power_mean_s": "s",
    "means.power_mean_calls": "count",
    "means.limit_s": "s",
    "analytic.reduce_s": "s",
    "analytic.terms": "count",
    "verify.self_s": "s",
    "verify.criteria": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
    "host.ref_s": "s",
}


def layer_metrics(rnd: Round) -> dict:
    """Per-layer figures of one traced round, summed over its commands."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    import_s = 0.0
    for summ in rnd.summaries:
        for src, dst in ((summ["self_s"], self_s), (summ["calls"], calls), (summ["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        import_s += summ.get("import_s", 0.0)

    def self_of(names):
        return sum((v for k, v in self_s.items() if k in names), 0.0)

    grouped = set().union(*SIEVE_GROUPS.values(), {"sieve.save_cache"})
    m = {name: self_of(names) for name, names in SIEVE_GROUPS.items()}
    m.update({
        "sieve.segments": counts.get("sieve.segments", 0),
        "sieve.primes": counts.get("sieve.primes", 0),
        "sieve.bytes": counts.get("sieve.bytes", 0),
        "sieve.integers": counts.get("sieve.integers", 0),
        "sieve.calls": calls.get("sieve.iter_prime_segments", 0),
        "sieve.other_s": sum((v for k, v in self_s.items() if k.startswith("sieve.") and k not in grouped), 0.0),
        "sieve.cache_bytes": counts.get("sieve.cache_bytes", 0),
        "means.build_s": self_of({"means.build_ratio_set"}),
        "means.elements": counts.get("means.elements", 0),
        "means.sup_s": self_of({"means.max_element", "means.min_element"}),
        "means.power_mean_s": self_of({"means.power_mean"}),
        "means.power_mean_calls": calls.get("means.power_mean", 0),
        "means.limit_s": self_of({"means.mean_limit"}),
        "analytic.reduce_s": self_of(ANALYTIC_REDUCERS),
        "analytic.terms": counts.get("analytic.terms", 0),
        "verify.self_s": sum((v for k, v in self_s.items() if k.startswith("verify.")), 0.0),
        "verify.criteria": calls.get("verify.twin_criterion", 0) + calls.get("verify.theorem1_report", 0),
        "cli.import_s": import_s,
        "cli.self_s": self_s.get("cli.run", 0.0),
        "cli.stdout_bytes": rnd.stdout_bytes,
    })
    return m


def host_ref_s() -> float:
    """A fixed pure-Python and numpy loop that touches no twinmeans code."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    np.sort(np.random.default_rng(0).random(1_000_000))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# running a workload


def measure(work: Workload, seconds: float, trace: bool) -> dict:
    setups, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup_layers.append(work.setup(trace))
        setups.append(time.perf_counter() - t0)

    plain, traced, host = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(work.round(False))
        if trace:
            host.append(host_ref_s())
            traced.append(work.round(True))
        longest = max(longest, time.perf_counter() - t0)
        now = time.perf_counter()
        if len(plain) >= MIN_ROUNDS and now - start + longest > seconds:
            break
    work.check()

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if trace:
        per_round = [layer_metrics(r) for r in traced]
        values = {k: statistics.median_low([m[k] for m in per_round]) for k in per_round[0]}
        values["sieve.cache_save_s"] = median([s.get("sieve.cache_save_s", 0.0) for s in setup_layers])
        values["trace.overhead_s"] = work.wall_s(traced) - work.wall_s(plain)
        values["host.ref_s"] = median(host)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": work.wall_s(plain),
            "peak_rss_mb": max(r.rss_kb for r in plain) / 1024.0,
            "setup_s": median(setups),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not work.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twinmeans", "cli.py")):
        print(f"no twinmeans source under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    rundir = os.path.join(root, ".perfbench_run", str(os.getpid()))
    os.makedirs(rundir)
    env = dict(os.environ)
    env.pop("TWINMEANS_PRIME_CACHE", None)    # uncached commands must not find a cache
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    spawner = Spawner(rundir, env)
    try:
        work = WORKLOADS[args.workload](root, rundir, spawner, args.seed)
        result = measure(work, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass
    for problem in work.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
