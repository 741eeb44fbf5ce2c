#!/usr/bin/env bash
# CI's checks past the tier-1 tests: one short run of each benchmark
# workload, and the console script end to end.
#
#   scripts/ci.sh                                   # installed `twinmeans`
#   TWINMEANS="python -m twinmeans.cli" PYTHONPATH=src scripts/ci.sh
#
# $TWINMEANS is the command that runs the CLI (default `twinmeans`).  Run
# from the repository root.  Scratch files go to $RUNNER_TEMP, or to a
# temporary directory removed at exit.  Any failed check ends the script
# with a nonzero status.
set -e

tw=${TWINMEANS:-twinmeans}
if [ -n "$RUNNER_TEMP" ]; then
    tmp=$RUNNER_TEMP
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
fi

for workload in ratio_means interval_report prime_sums cached_prime_sums; do
    echo "== $workload benchmark run"
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | tail -n 1 > "$tmp/$workload.json"
    python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$tmp/$workload.json"
done

echo "== console script"
$tw criterion --x 10 --y 20 --format json
$tw criterion --x 999999000 --y 999999600 --format json
$tw criterion --x 1e9 --y 1.01e9 --format csv
$tw primes --limit 1e6 --format json
$tw primes --limit 1e6 --format json --cache-path "$tmp/p.tpc1"
$tw mertens --x 1e6 --cutoff 1e6 --format json
$tw constants --cutoff 1e6 --format json
$tw lemma1 --x 1e6 --cutoff 1e6 --format json --cache-path "$tmp/p.tpc1"
$tw theorem1 --x 5e8 --c 0.5 --format csv
$tw theorem1 --x 1e6 --c 1 --format json
$tw lemma2 --x 1e6 --c 1 --format json
$tw gaps --limit 1e6 --format json
$tw selftest --sets 5
rc=0; $tw theorem1 --x 5 || rc=$?; test "$rc" -eq 2
rc=0; $tw criterion --x 24 --y 28 || rc=$?; test "$rc" -eq 1
$tw criterion --x 9999999400 --y 1e10 --format json       # the look-ahead passes the cap
rc=0; $tw criterion --x 9999999400 --y 10000000001 || rc=$?; test "$rc" -eq 1
for args in "selftest --sets 5 --format csv" "scan --x-values 1e4,1e5,1e6 --c 1 --jobs 2 --format json"; do
    $tw $args > "$tmp/first.out"
    $tw $args > "$tmp/second.out"
    cmp "$tmp/first.out" "$tmp/second.out"
done
echo "== ci.sh: all checks passed"
