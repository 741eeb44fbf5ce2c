"""Run one twinmeans CLI command with per-layer spans on.

    python3 perfbench/traced_cli.py SUMMARY.json <twinmeans arguments...>

Stdout, stderr and the exit code are the command's own.  The span summary,
with the time the fresh interpreter took to import twinmeans.cli, goes to
SUMMARY.json.
"""

import json
import sys
import time


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import twinmeans.cli as cli
    import_s = time.perf_counter() - t0

    import spantrace

    tracer = spantrace.install()
    code = cli.run(argv)
    sys.stdout.flush()
    with open(summary_path, "w") as fh:
        json.dump(dict(tracer.summary(), import_s=import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
