"""Start the benchmark's commands and report their wall time and peak RSS.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin,
{"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s},
runs the command to its end (killing it after `timeout` seconds) with its
output in those files, and answers with one JSON line
{"wall_s", "rss_kb", "code"}.  Exits at end of input.

run.py starts this process first, while both are small.  A child process
starts with the peak RSS of the process that starts it (the kernel carries
the parent's high-water mark over fork and exec), so commands started by
run.py itself, which grows while it checks outputs, would report its peak
instead of their own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "rss_kb": usage.ru_maxrss,
            "code": proc.returncode,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
