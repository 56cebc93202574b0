"""Starts, times and reaps the benchmark's child processes.

A child created by a process inherits that process's peak RSS (Linux keeps
the parent's high-water mark through fork and exec), so children are started
from this small stdlib-only process rather than from the benchmark, whose
numpy and scipy state would otherwise show up as every child's `peak_rss_mb`.

Protocol: one JSON request per stdin line,
{"argv": [...], "cwd": dir, "stderr": path, "timeout": seconds}, answered by
one stdout line {"elapsed": seconds, "maxrss_kb": kb, "code": exit code,
"spin": seconds}.  The child's wall time runs from just before it is started
to its exit; a child still running after `timeout` seconds is killed.
`spin` is the mean of spin() run just before and just after the child.
Exits at EOF.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop: a probe of how fast the
    shared host runs this process right now."""
    start = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i
    return time.perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        before = spin()
        with open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = spin()
        sys.stdout.write(json.dumps({"elapsed": elapsed, "maxrss_kb": usage.ru_maxrss,
                                     "code": proc.returncode, "spin": (before + after) / 2}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
