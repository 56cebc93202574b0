"""Run a command and report its peak resident set size.

    python tests/peak_rss.py LIMIT_MB COMMAND [ARG ...]

Prints the command's peak RSS in MB, read from `os.wait4`, and exits 1 when
the command fails or peaks at LIMIT_MB or more.  A child's ru_maxrss counts
the resident set of the process that started it, so start this wrapper, not
the command, from a large process such as a test session: the wrapper
imports nothing heavy.
"""

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    limit_mb, command = float(argv[0]), argv[1:]
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    print(f"exit {proc.returncode}, peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)")
    return int(proc.returncode != 0 or peak_mb >= limit_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
