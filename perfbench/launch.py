"""Start one command, wait for it, and write its resource use to a file.

    python3 -S perfbench/launch.py REPORT PROGRAM [ARGS...]

REPORT receives one line: exit code, wall seconds, CPU seconds (user plus
system) and peak RSS in KiB, all as `os.wait4` reports them for exactly
that child.  The command inherits stdin, stdout and stderr.

The benchmark starts every command through this small interpreter instead
of forking it from its own, larger process: Linux counts the memory of the
process a child was forked from into the child's peak RSS, which would
hide every command smaller than the benchmark itself.
"""

import os
import sys
import time


def main():
    report, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    with open(report, "w") as handle:
        handle.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
                     f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
