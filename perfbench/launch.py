"""Run one rootcover CLI call and report the resources of that process alone.

Usage: PYTHONPATH=src python3 perfbench/launch.py <cli arguments...>

The call's stdout passes through and its stderr is discarded.  The launcher
then writes one JSON object to its own stderr: the exit code, wall seconds,
user plus system CPU seconds and peak RSS of the CLI process, from
``os.wait4``.  A process spawned straight from the benchmark would not do:
a vfork child inherits its parent's RSS high-water mark, and the benchmark
process (sympy loaded) is larger than a CLI call.  This launcher is small.
"""

import json
import os
import sys
import time


def main() -> int:
    argv = [sys.executable, "-m", "rootcover.cli", *sys.argv[1:]]
    devnull = os.open(os.devnull, os.O_WRONLY)
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 2)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    json.dump({"code": os.waitstatus_to_exitcode(status), "wall": wall,
               "cpu": usage.ru_utime + usage.ru_stime,
               "maxrss_mb": usage.ru_maxrss / 1024.0}, sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
