"""Runs the benchmark's child processes from a small process of its own.

A child started with vfork and exec (what ``subprocess`` does on Linux)
reports in ``ru_maxrss`` at least the high-water RSS of the process that
started it: exec folds the old address space's peak into the new process's
record.  The benchmark's own process peaks at a few hundred MB while it checks
outputs, so children it started itself would all read that peak.  This
process stays near 10 MB, below any magflow run, so ``ru_maxrss`` from
``os.wait4`` is the child's own peak.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "cwd": ...,
"stderr": path}``; the command runs to completion in this process's
environment, and one JSON line answers with ``wall_s``, ``cpu_s`` (user +
system), ``maxrss_kb`` and ``rc``.  Ends at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "rc": proc.returncode,
        }) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
