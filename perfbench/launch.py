"""Run one command; write its exit code, wall time and peak RSS as JSON.

    python3 perfbench/launch.py REPORT.json COMMAND [ARG...]

Linux carries a process's peak RSS across exec and starts a forked child's
count from its parent's, so a child spawned straight from the benchmark
would report at least the benchmark's own peak.  This small launcher is the
parent instead.  ru_maxrss from os.wait4 then covers the command and the
descendants it reaped (the pool workers of `szlab verify`), and nothing else.
The command inherits stdout and stderr.
"""

import json
import os
import subprocess
import sys
from time import perf_counter

report, cmd = sys.argv[1], sys.argv[2:]
t0 = perf_counter()
proc = subprocess.Popen(cmd)
_, status, usage = os.wait4(proc.pid, 0)
wall = perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
with open(report, "w") as fh:
    json.dump({"code": proc.returncode, "wall": wall, "maxrss_kib": usage.ru_maxrss}, fh)
