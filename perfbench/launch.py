"""Run one command and report its wall time and peak RSS as a JSON line.

    python3 perfbench/launch.py COMMAND [ARG ...]

The benchmark starts every timed child through this small process. On Linux
a child's ``ru_maxrss`` includes the resident set of the process that spawned
it, as it was at the moment of ``exec``; the benchmark harness holds the
ground truth and grows while checking outputs, so spawning from it directly
would report the harness's size instead of the command's. This launcher stays
at a few MiB, below any command it runs. The command's standard output is
discarded; its standard error is inherited.
"""

import json
import os
import sys
import time

argv = sys.argv[1:]
started = time.perf_counter()
pid = os.posix_spawnp(
    argv[0], argv, os.environ,
    file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
)
_, status, usage = os.wait4(pid, 0)
wall_s = time.perf_counter() - started
print(json.dumps({
    "exit_code": os.waitstatus_to_exitcode(status),
    "wall_s": wall_s,
    "peak_rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
}))
