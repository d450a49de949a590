"""Run one command and print its wall time and peak RSS on one line.

usage: python .github/timed_run.py COMMAND [ARG ...]

The peak is ``ru_maxrss`` of ``RUSAGE_CHILDREN``; this wrapper starts no
other child, so it is the command's own.  The wrapper exits with the
command's status.
"""

import resource
import subprocess
import sys
import time

start = time.perf_counter()
status = subprocess.run(sys.argv[1:]).returncode
wall = time.perf_counter() - start
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"{wall:7.2f} s {rss_mib:7.1f} MiB  exit {status}  {' '.join(sys.argv[1:])}", flush=True)
sys.exit(status)
