"""Cold set-up time of one workload: python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds taken by `import circodes` and `import circodes.cli` in
a fresh interpreter that has imported nothing else, so the library's own
imports are timed in full, plus the seconds taken by the seeded input
generation.  The benchmark's own modules are imported between the two
timed parts, so what they import is not counted as the library's.
run.py starts it nine times over a run, rescales each time by the host's
speed as it does the phases' times, and reports the median as setup_s.
"""

import os  # already loaded by the interpreter's start-up
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
t0 = time.perf_counter()
import circodes  # noqa: E402,F401
import circodes.cli  # noqa: E402,F401
t1 = time.perf_counter()
import workloads  # noqa: E402

mix, seed = workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])
t2 = time.perf_counter()
workloads.draw(mix, seed)
t3 = time.perf_counter()
print((t1 - t0) + (t3 - t2))
