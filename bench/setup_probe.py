"""Time one set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD SEED K

Set-up is importing ``inertia_bounds`` from SRC_DIR plus building the
workload's inputs.  Prints the elapsed seconds, the number of inputs and
the host's slowness (``reference.py``) measured right after, for as long
as the set-up took.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from workloads import WORKLOADS, build_inputs  # noqa: E402

inputs = build_inputs(WORKLOADS[sys.argv[2]], int(sys.argv[3]), int(sys.argv[4]))
elapsed = time.perf_counter() - start

from reference import slowness  # noqa: E402

print(elapsed, len(inputs), slowness(elapsed))
