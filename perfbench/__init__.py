"""perfbench: the repo's one benchmark, on two clocks.

Simulated time (the paper's atomic-MPI-I/O throughput claim) and host time
(how fast the simulator runs) are measured over six workloads; a separate
traced run yields the per-layer account.  See ``perfbench/README.md``.

The package drives only the layers' public functions and changes nothing
under ``src/``; it puts ``src/`` on ``sys.path`` itself so that
``python -m perfbench ...`` works from a bare checkout.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

if os.path.isdir(SRC_DIR) and SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)
