"""Guard: a simulation run never imports numpy.

numpy costs a fresh interpreter about 140 ms, and every perfbench probe,
bench or fuzz subprocess starts cold.  Only the named random streams need it
(``DeterministicRNG.stream`` imports it on first use), and a plain run draws
from none of them.  The check runs in a fresh interpreter because the test
session itself has long imported numpy.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = """
import sys
import perfbench.workloads as workloads

# exactly what perfbench's setup_s times
for workload in workloads.WORKLOADS.values():
    workload.inputs(0)
# one tiny job on each backend, checked end to end
for name in ("tile_io", "overlap_write_locking"):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(0, smoke=True)
    verdict = workload.verify(inputs, workload.run(inputs))
    assert not verdict.mismatches, verdict.mismatches
loaded = sorted(module for module in sys.modules
                if module == "numpy" or module.startswith("numpy."))
assert not loaded, f"numpy was imported: {loaded[:5]}"
"""


def test_setup_and_tiny_jobs_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=REPO_ROOT,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
