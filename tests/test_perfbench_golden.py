"""The benchmark's pinned report digests gate the test suite as well.

perfbench/golden.json holds the digests of every sim workload's tiny and
full report at the default seed.  Its own self-test recomputes the tiny
ones from src/; the full ones, which the benchmark checks on every run,
are recomputed here the same way.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs from the checkout root; perfbench's own modules import src/.
FULL_GOLDEN = """
import json, sys
sys.path.insert(0, "perfbench")
import common
common.import_porstore()
import porstore.sim
import sim_workloads

with open(sim_workloads.GOLDEN_PATH) as fh:
    golden = json.load(fh)
for workload, sizes in sim_workloads.SHAPES.items():
    config = sim_workloads.make_config(workload, sizes["full"], common.DEFAULT_SEED, 0)
    got = sim_workloads.digests(porstore.sim.run_experiment(config))
    if got != golden[workload]["full"]:
        sys.exit(f"{workload} full: {got} != {golden[workload]['full']}")
"""


def _run(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # perfbench imports src/ itself
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_perfbench_golden_reports_unchanged():
    _run([os.path.join("perfbench", "selftest.py"), "Golden"])


def test_perfbench_full_golden_reports_unchanged():
    _run(["-c", FULL_GOLDEN])
