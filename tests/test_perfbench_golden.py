"""The benchmark's pinned report digests gate the test suite as well.

perfbench/golden.json holds the digests of every sim workload's tiny report
at the default seed; its own self-test recomputes them from src/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_golden_reports_unchanged():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the self-test imports src/ itself
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py"), "Golden"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
