"""The benchmark's self-tests, run as part of the suite.

perfbench/ reaches into the package by name: it wraps functions with its
tracer, builds workloads through the config, and checks outputs against
recorded references.  A rename or signature change that breaks it should
fail here, not first when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
