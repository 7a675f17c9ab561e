"""The benchmark's self-tests, run as part of the suite.

perfbench/ reaches into the package by name: it wraps functions with its
tracer, builds workloads through the config, and checks outputs against
recorded references.  A rename or signature change that breaks it should
fail here, not first when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("trace, metrics", [(0, "end_to_end"), (1, "per_layer")])
def test_benchmark_entry_point_reports(trace, metrics):
    # the self-test drives run.Experiment; this runs run.py's own main (the
    # machine context, the set-up child, the result line) on its quickest
    # workload that goes through run_experiment
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "full_T512",
                           "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[metrics]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
