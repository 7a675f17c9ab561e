"""numpy is the package's only runtime dependency.

A fresh interpreter runs what a `drlsnet run` user pays for: the cli
import, parsing and building the desk config, and a small experiment
with its outputs; then the periodicity detector of
scripts/reproduce_full_scale.py; afterwards no scipy module may be loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import sys
import numpy as np
import drlsnet.cli
from drlsnet.config import parse_config, with_overrides
from reproduce_full_scale import detect_periodicity
cfg = parse_config(sys.argv[1])
cfg.build_combiner(); cfg.noise_variances(); cfg.build_profiles()
cfg = with_overrides(cfg, {"ensemble.runs": "2", "ensemble.iterations": "20"})
assert drlsnet.cli.run_experiment(cfg, out_dir=sys.argv[2]) == 0
detect_periodicity(np.sin(np.arange(64)), 4)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_run_loads_no_scipy_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "configs" / "desk_pulsed_T32.ini"),
         str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            str(ROOT / d) for d in ("src", "scripts"))),
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "desk_trajectory.csv").is_file()
