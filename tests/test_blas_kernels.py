"""The equality contract across OpenBLAS kernels.

numpy's OpenBLAS picks a kernel (core type) for the CPU when it loads,
and `OPENBLAS_CORETYPE` forces another.  Each kernel the CPU supports
runs a small desk-network experiment in its own interpreter, and every
curve is held to the kernel OpenBLAS picks by itself: within 1e-12
relative, and under the AVX2 kernel (`Haswell`) the empirical curves bit
for bit.  The pinned CSV digests hold on one kernel only, so the test
summary names it (`conftest.py`).
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_kernel import openblas_core

ROOT = Path(__file__).resolve().parent.parent

# core type -> the /proc/cpuinfo flag it needs; forcing a kernel the CPU
# lacks crashes the interpreter, so a core runs only where its flag is
CORE_FLAGS = {"Haswell": "avx2", "Sandybridge": "avx", "Nehalem": "sse4_2"}
REL_TOL = 1e-12

CHILD = """\
import sys
import numpy as np
from blas_kernel import openblas_core
from drlsnet.cli import run_config
from drlsnet.config import parse_config, with_overrides
config, want, out = sys.argv[1:]
core = openblas_core()
if want and core != want:
    raise SystemExit(f"asked for core {want}, OpenBLAS runs {core}")
traj = run_config(with_overrides(parse_config(config),
                                 {"ensemble.runs": "20", "ensemble.iterations": "1000"}))
np.savez(out, core=core, msd_theory=traj.msd_theory,
         mean_err_norm_theory=traj.mean_err_norm_theory,
         **{f"msd_{a}_empirical": c for a, c in traj.msd_empirical.items()})
"""


def cpu_flags() -> set[str]:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags"):
                return set(line.partition(":")[2].split())
    return set()


def run_child(core: str | None, out: Path) -> dict[str, np.ndarray]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "configs" / "desk_pulsed_T32.ini"),
         core or "", str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    with np.load(out) as data:
        return dict(data)


@pytest.mark.skipif(platform.system() != "Linux" or platform.machine() != "x86_64",
                    reason="OpenBLAS core types are chosen here for x86-64 Linux")
def test_curves_agree_across_kernels(tmp_path):
    if openblas_core() is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS that names its core")
    flags = cpu_flags()
    cores = [core for core, flag in CORE_FLAGS.items() if flag in flags]
    if not cores:
        pytest.skip("the CPU supports none of the forced core types")
    ref = run_child(None, tmp_path / "default.npz")
    names = [name for name in ref if name != "core"]
    assert {"msd_theory", "mean_err_norm_theory", "msd_rls_empirical",
            "msd_drls_empirical"} <= set(names)
    for core in cores:
        got = run_child(core, tmp_path / f"{core}.npz")
        assert str(got["core"]) == core
        for name in names:
            np.testing.assert_allclose(got[name], ref[name], rtol=REL_TOL, atol=0,
                                       err_msg=f"{name} under {core}")
            if core == "Haswell" and name.endswith("_empirical"):
                assert np.array_equal(got[name], ref[name]), f"{name} under {core}"
