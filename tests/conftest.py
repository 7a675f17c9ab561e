import resource
import sys

import numpy as np

from blas_kernel import blas_summary


def pytest_terminal_summary(terminalreporter):
    """Name the BLAS kernel the pinned digests ran on and the session's
    peak RSS, then echo the one-line acceptance verdicts after the test
    summary."""
    terminalreporter.write_line(f"numpy {np.__version__}, BLAS {blas_summary()}")
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # where ru_maxrss counts bytes
        kib /= 1024
    terminalreporter.write_line(f"peak RSS {kib / 1024:.0f} MB")
    mod = next((m for name, m in sys.modules.items()
                if name.rpartition(".")[2] == "test_acceptance"), None)
    if mod is not None and getattr(mod, "VERDICTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)
