import resource
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_kernel import blas_summary

# the id of the test during which the process's peak RSS last rose
PEAK_SET_BY = pytest.StashKey[str]()
ROOT = Path(__file__).resolve().parent.parent


def _lines(directory: Path) -> int:
    """The total `wc -l <directory>/*.py` prints."""
    return sum(p.read_bytes().count(b"\n") for p in directory.glob("*.py"))


def _peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # where ru_maxrss counts bytes
        kib /= 1024
    return kib / 1024


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    # the whole protocol, so a module fixture built in a test's setup
    # counts against the test that first needed it
    before = _peak_rss_mb()
    yield
    if _peak_rss_mb() > before:
        item.config.stash[PEAK_SET_BY] = item.nodeid


def pytest_terminal_summary(terminalreporter):
    """Name the BLAS kernel the pinned digests ran on, the session's peak
    RSS and the test that set it, and the size in lines of the package,
    the tests and the scripts (as `wc -l <dir>/*.py` totals them), then
    echo the one-line acceptance verdicts after the test summary."""
    terminalreporter.write_line(f"numpy {np.__version__}, BLAS {blas_summary()}")
    set_by = terminalreporter.config.stash.get(PEAK_SET_BY, "collection, before any test")
    terminalreporter.write_line(f"peak RSS {_peak_rss_mb():.0f} MB, set by {set_by}")
    terminalreporter.write_line(f"src/drlsnet {_lines(ROOT / 'src' / 'drlsnet')} lines")
    terminalreporter.write_line(f"tests {_lines(ROOT / 'tests')} lines, "
                                f"scripts {_lines(ROOT / 'scripts')} lines")
    mod = next((m for name, m in sys.modules.items()
                if name.rpartition(".")[2] == "test_acceptance"), None)
    if mod is not None and getattr(mod, "VERDICTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)
