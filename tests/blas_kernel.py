"""numpy's BLAS as the tests run it: its name and version, and the kernel
(core type) a DYNAMIC_ARCH OpenBLAS picked when it loaded.

The core type is read through ctypes from the OpenBLAS that numpy's wheel
bundles (`numpy.libs/libscipy_openblas64_*.so`); `OPENBLAS_CORETYPE` in
the environment overrides the pick at load time.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def openblas_core() -> str | None:
    """The OpenBLAS core type in use (e.g. "SkylakeX"), or None where numpy
    bundles no OpenBLAS or its library lacks the symbol."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return None
    get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
    if get is None:
        return None
    get.argtypes = []
    get.restype = ctypes.c_char_p
    return get().decode()


def blas_summary() -> str:
    """numpy's BLAS as "<name> <version>", with ", core <type>" where known."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    core = openblas_core()
    name = f"{blas.get('name')} {blas.get('version')}"
    return f"{name}, core {core}" if core else name
