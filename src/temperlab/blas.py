"""numpy's bundled OpenBLAS, reached through ctypes.

The BLAS thread count changes parameter bits, so it is part of what a
bit-identical run needs (README, Reproducibility). The environment variables
only act before numpy loads; these calls act on the loaded library.
"""

import ctypes
import functools
import glob
import os


@functools.cache
def library():
    """numpy's `numpy.libs/libscipy_openblas64_*.so`, or None when numpy uses
    another BLAS (MKL, a system OpenBLAS, another platform's build)."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])  # the copy numpy loaded: same path, same handle
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    return lib


def set_threads(n: int) -> None:
    library().scipy_openblas_set_num_threads64_(n)


def describe() -> dict:
    """The library's file name and its reported thread count (None, None
    when it is not found)."""
    lib = library()
    if lib is None:
        return {"library": None, "threads": None}
    return {"library": os.path.basename(lib._name), "threads": lib.scipy_openblas_get_num_threads64_()}
