"""What a benchmark result was measured on: code revision, interpreter and
library versions, BLAS library and threads, and CPU count."""

from __future__ import annotations

import ctypes
import glob
import importlib.metadata
import os
import platform
import subprocess

# Entry points of the thread-count query in the OpenBLAS builds numpy ships.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(numpy):
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    """Versions and BLAS set-up of the running process; call after the
    program is imported, so the numpy it loaded is the one described."""
    import amplab
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "amplab": amplab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
    }


def revision(root: str) -> dict:
    """Git revision of the checkout and whether its tree differs from it;
    ``None`` for both outside a git work tree."""
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", root, *args], capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = git("rev-parse", "HEAD") if os.path.exists(os.path.join(root, ".git")) else None
    if rev is None:
        return {"git_revision": None, "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_revision": rev, "git_dirty": None if status is None else bool(status)}
