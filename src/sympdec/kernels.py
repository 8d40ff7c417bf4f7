"""Kernel backend selection.

The compiled extension is optional: if it was not built (no C compiler, no
Cython) the pure-Python implementation is used with identical semantics,
and the ImportError that caused the fallback is kept for --version.
"""

from sympdec import _kernels_py

try:
    import sympdec._speedups as _speedups  # type: ignore[import-not-found]
except ImportError as exc:
    matmul_num, BACKEND, IMPORT_ERROR = _kernels_py.matmul_num, "python", str(exc)
else:
    matmul_num, BACKEND, IMPORT_ERROR = _speedups.matmul_num, "compiled", None


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return BACKEND


def describe() -> str:
    """The active backend, and for the fallback the ImportError that chose it."""
    if IMPORT_ERROR is None:
        return backend()
    return f"{backend()}; compiled kernel not imported: {IMPORT_ERROR}"
