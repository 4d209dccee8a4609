"""One BLAS thread per process unless the environment asks for more.

The surrogate's matrices are tiny (48-wide MLPs on a few hundred rows), so
a second BLAS thread buys no wall time and burns a second core spinning —
and in a sharded run every worker's pool fights every other for the same
cores.  :func:`pin_blas_threads` (called once when :mod:`repro` is
imported) therefore defaults the usual thread variables to ``1``.  Setting
any of ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``
yourself is the override: then nothing here touches the environment.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Optional, Tuple

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: numpy's compiled core, which links the BLAS (numpy >= 2, then 1.x).
_NUMPY_CORES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


def _openblas() -> Optional[Tuple[Any, Any]]:
    """The loaded OpenBLAS's ``(set, get)`` thread functions, or ``None``."""
    core = next((sys.modules[name] for name in _NUMPY_CORES if name in sys.modules), None)
    if core is None:
        return None
    import ctypes

    try:
        library = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                setter = getattr(library, f"{prefix}_set_num_threads{suffix}")
                getter = getattr(library, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def pin_blas_threads() -> None:
    """Default every BLAS to one thread unless a thread variable is set.

    Spawned workers inherit the variables, so they pin when they load
    numpy.  A numpy loaded before this call has already sized its pool, so
    the loaded OpenBLAS is also set to one thread directly (other BLAS
    vendors get the variables only).
    """
    if any(name in os.environ for name in THREAD_VARIABLES):
        return
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    functions = _openblas()
    if functions is not None:
        functions[0](1)


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count; ``None`` when it cannot be read."""
    functions = _openblas()
    return functions[1]() if functions is not None else None
