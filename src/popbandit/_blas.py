"""OpenBLAS thread count, read and set through ctypes.

The GP fit is a chain of thousands of small (n <= 200) sequential Cholesky
factorizations; on those, a BLAS thread pool costs more in hand-offs than it
gives back. `single_thread` runs a block on one thread and restores the
previous counts afterwards, so larger batched work outside the block (the
posterior over many candidates) keeps its threads.

Every OpenBLAS copy the process has mapped is found through /proc/self/maps:
numpy and scipy wheels each bundle their own, and a system OpenBLAS may be
mapped under a generic name (Debian: .../openblas-pthread/libblas.so.3). The
lookup runs on first use and is cached; where no OpenBLAS (or no /proc) is
found, everything here is a no-op.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools

# Setter names in numpy's (ILP64) copy, scipy's copy and a system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _openblas_paths(maps_lines) -> list[str]:
    """Mapped shared objects with "openblas" anywhere in their path."""
    paths = set()
    for line in maps_lines:
        path = line.split(maxsplit=5)[-1].strip()
        if path.startswith("/") and ".so" in path and "openblas" in path.lower():
            paths.add(path)
    return sorted(paths)


@functools.cache
def _controls() -> tuple:
    """(getter, setter) per loaded OpenBLAS library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = _openblas_paths(fh)
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((getter, setter))
                break
    return tuple(controls)


def get_threads() -> list[int]:
    """Current thread count of each loaded OpenBLAS (empty when none is found)."""
    return [get() for get, _ in _controls()]


def set_threads(counts) -> None:
    """Set every loaded OpenBLAS to `counts` (an int, or one int per library)."""
    controls = _controls()
    if isinstance(counts, int):
        counts = [counts] * len(controls)
    for (_, set_), n in zip(controls, counts):
        set_(n)


@contextlib.contextmanager
def single_thread():
    """Run the block on one OpenBLAS thread, then restore the previous counts."""
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
