"""The process's BLAS and LAPACK: OpenBLAS thread counts, through ctypes, and
scipy's LAPACK routines, loaded on first use.

The GP fit is a chain of thousands of small (n <= 200) sequential Cholesky
factorizations; on those, a BLAS thread pool costs more in hand-offs than it
gives back. `single_thread` runs a block with every OpenBLAS copy on one
thread, then sets every copy back to the process's one count, so batched
work outside the block (the posterior over many candidates) keeps its
threads. The count starts as the first copy's own count, and only
`set_threads` changes it.

Copies are found through /proc/self/maps: numpy and scipy wheels each bundle
their own, and a system OpenBLAS may be mapped under a generic name (Debian:
.../openblas-pthread/libblas.so.3). The lookup runs on first use and again
when `lapack` maps scipy's copy, and sets each new copy to the count;
`single_thread` loads LAPACK before it pins. Where no OpenBLAS (or no /proc)
is found, the thread functions are no-ops.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys

# Setter names in numpy's (ILP64) copy, scipy's copy and a system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)

# What the process-wide OpenBLAS state needs kept: (getter, setter) by path of
# each copy found (None before the first lookup), and the one count of every
# copy outside `single_thread` (None until a copy is found).
_found: dict | None = None
_count: int | None = None


def _openblas_paths(maps_lines) -> list[str]:
    """Mapped shared objects with "openblas" anywhere in their path."""
    paths = set()
    for line in maps_lines:
        path = line.split(maxsplit=5)[-1].strip()
        if path.startswith("/") and ".so" in path and "openblas" in path.lower():
            paths.add(path)
    return sorted(paths)


def _control(path: str):
    """(getter, setter) of the OpenBLAS at path; None when it has neither."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in _SETTERS:
        setter = getattr(lib, name, None)
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter, setter
    return None


def _discover() -> None:
    """Look up the mapped OpenBLAS copies again, and set each one not found
    before to the count."""
    global _found, _count
    before = _found or {}
    try:
        with open("/proc/self/maps") as fh:
            paths = _openblas_paths(fh)
    except OSError:
        paths = []
    _found = {path: control for path in paths if (control := _control(path))}
    if _count is None and _found:
        _count = next(iter(_found.values()))[0]()
    for path, (_, set_) in _found.items():
        if path not in before:
            set_(_count)


def _controls() -> tuple:
    """(getter, setter) per found OpenBLAS library, in path order."""
    if _found is None:
        _discover()
    return tuple(_found.values())


def get_threads() -> list[int]:
    """Current thread count of each found OpenBLAS (empty when none is found)."""
    return [get() for get, _ in _controls()]


def _set_all(n: int) -> None:
    for _, set_ in _controls():
        set_(n)


def set_threads(n: int) -> None:
    """Set the count, and every OpenBLAS copy, found now or later, to n threads."""
    global _count
    _count = n
    _set_all(n)


@functools.cache
def lapack():
    """scipy's f2py LAPACK extension, scipy.linalg._flapack, loaded on the first call.

    Only the extension loads, not the scipy.linalg package, whose `__init__`
    imports some 310 more modules; `scipy.linalg.lapack` re-exports the same
    routine objects. A module of that name already imported (once anything
    has imported scipy.linalg) is reused. The load maps scipy's own OpenBLAS,
    so the OpenBLAS copies are looked up again.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy  # the top-level package only, so that its distributor init runs

        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [directory])
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}",
                              name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    _discover()
    return module


@contextlib.contextmanager
def single_thread():
    """Run the block with every OpenBLAS copy, scipy's LAPACK one included, on
    one thread, then set every copy back to the count."""
    lapack()
    _set_all(1)
    try:
        yield
    finally:
        _set_all(_count)
