"""OpenBLAS thread count, read and set through ctypes.

The GP fit is a chain of thousands of small (n <= 200) sequential Cholesky
factorizations; on those, a BLAS thread pool costs more in hand-offs than it
gives back. `single_thread` runs a block on one thread and restores the
previous counts afterwards, so larger batched work outside the block (the
posterior over many candidates) keeps its threads.

Every OpenBLAS copy the process has mapped is found through /proc/self/maps:
numpy and scipy wheels each bundle their own, and a system OpenBLAS may be
mapped under a generic name (Debian: .../openblas-pthread/libblas.so.3). The
lookup runs on first use; a library load that may map one more copy calls
`discover`, which looks again and gives each new copy the count last passed
to `set_threads` as one int (`gp` does so when it first imports scipy's
LAPACK). Where no OpenBLAS (or no /proc) is found, everything here is a no-op.
"""
from __future__ import annotations

import contextlib
import ctypes

# Setter names in numpy's (ILP64) copy, scipy's copy and a system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)

# What the process-wide OpenBLAS state needs kept: (getter, setter) by path of
# each copy found (None before the first lookup), and the one count last
# passed to set_threads (None after a list of counts).
_found: dict | None = None
_pin: int | None = None


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


def discover() -> None:
    """Look up the mapped OpenBLAS copies again, and set each one not found
    before to the count last passed to `set_threads` as one int, if any."""
    global _found
    before = _found or {}
    try:
        with open("/proc/self/maps") as fh:
            paths = _openblas_paths(fh)
    except OSError:
        paths = []
    _found = {path: control for path in paths if (control := _control(path))}
    if _pin is not None:
        for path, (_, set_) in _found.items():
            if path not in before:
                set_(_pin)


def _controls() -> tuple:
    """(getter, setter) per found OpenBLAS library, in path order."""
    if _found is None:
        discover()
    return tuple(_found.values())


def get_threads() -> list[int]:
    """Current thread count of each found OpenBLAS (empty when none is found)."""
    return [get() for get, _ in _controls()]


def set_threads(counts) -> None:
    """Set every found OpenBLAS to `counts`: one int, which copies found later
    also get, or one int per library in `get_threads` order."""
    global _pin
    controls = _controls()
    if isinstance(counts, int):
        _pin = counts
        counts = [counts] * len(controls)
    elif len(counts) != len(controls):
        raise ValueError(f"got {len(counts)} thread counts for {len(controls)} OpenBLAS "
                         "libraries")
    else:
        _pin = None
    for (_, set_), n in zip(controls, counts):
        set_(n)


@contextlib.contextmanager
def single_thread():
    """Run the block on one OpenBLAS thread, then restore the previous counts
    (and the count that copies found later get)."""
    global _pin
    before, pin = get_threads(), _pin
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
        _pin = pin
