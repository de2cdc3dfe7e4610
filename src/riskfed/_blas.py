"""Pin the OpenBLAS libraries loaded in this process to one thread.

A threaded OpenBLAS may split a product into blocks by its thread count
and sum them in another order, so the bytes of a run would follow the
host's ``OPENBLAS_NUM_THREADS``. numpy's and scipy's wheels each bundle
their own OpenBLAS; both are pinned. Another BLAS is left as it is.
"""

from __future__ import annotations

import ctypes

# scipy-openblas builds of numpy (64-bit ints) and scipy, then plain OpenBLAS
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads")


def pin_one_thread() -> None:
    """Set every OpenBLAS found in ``/proc/self/maps`` to one thread, for
    the rest of the process. Without that file, or with no OpenBLAS
    loaded, nothing is pinned and the caller goes on."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SETTERS:
            if hasattr(lib, symbol):
                getattr(lib, symbol)(1)
                break
