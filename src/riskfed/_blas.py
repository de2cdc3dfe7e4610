"""Pin the OpenBLAS libraries loaded in this process to one thread, and
overlap two independent BLAS calls on one helper thread.

A threaded OpenBLAS may split a product into blocks by its thread count
and sum them in another order, so the bytes of a run would follow the
host's ``OPENBLAS_NUM_THREADS``. numpy's and scipy's wheels each bundle
their own OpenBLAS; both are pinned. Another BLAS is left as it is.

``both`` runs two whole calls at the same time, one on the caller's
thread and one on a single helper thread. Each call is the same
single-threaded product, on the same operands, into its own output, as
it would be in sequence, so no sum changes its order and no byte of a
run changes; on one CPU the two calls simply interleave.
"""

from __future__ import annotations

import contextvars
import ctypes
from concurrent.futures import ThreadPoolExecutor, wait

# scipy-openblas builds of numpy (64-bit ints) and scipy, then plain OpenBLAS
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads")

# the one helper thread; ThreadPoolExecutor starts it at the first submit
_helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="riskfed-blas")


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


def both(main, side):
    """(main(), side()), with side run on the helper thread meanwhile.

    side runs in a copy of the caller's context, so numpy's ``errstate``
    (a context variable) holds there too. An exception from side is
    raised here; when main raises, side is waited for first, so no call
    outlives this one.
    """
    future = _helper.submit(contextvars.copy_context().run, side)
    try:
        first = main()
    except BaseException:
        wait((future,))
        raise
    return first, future.result()
