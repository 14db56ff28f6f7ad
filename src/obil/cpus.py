"""How many CPUs obil may use, and one OpenBLAS thread per obil thread.

The seed pool (`experiment.run_experiment`) and the row tiles of a batch's
MC-dropout passes (`mlp.mc_dropout_outputs`) both size their workers by
`usable_cpus()`, and both cap OpenBLAS at one thread first: a second
OpenBLAS thread behind each worker would only compete with the other
workers for the same CPUs.  For the same reason a seed worker's MC row
tiles use only its share of the CPUs.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path


_share = None  # set by limit_cpus in a seed-pool worker


def usable_cpus() -> int:
    """CPUs this process may fill: those it may run on, at most its share."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus if _share is None else min(cpus, _share)


def limit_cpus(share: int):
    """Make usable_cpus() report at most `share` from now on.

    A seed-pool worker shares the CPUs with the other workers; threads of
    its own beyond its share would only compete with them.
    """
    global _share
    _share = share


@functools.cache
def one_blas_thread():
    """Cap the OpenBLAS that numpy loaded, if it is OpenBLAS, at one thread.

    Runs once per process; a forked child keeps its parent's cap.
    """
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return
    libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                return
