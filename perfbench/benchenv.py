"""Paths and thread pinning shared by the benchmark scripts.

Import this module before anything imports numpy: the BLAS/OpenMP pool
sizes are read once, when numpy loads.  Across-h parallelism of the sweeps
(``LATTICE_DIRAC_THREADS``) is capped at the number of usable CPUs, and the
BLAS/OpenMP pools at one thread, so the two never oversubscribe the CPUs.
"""

from __future__ import annotations

import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

THREAD_ENV = {
    "LATTICE_DIRAC_THREADS": str(NPROC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_threads():
    """Write the thread caps into the environment (again before every CLI run)."""
    os.environ.update(THREAD_ENV)


pin_threads()


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "latticedirac", "cli.py"))


def import_program():
    """Import ``latticedirac.cli`` from the checkout's ``src`` tree."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from latticedirac import cli

    return cli


def machine() -> dict:
    """CPU model, usable CPUs, library versions and thread caps of this run."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": dict(THREAD_ENV),
    }
