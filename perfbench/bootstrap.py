"""Process settings shared by every benchmark process.

Call :func:`configure` before numpy is imported: the BLAS thread count is
read once, when numpy loads.  The round pool is capped at the number of CPUs
the process may run on and BLAS runs one thread, so a timing measures
parlmc's own work and not oversubscription of the scheduler.

A timed process then runs on one CPU (:func:`pin_to_one_cpu`), still with
that pool.  On a 2-vCPU VM whose host is shared, a round handed across CPUs
waits for the host to wake the other vCPU, and two busy threads get what
CPU the host spares: such timings followed the host, not parlmc (see
README.md, "Threads").
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKERS = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> None:
    """Pin the pool and BLAS threads and put the checkout's ``src`` first on the path."""
    os.environ["PARLMC_WORKERS"] = str(WORKERS)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts later, on one allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def require_checkout_build(module) -> None:
    """Refuse to measure a parlmc that was not imported from this checkout."""
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"parlmc was imported from {origin}, not from {SRC}")
