"""Round-based parallel gradient execution with deterministic reduction.

One *round* evaluates R gradients that may run concurrently; rounds are the
unit of time complexity.  A round goes in as one chain-major (..., R, p)
array and its gradients come back as one array of the same shape, slot r at
[..., r, :].  A worker budget (``width``) below R splits the round into
ceil(R / width) waves, which is exactly what the accounting records.  Each
gradient is written to its slot by index, never by completion order, so
trajectories are bitwise independent of scheduling.

Rounds share one thread pool, grown only when a round needs more workers;
the ``PARLMC_WORKERS`` environment variable caps its thread count without
changing the accounting.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError, RoundExecutionError

_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def worker_limit() -> int | None:
    """Physical worker cap from the PARLMC_WORKERS environment variable."""
    raw = os.environ.get("PARLMC_WORKERS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"PARLMC_WORKERS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigurationError(f"PARLMC_WORKERS must be >= 1, got {value}")
    return value


def _submit_wave(fn, points, wave, workers: int, cap: int | None) -> list[Future]:
    """Submit one wave's slots to the shared pool, resized to `workers` threads first.

    A pool with fewer threads, or more than the cap, is replaced and shut down
    (its queued work still runs); submitting under the lock closes the gap.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < workers or (cap is not None and _pool_size > cap):
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="parlmc-round")
            _pool_size = workers
        return [_pool.submit(fn, points[..., i, :]) for i in wave]


def execute_round(points: np.ndarray, potential, width: int | None = None) -> np.ndarray:
    """Gradients of a stacked (..., R, p) round, slot r at [..., r, :] as in `points`.

    Each slot is one `potential.gradient` call on its view points[..., r, :];
    a worker budget `width` below R (None means R) runs ceil(R / width) waves.
    Updates the potential's counter: +R evaluations (via the oracle itself)
    and +ceil(R / width) sequential rounds.
    """
    points = np.asarray(points)
    if points.ndim < 2 or points.shape[-2] == 0:
        raise ConfigurationError(f"a round needs (..., R, p) points with R >= 1, got shape {points.shape}")
    R = points.shape[-2]
    width = R if width is None else int(width)
    if width < 1:
        raise ConfigurationError(f"parallel width must be >= 1, got {width}")

    grads = np.empty(points.shape)
    cap = worker_limit()
    workers = min(width, cap or width, R)
    for wave_start in range(0, R, width):
        wave = range(wave_start, min(wave_start + width, R))
        futures = _submit_wave(potential.gradient, points, wave, workers, cap) if workers > 1 else None
        for k, i in enumerate(wave):
            try:
                grads[..., i, :] = futures[k].result() if futures else potential.gradient(points[..., i, :])
            except Exception as exc:
                raise RoundExecutionError(f"gradient failed at round slot {i}: {exc}", index=i) from exc
    potential.counter.add_rounds(math.ceil(R / width))
    return grads
