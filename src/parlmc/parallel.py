"""Round-based parallel gradient execution with deterministic reduction.

One *round* evaluates R gradients that may run concurrently; rounds are the
unit of time complexity.  A worker budget (``parallel_width``) below R splits
the round into ceil(R / width) waves, which is exactly what the accounting
records.  Results land in pre-assigned slots by index, never by completion
order, so trajectories are bitwise independent of scheduling.

Rounds share one thread pool, grown only when a round needs more workers;
the ``PARLMC_WORKERS`` environment variable caps its thread count without
changing the accounting.  The prefix combine is one matmul per round, each
chain's (R, R) @ (R, p) product computed on its own, so results do not depend
on the ensemble size, the worker cap or the thread schedule.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

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


def _submit_wave(fn, points, workers: int, cap: int | None) -> list[Future]:
    """Submit one wave to the shared pool, resized to `workers` threads first.

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
        return [_pool.submit(fn, point) for point in points]


@dataclass
class RoundPlan:
    """R evaluation points for one round plus the worker budget."""

    points: list[np.ndarray]
    parallel_width: int | None = None  # None means unbounded (= R)


@dataclass
class RoundResult:
    """Gradients in slot order plus round accounting."""

    gradients: list[np.ndarray]
    wall_time: float
    rounds_consumed: int


def execute_round(plan: RoundPlan, potential) -> RoundResult:
    """Evaluate all points of a round; output order equals input order.

    Updates the potential's counter: +R evaluations (one per point, via the
    oracle itself) and +ceil(R / parallel_width) sequential rounds.
    """
    R = len(plan.points)
    if R == 0:
        raise ConfigurationError("round plan has no points")
    width = R if plan.parallel_width is None else int(plan.parallel_width)
    if width < 1:
        raise ConfigurationError(f"parallel width must be >= 1, got {width}")
    rounds = math.ceil(R / width)

    start = perf_counter()
    gradients: list[np.ndarray | None] = [None] * R
    cap = worker_limit()
    workers = min(width, cap or width, R)
    for wave_start in range(0, R, width):
        wave = range(wave_start, min(wave_start + width, R))
        points = [plan.points[i] for i in wave]
        futures = _submit_wave(potential.gradient, points, workers, cap) if workers > 1 else None
        for k, i in enumerate(wave):
            try:
                gradients[i] = futures[k].result() if futures else potential.gradient(points[k])
            except Exception as exc:
                raise RoundExecutionError(f"gradient failed at round slot {i}: {exc}", index=i) from exc
    wall = perf_counter() - start
    potential.counter.add_rounds(rounds)
    return RoundResult(gradients=gradients, wall_time=wall, rounds_consumed=rounds)


def weighted_prefix_combine(gradients: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """output[..., r, :] = sum_{j<=r} weights[..., r, j] * gradients[..., j, :].

    `gradients` is the stacked (..., R, p) round and `weights` the (..., R, R)
    lower triangle, batches broadcasting; one matmul, each chain's on its own.
    """
    gradients, weights = np.asarray(gradients, dtype=float), np.asarray(weights, dtype=float)
    if gradients.ndim < 2 or weights.shape[-2:] != gradients.shape[-2:-1] * 2:
        raise ConfigurationError(
            f"weights shape {weights.shape} does not fit stacked gradients of shape {gradients.shape}"
        )
    return np.matmul(weights, gradients)
