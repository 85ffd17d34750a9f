"""Round-based parallel gradient execution with deterministic reduction.

One *round* evaluates R gradients that may run concurrently; rounds are the
unit of time complexity.  A round goes in with the public (..., R, p) shape
and its gradients come back in the same shape, slot r at [..., r, :].  The
engine stores a round slot-major, (R, ..., p) behind that shape, so slot r is
one contiguous (..., p) block like theta; ``slot_major`` and ``round_view``
switch between the two views without a copy.  The gradients are allocated
slot-major and returned through ``round_view``.

A round is validated once, and each slot is one ``potential._gradient`` call
on its block; the counter records R evaluations and ceil(R / width) rounds
once.  A worker budget (``width``) below R splits the round into
ceil(R / width) waves, and each pool worker takes one contiguous block of a
wave's slots.  Each gradient is written to its slot by index, never by
completion order, so trajectories are bitwise independent of scheduling.

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

from .errors import ConfigurationError, DomainError, RoundExecutionError

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


def slot_major(a: np.ndarray) -> np.ndarray:
    """The slot-major (R, ..., p) view of a (..., R, p) array (np.moveaxis costs several us a call)."""
    n = a.ndim
    return a.transpose((n - 2, *range(n - 2), n - 1))


def round_view(a: np.ndarray) -> np.ndarray:
    """The public (..., R, p) view of a slot-major (R, ..., p) array; the inverse of `slot_major`."""
    n = a.ndim
    return a.transpose((*range(1, n - 1), 0, n - 1))


def _run_block(fn, slots, grads, block):
    """Evaluate slots[i] into grads[i] for i in `block`; stop at the first failure and return (i, exc)."""
    for i in block:
        try:
            grads[i] = fn(slots[i])
        except Exception as exc:
            return i, exc
    return None


def _submit_blocks(fn, slots, grads, blocks, workers: int, cap: int | None) -> list[Future]:
    """Submit one wave's slot blocks to the shared pool, resized to `workers` threads first.

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
        return [_pool.submit(_run_block, fn, slots, grads, block) for block in blocks]


def _fail(i: int, exc: Exception):
    raise RoundExecutionError(f"gradient failed at round slot {i}: {exc}", index=i) from exc


def execute_round(points: np.ndarray, potential, width: int | None = None) -> np.ndarray:
    """Gradients of a (..., R, p) round, slot r at [..., r, :] as in `points`.

    The points are validated once; a failure names the lowest offending slot.
    Each slot is then one `potential._gradient` call on points[..., r, :],
    contiguous when `points` is a slot-major view.  A worker budget `width`
    below R (None means R) runs ceil(R / width) waves.  Updates the
    potential's counter: +R evaluations and +ceil(R / width) sequential rounds.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim < 2 or points.shape[-2] == 0:
        raise ConfigurationError(f"a round needs (..., R, p) points with R >= 1, got shape {points.shape}")
    R = points.shape[-2]
    width = R if width is None else int(width)
    if width < 1:
        raise ConfigurationError(f"parallel width must be >= 1, got {width}")

    slots = slot_major(points)
    try:
        potential._validate(slots)
    except (ConfigurationError, DomainError) as exc:
        # The lowest slot with a non-finite point; a shape error concerns every slot and names slot 0.
        _fail(int(np.argmax(~np.isfinite(slots).reshape(R, -1).all(axis=1))), exc)
    grads = np.empty(slots.shape)
    cap = worker_limit()
    workers = min(width, cap or width, R)
    for wave_start in range(0, R, width):
        n = min(width, R - wave_start)
        k = min(workers, n)
        blocks = [range(wave_start + n * b // k, wave_start + n * (b + 1) // k) for b in range(k)]
        if k > 1:
            futures = _submit_blocks(potential._gradient, slots, grads, blocks, workers, cap)
            failures = [f.result() for f in futures]
        else:
            failures = [_run_block(potential._gradient, slots, grads, blocks[0])]
        failed = [f for f in failures if f is not None]
        if failed:
            _fail(*min(failed, key=lambda f: f[0]))
    potential.counter.add_evals(R)
    potential.counter.add_rounds(math.ceil(R / width))
    return round_view(grads)
