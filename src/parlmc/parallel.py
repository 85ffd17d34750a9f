"""Round-based parallel gradient execution with deterministic reduction.

One *round* evaluates R gradients that may run concurrently; rounds are the
unit of time complexity.  A round is one slot-major (R, ..., p) array, slot r
at [r], a contiguous (..., p) block like theta, and its gradients come back
in the same shape, into a caller's array (the step's workspace) if given.

A round is validated once, and each slot is one ``potential._gradient`` call
on its block; the counter records R evaluations and ceil(R / width) rounds
once.  The round is split into k = min(width, cap, R) contiguous blocks of
slots: block 0 runs on the calling thread and blocks 1..k-1 on the shared
pool, so at most k <= width gradients are in flight; an oracle whose
``pooled`` is false (the quadratic, as cheap as the ~20 us handoff to a
worker) runs one block on the caller.  Each gradient is written to its slot
by index, never by completion order, so trajectories are bitwise independent
of scheduling.  Oracles are pure, so a round whose slots are one memory (a
broadcast theta) is one evaluation on the calling thread.

Rounds share one unbounded thread pool that starts a thread only when none
is idle, so a round submitted from a pool thread (a pooled oracle running a
step of its own) never queues behind the block that waits for it; the
``PARLMC_WORKERS`` environment variable (the cap) limits the threads a round
runs on, the caller's included, without changing the accounting.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError, DomainError, RoundExecutionError

_pool = ThreadPoolExecutor(max_workers=sys.maxsize, thread_name_prefix="parlmc-round")  # starts no thread yet


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


def _run_block(fn, slots, grads, block):
    """Evaluate slots[i] into grads[i] for i in `block`; stop at the first failure and return (i, exc)."""
    for i in block:
        try:
            grads[i] = fn(slots[i])
        except Exception as exc:
            return i, exc
    return None


def _repeat_view(a: np.ndarray, n: int) -> np.ndarray:
    """Read-only (n, *a.shape) view of `a` in every slot: stride 0 over one C-contiguous memory (0.5-1 us, against
    3 us for np.broadcast_to, which serves any other input)."""
    if type(a) is not np.ndarray or not a.flags.c_contiguous:
        return np.broadcast_to(a, (n,) + np.shape(a))
    view = np.ndarray((n,) + a.shape, a.dtype, a, 0, (0,) + a.strides)
    view.flags.writeable = False
    return view


def _fail(i: int, exc: Exception):
    raise RoundExecutionError(f"gradient failed at round slot {i}: {exc}", index=i) from exc


def execute_round(points: np.ndarray, potential, width: int | None = None, out=None) -> np.ndarray:
    """Gradients of a slot-major (R, ..., p) round, slot r at [r] as in `points`.

    The points are validated once; a failure names the lowest offending slot.
    Each slot is then one `potential._gradient` call on points[r].  A worker
    budget `width` (None means R) bounds the gradients in flight: the round
    runs as min(width, cap, R) contiguous blocks, the first on the calling
    thread (the only one if ``potential.pooled`` is false: no pool is touched),
    into `out` (floats shaped like `points`) if given, else a new array.
    A round whose slots are one memory (``points.strides[0] == 0``) is validated
    and evaluated once, on the caller, and returns a read-only stride-0
    view of that gradient, ignoring `out`.  The counter gains the nominal +R
    evaluations and +ceil(R / width) sequential rounds either way.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim < 2 or points.shape[0] == 0:
        raise ConfigurationError(f"a round needs (R, ..., p) points with R >= 1, got shape {points.shape}")
    R = points.shape[0]
    width = R if width is None else int(width)
    if width < 1:
        raise ConfigurationError(f"parallel width must be >= 1, got {width}")
    if out is not None and out.shape != points.shape:
        raise ConfigurationError(f"out has shape {out.shape}, the round {points.shape}")

    slots = points[:1] if points.strides[0] == 0 else points  # a pure oracle needs one call per distinct point
    n = len(slots)
    try:
        potential._validate(slots)
    except (ConfigurationError, DomainError) as exc:
        # The lowest slot with a non-finite point; a shape error concerns every slot and names slot 0.
        _fail(int(np.argmax(~np.isfinite(slots).reshape(n, -1).all(axis=1))), exc)
    grads = np.empty(slots.shape) if out is None or slots is not points else out
    cap = worker_limit()
    k = min(width, cap or width, n) if potential.pooled else 1
    if k == 1:
        failed = _run_block(potential._gradient, slots, grads, range(n))
    else:
        blocks = [range(n * b // k, n * (b + 1) // k) for b in range(k)]
        futures = [_pool.submit(_run_block, potential._gradient, slots, grads, block) for block in blocks[1:]]
        failures = [_run_block(potential._gradient, slots, grads, blocks[0])] + [f.result() for f in futures]
        failed = min((f for f in failures if f is not None), key=lambda f: f[0], default=None)
    if failed:
        _fail(*failed)
    potential.counter.add_evals(R)
    potential.counter.add_rounds(math.ceil(R / width))
    return grads if slots is points else _repeat_view(grads[0], R)
