"""Spans around the calls into parlmc's layers, recorded from outside parlmc.

The tracer swaps public functions at the module attributes through which
parlmc's sampler reaches them, records one span per call (layer, thread,
start, end) and puts the originals back on exit.  Nothing inside parlmc is
edited, so a traced run must end in the same state, bit for bit, as an
untraced run with the same seed.

A span's self time is its duration minus the union of its children's
intervals.  Children on the main thread nest; gradient spans run on the
round pool's threads and are children of the round that was open when they
started.  The union, not the sum, is subtracted because gradients of one
round overlap each other.
"""

from __future__ import annotations

import bisect
import threading
import tracemalloc
from collections import defaultdict
from time import perf_counter

import parlmc.noise
import parlmc.potentials
import parlmc.samplers

ROOT = "samplers.run"
ROUND = "parallel.round"
GRADIENT = "potentials.gradient"
DRAW = "noise.draw"
# Draws of one workload all have the same shapes, so the allocation peak is
# read on the first few only; tracemalloc slows every allocation it sees.
PEAK_DRAWS = 20

# (owner, attribute, layer): where parlmc's sampler looks each function up.
HOOKS = (
    (parlmc.samplers, "run", ROOT),
    (parlmc.noise, "stream", "noise.stream"),
    (parlmc.noise, "draw_midpoints", "noise.midpoints"),
    (parlmc.noise, "draw_vanilla_noise", DRAW),
    (parlmc.noise, "draw_kinetic_noise", DRAW),
    (parlmc.noise, "vanilla_coefficient_matrix", "noise.coeff"),
    (parlmc.noise, "kinetic_coefficient_matrix", "noise.coeff"),
    (parlmc.noise, "kinetic_velocity_weight", "noise.coeff"),
    (parlmc.samplers, "execute_round", ROUND),
    (parlmc.samplers, "weighted_prefix_combine", "parallel.combine"),
    (parlmc.potentials.Potential, "gradient", GRADIENT),
)


class Tracer:
    """Context manager that records spans while its hooks are installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.draw_peak_bytes = 0
        self._peak_draws_left = PEAK_DRAWS
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str):
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, threading.get_ident(), start, perf_counter()))

        return traced

    def _wrap_draw(self, fn):
        """Noise draws also report their tracemalloc peak (numpy reports its buffers)."""
        plain = self.wrap(fn, DRAW)

        def traced(*args, **kwargs):
            if self._peak_draws_left <= 0:
                return plain(*args, **kwargs)
            self._peak_draws_left -= 1
            tracemalloc.start()
            try:
                return plain(*args, **kwargs)
            finally:
                self.draw_peak_bytes = max(self.draw_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced

    def __enter__(self):
        for owner, attr, layer in HOOKS:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap_draw(original) if layer == DRAW else self.wrap(original, layer))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        return False


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans, main_thread: int) -> dict[str, dict[str, float]]:
    """Per layer: call count, summed duration ("busy") and summed self time."""
    main = sorted((s for s in spans if s[1] == main_thread), key=lambda s: (s[2], -s[3]))
    workers = [s for s in spans if s[1] != main_thread]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    stack: list[int] = []
    for index, (_, _, start, end) in enumerate(main):
        while stack and main[stack[-1]][3] < end:
            stack.pop()
        if stack:
            children[stack[-1]].append((start, end))
        stack.append(index)
    rounds = [i for i, s in enumerate(main) if s[0] == ROUND]
    round_starts = [main[i][2] for i in rounds]
    for layer, _, start, end in workers:
        pos = bisect.bisect_right(round_starts, start) - 1
        if pos < 0 or main[rounds[pos]][3] < start:
            raise ValueError(f"{layer} span on a pool thread outside every round")
        children[rounds[pos]].append((start, end))

    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "busy": 0.0, "self": 0.0})
    for index, (layer, _, start, end) in enumerate(main):
        entry = totals[layer]
        entry["count"] += 1
        entry["busy"] += end - start
        entry["self"] += (end - start) - _union_length(children.get(index, []))
    for layer, _, start, end in workers:
        entry = totals[layer]
        entry["count"] += 1
        entry["busy"] += end - start
        entry["self"] += end - start
    return totals
