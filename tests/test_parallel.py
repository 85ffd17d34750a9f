"""Round execution: ordered results, ceil accounting, the width budget and the shared pool."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parlmc
from parlmc import (
    ConfigurationError,
    QuadraticPotential,
    RoundExecutionError,
    SyntheticDelayPotential,
    execute_round,
)


class PooledQuadratic(QuadraticPotential):
    """The quadratic oracle, declared worth the pool, so its rounds exercise the pool's blocks."""

    pooled = True


@pytest.fixture
def pooled_quad_2d():
    return PooledQuadratic.from_diagonal([1.0, 10.0], mean=[1.0, -0.5])


class TestExecuteRound:
    def test_identical_points_identical_gradients(self, quad_2d):
        grads = execute_round(np.stack([np.array([0.3, -0.7])] * 4), quad_2d)
        for g in grads[1:]:
            assert np.array_equal(g, grads[0])

    def test_order_preserved_under_pool(self, quad_2d, pooled_quad_2d):
        rng = np.random.default_rng(8)
        points = [rng.standard_normal(2) for _ in range(8)]
        expected = [quad_2d.gradient(p) for p in points]
        grads = execute_round(np.stack(points), pooled_quad_2d, width=4)
        for got, want in zip(grads, expected):
            assert np.array_equal(got, want)

    def test_rounds_consumed_ceiling(self, quad_2d):
        before = quad_2d.counter.sequential_rounds
        execute_round(np.zeros((8, 2)), quad_2d, width=4)
        assert quad_2d.counter.sequential_rounds - before == 2
        before = quad_2d.counter.sequential_rounds
        execute_round(np.zeros((8, 2)), quad_2d, width=3)
        assert quad_2d.counter.sequential_rounds - before == 3

    def test_single_point_round(self, quad_2d):
        before = quad_2d.counter.sequential_rounds
        grads = execute_round(np.stack([np.array([1.0, 1.0])]), quad_2d)
        assert quad_2d.counter.sequential_rounds - before == 1
        assert np.array_equal(grads[0], quad_2d.gradient(np.array([1.0, 1.0])))

    def test_counter_updates(self, quad_2d):
        quad_2d.counter.reset()
        execute_round(np.zeros((6, 2)), quad_2d, width=2)
        assert quad_2d.counter.total_gradient_evals == 6
        assert quad_2d.counter.sequential_rounds == 3

    def test_worker_failure_reports_index(self, quad_2d):
        points = [np.zeros(2), np.array([np.inf, 0.0]), np.zeros(2)]
        with pytest.raises(RoundExecutionError) as err:
            execute_round(np.stack(points), quad_2d, width=3)
        assert err.value.index == 1

    def test_lowest_bad_slot_reported_across_blocks(self, pooled_quad_2d, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "2")
        points = np.zeros((8, 2))
        points[5, 0], points[1, 1] = np.nan, np.inf
        with pytest.raises(RoundExecutionError) as err:
            execute_round(points, pooled_quad_2d, width=8)
        assert err.value.index == 1

    def test_failing_block_stops_and_lowest_slot_is_reported(self, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "2")  # two blocks: slots 0-3 on the caller, 4-7 on the pool

        class FailingPotential(SyntheticDelayPotential):
            def __init__(self, dimension):
                super().__init__(dimension, 0.0)
                self.seen = []

            def _gradient(self, theta):
                self.seen.append(int(theta[0]))
                if theta[0] in (1.0, 5.0):
                    raise ValueError("oracle failure")
                return super()._gradient(theta)

        pot = FailingPotential(2)
        with pytest.raises(RoundExecutionError) as err:
            execute_round(np.repeat(np.arange(8.0)[:, None], 2, axis=1), pot, width=8)
        assert err.value.index == 1
        assert sorted(pot.seen) == [0, 1, 4, 5]

    def test_empty_round_rejected(self, quad_2d):
        with pytest.raises(ConfigurationError):
            execute_round(np.zeros((0, 2)), quad_2d)

    def test_pool_speedup_on_sleeping_oracle(self):
        pot = SyntheticDelayPotential(2, 0.002)
        points = np.zeros((8, 2))
        execute_round(points, pot, width=8)  # start the pool's threads untimed
        start = time.perf_counter()
        execute_round(points, pot, width=1)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        execute_round(points, pot, width=8)
        pooled = time.perf_counter() - start
        assert pooled < serial / 2

    def test_width_caps_gradients_in_flight(self, monkeypatch):
        monkeypatch.delenv("PARLMC_WORKERS", raising=False)
        execute_round(np.zeros((37, 2)), SyntheticDelayPotential(2, 0.0), width=37)  # grow the pool past 3

        class CountingPotential(SyntheticDelayPotential):
            def __init__(self, dimension, delay_seconds):
                super().__init__(dimension, delay_seconds)
                self.lock, self.in_flight, self.peak = threading.Lock(), 0, 0

            def _gradient(self, theta):
                with self.lock:
                    self.in_flight += 1
                    self.peak = max(self.peak, self.in_flight)
                try:
                    return super()._gradient(theta)
                finally:
                    with self.lock:
                        self.in_flight -= 1

        for width, cap in ((3, None), (8, "2")):  # the second: a capped round on the grown pool
            if cap is not None:
                monkeypatch.setenv("PARLMC_WORKERS", cap)
            pot = CountingPotential(2, 0.005)
            execute_round(np.zeros((8, 2)), pot, width=width)
            assert pot.peak <= min(width, int(cap or width))
            assert pot.counter.sequential_rounds == math.ceil(8 / width)

    def test_worker_env_cap_changes_threads_not_accounting(self, quad_2d, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "1")
        quad_2d.counter.reset()
        execute_round(np.ones((4, 2)), quad_2d, width=4)
        assert quad_2d.counter.sequential_rounds == 1  # accounting still reflects the requested width
        assert quad_2d.counter.total_gradient_evals == 4
        monkeypatch.setenv("PARLMC_WORKERS", "zero")
        with pytest.raises(ConfigurationError):
            execute_round(np.ones((4, 2)), quad_2d, width=4)

    @pytest.mark.parametrize("bad", ["zero", "0", " "])
    def test_an_invalid_cap_raises_on_every_round(self, quad_2d, monkeypatch, bad):
        # A parsed cap may be remembered, but the variable is read on every round: a value that turns bad
        # after a good one raises, and so does every later round while it stays bad.
        one_chain = parlmc.SamplerConfig(h=0.01, n=1, R=4, Q=3, seed=7)
        state = parlmc.ChainState(theta=np.array([0.3, -0.2]))
        for run_once in (lambda: execute_round(np.ones((4, 2)), quad_2d, width=4),
                         lambda: parlmc.step("prlmc", state, one_chain, quad_2d)):
            monkeypatch.setenv("PARLMC_WORKERS", "2")
            run_once()
            run_once()  # the good value, read again
            monkeypatch.setenv("PARLMC_WORKERS", bad)
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="PARLMC_WORKERS"):
                    run_once()
            monkeypatch.setenv("PARLMC_WORKERS", "1")
            run_once()
            monkeypatch.setenv("PARLMC_WORKERS", bad)
            with pytest.raises(ConfigurationError, match="PARLMC_WORKERS"):
                run_once()

    def test_first_block_runs_on_the_caller(self, monkeypatch):
        monkeypatch.delenv("PARLMC_WORKERS", raising=False)

        class ThreadRecordingPotential(SyntheticDelayPotential):
            def __init__(self, dimension):
                super().__init__(dimension, 0.0)
                self.threads = {}

            def _gradient(self, theta):
                self.threads[int(theta[0])] = threading.get_ident()
                return super()._gradient(theta)

        caller = threading.get_ident()
        points = np.repeat(np.arange(8.0)[:, None], 2, axis=1)
        pot = ThreadRecordingPotential(2)
        execute_round(points, pot, width=4)  # blocks: slots 0-1 (caller), 2-3, 4-5, 6-7
        assert [pot.threads[i] == caller for i in range(8)] == [True] * 2 + [False] * 6

        execute_round(points, pot, width=8)  # an uncapped pool of 7 threads
        monkeypatch.setenv("PARLMC_WORKERS", "1")
        pot.threads.clear()
        execute_round(points, pot, width=8)
        assert all(pot.threads[i] == caller for i in range(8))

    def test_one_pool_across_widths(self, pooled_quad_2d, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "2")  # a capped round first: it runs on at most two threads
        execute_round(np.zeros((4, 2)), pooled_quad_2d)
        monkeypatch.delenv("PARLMC_WORKERS")
        for width in (24, 37, 4):
            execute_round(np.zeros((width, 2)), pooled_quad_2d)

        def alive():
            return sum(t.name.startswith("parlmc-round") for t in threading.enumerate())

        deadline = time.monotonic() + 10.0
        while alive() > 37 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert alive() <= 37

    def test_concurrent_rounds_of_different_widths(self, quad_2d, pooled_quad_2d, monkeypatch):
        monkeypatch.delenv("PARLMC_WORKERS", raising=False)
        rng = np.random.default_rng(11)
        points = rng.standard_normal((9, 2))
        expected = [quad_2d.gradient(p) for p in points]
        errors = []

        def caller(offset):
            try:
                for i in range(30):
                    R = 2 + (offset + i) % 8
                    got = execute_round(points[:R], pooled_quad_2d, width=R - i % 2)
                    if not all(np.array_equal(g, e) for g, e in zip(got, expected)):
                        errors.append(f"wrong gradients at caller {offset}, round {i}")
            except Exception as exc:  # any failure is reported by the assertion below
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _set_cap(mp, cap):
    if cap is None:
        mp.delenv("PARLMC_WORKERS", raising=False)
    else:
        mp.setenv("PARLMC_WORKERS", cap)


@st.composite
def _rounds(draw):
    """A pooled oracle and a round on it: R in 1..12, width None or 1..R, the cap, 1..4 chains of dimension 1..4."""
    R, C, p = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    width = draw(st.none() | st.integers(1, R))
    cap = draw(st.sampled_from([None, "1", "2", "3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((p, p))
    pot = PooledQuadratic(m @ m.T + p * np.eye(p), mean=rng.standard_normal(p))
    cells = draw(st.sets(st.tuples(st.integers(0, R - 1), st.integers(0, C - 1), st.integers(0, p - 1)), min_size=1))
    return pot, rng.standard_normal((R, C, p)), width, cap, sorted(cells)


class TestRoundProperties:
    """Drawn shapes, widths and caps: a pooled round keeps its bits and accounting and names its lowest bad slot."""

    @_PROPERTY
    @given(_rounds())
    def test_any_width_and_cap_gives_the_serial_bits(self, drawn):
        pot, points, width, cap, _ = drawn
        R = len(points)
        want = execute_round(points, pot, width=1)
        pot.counter.reset()
        with pytest.MonkeyPatch.context() as mp:
            _set_cap(mp, cap)
            got = execute_round(points, pot, width)
        assert np.array_equal(got, want)
        assert pot.counter.snapshot() == {"gradient_evals": R, "sequential_rounds": math.ceil(R / (width or R))}

    @_PROPERTY
    @given(_rounds())
    def test_the_lowest_failing_slot_is_named(self, drawn):
        pot, points, width, cap, cells = drawn
        marked = points.copy()
        marked[tuple(np.transpose(cells))] = 1e300  # finite, so each marked slot fails in the oracle, on its block

        def failing(theta, plain=pot._gradient):
            if (theta == 1e300).any():
                raise ValueError("marked cell")
            return plain(theta)

        nan = points.copy()
        nan[tuple(np.transpose(cells))] = np.nan  # fails validation, before any block runs
        with pytest.MonkeyPatch.context() as mp:
            _set_cap(mp, cap)
            with pytest.raises(RoundExecutionError) as bad_point:
                execute_round(nan, pot, width)
            mp.setattr(pot, "_gradient", failing)
            with pytest.raises(RoundExecutionError) as bad_call:
                execute_round(marked, pot, width)
        assert bad_point.value.index == bad_call.value.index == cells[0][0]


class RecordingPotential(QuadraticPotential):
    """A quadratic oracle that records the shape and thread of every physical call."""

    def __init__(self):
        super().__init__(np.diag([1.0, 10.0]))
        self.calls = []

    def _gradient(self, theta):
        self.calls.append((theta.shape, threading.get_ident()))
        return super()._gradient(theta)


class TestBroadcastRound:
    """A round whose slots are one memory is one point: a pure oracle evaluates it once."""

    @pytest.mark.parametrize("width", [None, 3])
    @pytest.mark.parametrize("R", [1, 4])
    def test_one_call_on_the_caller_and_nominal_accounting(self, monkeypatch, R, width):
        monkeypatch.delenv("PARLMC_WORKERS", raising=False)
        theta = np.random.default_rng(5).standard_normal((6, 2))
        pot = RecordingPotential()
        grads = execute_round(np.broadcast_to(theta, (R, 6, 2)), pot, width)
        assert pot.calls == [((6, 2), threading.get_ident())]
        assert pot.counter.snapshot() == {"gradient_evals": R, "sequential_rounds": math.ceil(R / (width or R))}
        assert grads.shape == (R, 6, 2) and not grads.flags.writeable
        expected = QuadraticPotential(np.diag([1.0, 10.0]))._gradient(theta)
        assert all(np.array_equal(g, expected) for g in grads)

    @pytest.mark.parametrize("width", [None, 3])
    def test_equal_values_in_separate_memory_are_evaluated_per_slot(self, width):
        theta = np.random.default_rng(6).standard_normal((6, 2))
        pot = RecordingPotential()
        grads = execute_round(np.repeat(theta[None], 4, axis=0), pot, width)
        assert len(pot.calls) == 4
        assert grads.flags.writeable
        assert pot.counter.total_gradient_evals == 4

    def test_nonfinite_point_names_slot_0(self):
        theta = np.zeros((6, 2))
        theta[3, 1] = np.nan
        pot = RecordingPotential()
        with pytest.raises(RoundExecutionError) as err:
            execute_round(np.broadcast_to(theta, (4, 6, 2)), pot, width=2)
        assert err.value.index == 0
        assert pot.calls == []


class TestRoundOut:
    """execute_round writes a round's gradients into the caller's array."""

    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_out_is_filled_and_returned(self, width, quad_2d):
        points = np.random.default_rng(7).standard_normal((5, 4, 2))
        want = execute_round(points, quad_2d, width)
        out = np.full(points.shape, np.nan)
        got = execute_round(points, quad_2d, width, out=out)
        assert got is out
        assert np.array_equal(out, want)

    def test_broadcast_round_ignores_out(self, quad_2d):
        theta = np.random.default_rng(8).standard_normal((4, 2))
        out = np.full((3, 4, 2), np.nan)
        got = execute_round(np.broadcast_to(theta, (3, 4, 2)), quad_2d, out=out)
        assert not np.shares_memory(got, out) and np.isnan(out).all()
        assert all(np.array_equal(g, quad_2d.gradient(theta)) for g in got)

    def test_misshaped_out_is_a_configuration_error(self, quad_2d):
        with pytest.raises(ConfigurationError):
            execute_round(np.zeros((3, 4, 2)), quad_2d, out=np.empty((3, 2)))

    def test_quadratic_gradients_do_not_share_the_oracle_scratch(self, quad_2d):
        a, b = np.ones((4, 2)), np.zeros((4, 2))
        ga = quad_2d._gradient(a)
        kept = ga.copy()
        gb = quad_2d._gradient(b)
        assert np.array_equal(ga, kept) and not np.shares_memory(ga, gb)
        assert np.array_equal(gb, (b - quad_2d.mean) @ quad_2d.precision)


_INLINE_ROUNDS = """
import threading
import numpy as np
from parlmc import QuadraticPotential, execute_round

calls = []

class RecordingPotential(QuadraticPotential):
    def _gradient(self, theta):
        calls.append(threading.get_ident())
        return super()._gradient(theta)

pot = RecordingPotential(np.diag([1.0, 10.0]))
points = np.random.default_rng(9).standard_normal((8, 5, 2))
for width in (1, 4, 8):
    got = execute_round(points, pot, width)
    assert np.array_equal(got, QuadraticPotential(np.diag([1.0, 10.0]))._gradient(points)), width
print(len(calls), set(calls) == {threading.get_ident()},
      sum(t.name.startswith("parlmc-round") for t in threading.enumerate()))
"""


_NESTED_ROUNDS = """
import numpy as np
from parlmc import ChainState, SamplerConfig, SyntheticDelayPotential, step

cfg = SamplerConfig(h=0.05, n=1, R=2, Q=2, seed=91)

class NestingPotential(SyntheticDelayPotential):
    def _gradient(self, theta):
        inner = step("prlmc", ChainState(theta=theta.copy()), cfg, SyntheticDelayPotential(theta.shape[-1], 0.0))
        return super()._gradient(theta) + 0.5 * inner.theta

theta = np.random.default_rng(92).standard_normal((3, 2))
print(step("prlmc", ChainState(theta=theta), cfg, NestingPotential(2, 0.0)).theta.tobytes().hex())
"""


def _fresh_python(script, workers=None, timeout=120):
    """Stdout of `script` in a fresh interpreter (no pool left by an earlier test) at the cap `workers`."""
    env = {k: v for k, v in os.environ.items() if k != "PARLMC_WORKERS"}
    if workers is not None:
        env["PARLMC_WORKERS"] = workers
    src = str(Path(parlmc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + ("" if not env.get("PYTHONPATH") else ":" + env["PYTHONPATH"])
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestWhichOraclesPool:
    """Only an oracle that declares the pool hands slots to it."""

    def test_quadratic_rounds_run_on_the_caller_and_start_no_pool(self):
        assert _fresh_python(_INLINE_ROUNDS).split() == ["24", "True", "0"]

    @pytest.mark.parametrize("workers", [None, "2"])
    def test_a_round_nested_in_a_pooled_round_finishes(self, workers):
        # The outer round's block 1 runs on a pool thread, and its oracle's step submits rounds from there:
        # a bounded pool would queue them behind the block that waits for them.
        assert _fresh_python(_NESTED_ROUNDS, workers, timeout=60) == _fresh_python(_NESTED_ROUNDS, "1", timeout=60)

    def test_uncapped_logistic_round_uses_the_pool(self, logistic_small, monkeypatch):
        monkeypatch.delenv("PARLMC_WORKERS", raising=False)
        threads, plain = {}, logistic_small._gradient

        def recording(theta):
            threads[int(round(theta[0] * 10))] = threading.get_ident()
            return plain(theta)

        monkeypatch.setattr(logistic_small, "_gradient", recording)
        points = np.arange(4.0)[:, None] / 10 + np.zeros((4, 3))
        execute_round(points, logistic_small, width=4)  # blocks: slot 0 on the caller, 1-3 on the pool
        assert [threads[i] == threading.get_ident() for i in range(4)] == [True, False, False, False]
