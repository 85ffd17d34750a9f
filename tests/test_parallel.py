"""Round execution: ordered results, ceil accounting, deterministic reduction."""

import sys
import threading
import time

import numpy as np
import pytest

from parlmc import (
    ConfigurationError,
    RoundExecutionError,
    RoundPlan,
    SyntheticDelayPotential,
    execute_round,
    weighted_prefix_combine,
)


class TestExecuteRound:
    def test_identical_points_identical_gradients(self, quad_2d):
        plan = RoundPlan([np.array([0.3, -0.7])] * 4)
        result = execute_round(plan, quad_2d)
        for g in result.gradients[1:]:
            assert np.array_equal(g, result.gradients[0])

    def test_order_preserved_under_pool(self, quad_2d):
        rng = np.random.default_rng(8)
        points = [rng.standard_normal(2) for _ in range(8)]
        expected = [quad_2d.gradient(p) for p in points]
        result = execute_round(RoundPlan(points, parallel_width=4), quad_2d)
        for got, want in zip(result.gradients, expected):
            assert np.array_equal(got, want)

    def test_rounds_consumed_ceiling(self, quad_2d):
        plan = RoundPlan([np.zeros(2)] * 8, parallel_width=4)
        assert execute_round(plan, quad_2d).rounds_consumed == 2
        plan = RoundPlan([np.zeros(2)] * 8, parallel_width=3)
        assert execute_round(plan, quad_2d).rounds_consumed == 3

    def test_single_point_round(self, quad_2d):
        result = execute_round(RoundPlan([np.array([1.0, 1.0])]), quad_2d)
        assert result.rounds_consumed == 1
        assert np.array_equal(result.gradients[0], quad_2d.gradient(np.array([1.0, 1.0])))

    def test_counter_updates(self, quad_2d):
        quad_2d.counter.reset()
        execute_round(RoundPlan([np.zeros(2)] * 6, parallel_width=2), quad_2d)
        assert quad_2d.counter.total_gradient_evals == 6
        assert quad_2d.counter.sequential_rounds == 3

    def test_worker_failure_reports_index(self, quad_2d):
        points = [np.zeros(2), np.array([np.inf, 0.0]), np.zeros(2)]
        with pytest.raises(RoundExecutionError) as err:
            execute_round(RoundPlan(points, parallel_width=3), quad_2d)
        assert err.value.index == 1

    def test_empty_round_rejected(self, quad_2d):
        with pytest.raises(ConfigurationError):
            execute_round(RoundPlan([]), quad_2d)

    def test_pool_speedup_on_sleeping_oracle(self):
        pot = SyntheticDelayPotential(2, 0.002)
        points = [np.zeros(2)] * 8
        execute_round(RoundPlan(points, parallel_width=8), pot)  # start the pool's threads untimed
        serial = execute_round(RoundPlan(points, parallel_width=1), pot).wall_time
        pooled = execute_round(RoundPlan(points, parallel_width=8), pot).wall_time
        assert pooled < serial / 2

    def test_worker_env_cap_changes_threads_not_accounting(self, quad_2d, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "1")
        quad_2d.counter.reset()
        result = execute_round(RoundPlan([np.ones(2)] * 4, parallel_width=4), quad_2d)
        assert result.rounds_consumed == 1  # accounting still reflects the requested width
        assert quad_2d.counter.total_gradient_evals == 4
        monkeypatch.setenv("PARLMC_WORKERS", "zero")
        with pytest.raises(ConfigurationError):
            execute_round(RoundPlan([np.ones(2)] * 4, parallel_width=4), quad_2d)

    def test_one_pool_across_widths(self, quad_2d, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "2")  # shrink whatever pool earlier tests left
        execute_round(RoundPlan([np.zeros(2)] * 4), quad_2d)
        monkeypatch.delenv("PARLMC_WORKERS")
        for width in (24, 37, 4):
            execute_round(RoundPlan([np.zeros(2)] * width), quad_2d)

        def alive():
            return sum(t.name.startswith("parlmc-round") for t in threading.enumerate())

        deadline = time.monotonic() + 10.0
        while alive() > 37 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert alive() <= 37

    def test_concurrent_rounds_of_different_widths(self, quad_2d, monkeypatch):
        monkeypatch.delenv("PARLMC_WORKERS", raising=False)
        rng = np.random.default_rng(11)
        points = [rng.standard_normal(2) for _ in range(9)]
        expected = [quad_2d.gradient(p) for p in points]
        errors = []

        def caller(offset):
            try:
                for i in range(30):
                    R = 2 + (offset + i) % 8
                    got = execute_round(RoundPlan(points[:R], parallel_width=R - i % 2), quad_2d)
                    if not all(np.array_equal(g, e) for g, e in zip(got.gradients, expected)):
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


class TestWeightedPrefixCombine:
    def test_diagonal_identity(self):
        grads = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        weights = np.eye(3)
        out = weighted_prefix_combine(grads, weights)
        for r in range(3):
            assert np.array_equal(out[..., r, :], grads[..., r, :])

    def test_prefix_sum(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = weighted_prefix_combine(grads, weights)
        assert np.array_equal(out[..., 0, :], [1.0, 0.0])
        assert np.array_equal(out[..., 1, :], [1.0, 1.0])

    def test_zero_weights(self):
        grads = np.ones((2, 3))
        out = weighted_prefix_combine(grads, np.zeros((2, 2)))
        assert np.array_equal(out[..., 0, :], np.zeros(3))
        assert np.array_equal(out[..., 1, :], np.zeros(3))

    def test_batched_weights_broadcast(self):
        grads = np.stack([np.ones((5, 2)), 2 * np.ones((5, 2))], axis=-2)
        weights = np.zeros((5, 2, 2))
        weights[:, 0, 0] = np.arange(5)
        weights[:, 1, 1] = 1.0
        out = weighted_prefix_combine(grads, weights)
        assert np.allclose(out[..., 0, :], np.arange(5)[:, None] * np.ones(2))
        assert np.allclose(out[..., 1, :], 2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_prefix_combine(np.ones((1, 2)), np.zeros((2, 2)))
