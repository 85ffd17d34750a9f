"""Sampler engine: reduction equivalences, scalar oracles, accounting, stability."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from parlmc import (
    ChainState,
    ConfigurationError,
    DivergenceError,
    GaussianSummary,
    PreconditionWarning,
    QuadraticPotential,
    RoundExecutionError,
    SamplerConfig,
    empirical_summary,
    psi,
    run,
    step,
    w2_gaussian,
)
from parlmc import noise as noise_mod
from parlmc import samplers as samplers_mod
from parlmc.samplers import KINDS, KINETIC_KINDS

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def _quad(diag, mean=None):
    return QuadraticPotential.from_diagonal(diag, mean)


def _silent_run(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreconditionWarning)
        return run(*args, **kwargs)


def naive_prlmc_step(theta, h, R, Q, U, xi_mid, xi_full, grad):
    """Literal refinement recursion, no gradient caching: the value oracle."""
    prev = [theta] * R
    for _ in range(1, Q):
        cur = []
        for r in range(R):
            acc = np.zeros_like(theta)
            for j in range(r + 1):
                a = min(1.0 / R, U[r] - j / R)
                acc = acc + a * grad(prev[j])
            cur.append(theta - h * acc + xi_mid[r])
        prev = cur
    total = np.zeros_like(theta)
    for r in range(R):
        total = total + grad(prev[r])
    return theta - (h / R) * total + xi_full


def naive_prklmc_step(theta, v, h, R, Q, gamma, U, xi_mid, xi_full, xi_bar, grad):
    """Literal kinetic recursion with quadrature-evaluated gradient weights."""

    def b(j, r):
        lo = (j - 1) * h / R
        hi = (h / R) * min(j, R * U[r - 1])
        return quad(lambda s: 1 - math.exp(-gamma * (U[r - 1] * h - s)), lo, hi,
                    epsabs=1e-14, epsrel=1e-13)[0]

    prev = [theta] * R
    for _ in range(1, Q):
        cur = []
        for r in range(1, R + 1):
            a = (1 - math.exp(-gamma * h * U[r - 1])) / gamma
            acc = np.zeros_like(theta)
            for j in range(1, r + 1):
                acc = acc + b(j, r) * grad(prev[j - 1])
            cur.append(theta + a * v - acc + xi_mid[r - 1])
        prev = cur
    s_theta = np.zeros_like(theta)
    s_v = np.zeros_like(v)
    for r in range(1, R + 1):
        g = grad(prev[r - 1])
        s_theta = s_theta + (h / R) * (1 - math.exp(-gamma * h * (1 - U[r - 1]))) * g
        s_v = s_v + (h / R) * math.exp(-gamma * h * (1 - U[r - 1])) * g
    new_theta = theta + (1 - math.exp(-gamma * h)) / gamma * v - s_theta + xi_full
    new_v = math.exp(-gamma * h) * v - gamma * s_v + gamma * xi_bar
    return new_theta, new_v


class TestLmcStep:
    def test_deterministic_step(self):
        pot = _quad([1.0])
        cfg = SamplerConfig(h=0.1, n=1)
        state = ChainState(theta=np.array([1.0]))
        out = step("lmc", state, cfg, pot, noise=np.zeros(1))
        assert out.theta[0] == pytest.approx(0.9)

    def test_minimizer_is_fixed_point(self):
        pot = _quad([1.0, 10.0], mean=[2.0, -1.0])
        cfg = SamplerConfig(h=0.05, n=1)
        state = ChainState(theta=np.array([2.0, -1.0]))
        out = step("lmc", state, cfg, pot, noise=np.zeros(2))
        assert np.array_equal(out.theta, state.theta)

    def test_stationary_variance_ar1(self):
        # theta' = (1-h) theta + sqrt(2h) z has stationary variance 2/(2-h)
        pot = _quad([1.0])
        cfg = SamplerConfig(h=0.1, n=120, seed=23, theta0=np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            trace = run("lmc", cfg, pot, n_chains=30_000, record_every=1000)
        var = trace.final_state.theta[:, 0].var(ddof=1)
        target = 2.0 / (2.0 - 0.1)
        se = target * np.sqrt(2.0 / (30_000 - 1))
        assert abs(var - target) < 3 * se


class TestReductionEquivalences:
    def test_prlmc_r1q2_equals_handwritten_rlmc(self):
        pot = _quad([1.0, 3.0])
        theta0 = np.array([1.5, -0.5])
        cfg = SamplerConfig(h=0.03, n=100, R=1, Q=2, seed=41, theta0=theta0)
        trace = _silent_run("prlmc", cfg, pot, record_every=10**9)
        theta = theta0.copy()
        for k in range(cfg.n):
            u = noise_mod.draw_midpoints(1, noise_mod.stream(41, k, noise_mod.ROLE_MIDPOINTS))
            nd = noise_mod.draw_vanilla_noise(1, cfg.h, 2, u, noise_mod.stream(41, k, noise_mod.ROLE_PATH))
            g1 = pot.gradient(theta)
            mid = theta - (cfg.h * min(1.0, u[0])) * g1 + nd.xi_mid[0]
            theta = theta - (cfg.h / 1) * pot.gradient(mid) + nd.xi_full
        assert np.array_equal(trace.final_state.theta, theta)

    def test_rlmc_kind_is_the_same_path(self):
        cfg = SamplerConfig(h=0.03, n=50, R=1, Q=2, seed=42, theta0=np.array([1.0, 0.0]))
        a = _silent_run("prlmc", cfg, _quad([1.0, 3.0]), record_every=10**9)
        b = _silent_run("rlmc", cfg, _quad([1.0, 3.0]), record_every=10**9)
        assert np.array_equal(a.final_state.theta, b.final_state.theta)

    def test_prlmc_q1_equals_lmc_shared_noise(self):
        pot = _quad([1.0, 3.0])
        theta0 = np.array([0.4, 0.9])
        cfg = SamplerConfig(h=0.02, n=80, R=4, Q=1, seed=43, theta0=theta0)
        trace = _silent_run("prlmc", cfg, pot, record_every=10**9)
        state = ChainState(theta=theta0.copy())
        pot2 = _quad([1.0, 3.0])
        for k in range(cfg.n):
            u = noise_mod.draw_midpoints(4, noise_mod.stream(43, k, noise_mod.ROLE_MIDPOINTS))
            nd = noise_mod.draw_vanilla_noise(4, cfg.h, 2, u, noise_mod.stream(43, k, noise_mod.ROLE_PATH))
            state = step("lmc", state, cfg, pot2, noise=nd.xi_full)
        assert np.array_equal(trace.final_state.theta, state.theta)

    def test_prklmc_r1q2_equals_rklmc_kind(self):
        cfg = SamplerConfig(h=0.01, n=80, R=1, Q=2, gamma=5.0, seed=44,
                            theta0=np.array([0.5, -0.2]), v0=np.array([0.3, 0.1]))
        a = _silent_run("prklmc", cfg, _quad([1.0, 3.0]), record_every=10**9)
        b = _silent_run("rklmc", cfg, _quad([1.0, 3.0]), record_every=10**9)
        assert np.array_equal(a.final_state.theta, b.final_state.theta)
        assert np.array_equal(a.final_state.v, b.final_state.v)

    def test_prklmc_r1q2_matches_psi_form_rklmc(self):
        # Independent two-stage exponential-integrator implementation.
        gamma, h = 4.0, 0.02
        pot = _quad([1.0, 3.0])
        theta0, v0 = np.array([0.5, 0.5]), np.array([0.1, -0.3])
        cfg = SamplerConfig(h=h, n=120, R=1, Q=2, gamma=gamma, seed=45, theta0=theta0, v0=v0)
        trace = _silent_run("prklmc", cfg, pot, record_every=10**9)
        theta, v = theta0.copy(), v0.copy()
        for k in range(cfg.n):
            u = noise_mod.draw_midpoints(1, noise_mod.stream(45, k, noise_mod.ROLE_MIDPOINTS))[0]
            nd = noise_mod.draw_kinetic_noise(1, gamma, h, 2, np.array([u]),
                                              noise_mod.stream(45, k, noise_mod.ROLE_PATH))
            g = pot.gradient(theta)
            mid = theta + u * h * psi(gamma * u * h) * v - u * h * (1 - psi(gamma * u * h)) * g + nd.xi_mid[0]
            gm = pot.gradient(mid)
            theta = theta + h * psi(gamma * h) * v - gamma * h * h * (1 - u) * psi(gamma * h * (1 - u)) * gm + nd.xi_full
            v = np.exp(-gamma * h) * v - gamma * h * np.exp(-gamma * h * (1 - u)) * gm + gamma * nd.xi_bar
        assert np.allclose(trace.final_state.theta, theta, rtol=1e-12, atol=1e-14)
        assert np.allclose(trace.final_state.v, v, rtol=1e-12, atol=1e-14)


class TestScalarOracles:
    def test_prlmc_zero_noise_matches_naive(self):
        pot = _quad([1.0])
        h, R, Q = 0.07, 4, 3
        U = np.array([0.13, 0.42, 0.55, 0.95])
        zero = noise_mod.VanillaNoiseDraw(U=U, xi_mid=np.zeros((R, 1)), xi_full=np.zeros(1))
        cfg = SamplerConfig(h=h, n=1, R=R, Q=Q)
        state = ChainState(theta=np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            out = step("prlmc", state, cfg, pot, noise=zero)
        want = naive_prlmc_step(np.array([1.0]), h, R, Q, U,
                                np.zeros((R, 1)), np.zeros(1), lambda t: t)
        assert np.allclose(out.theta, want, rtol=1e-12)

    def test_prlmc_fixed_noise_matches_naive(self):
        pot = _quad([2.0, 5.0])
        h, R, Q = 0.04, 3, 4
        rng = np.random.default_rng(50)
        U = np.sort(rng.uniform(size=R) / R + np.arange(R) / R)
        xi_mid = rng.standard_normal((R, 2)) * 0.1
        xi_full = rng.standard_normal(2) * 0.1
        fixed = noise_mod.VanillaNoiseDraw(U=U, xi_mid=xi_mid, xi_full=xi_full)
        cfg = SamplerConfig(h=h, n=1, R=R, Q=Q)
        theta0 = np.array([0.7, -1.1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            out = step("prlmc", ChainState(theta=theta0), cfg, pot, noise=fixed)
        want = naive_prlmc_step(theta0, h, R, Q, U, xi_mid, xi_full,
                                lambda t: (t - pot.mean) @ pot.precision)
        assert np.allclose(out.theta, want, rtol=1e-12)

    def test_prklmc_fixed_noise_matches_naive(self):
        pot = _quad([2.0, 5.0])
        h, R, Q, gamma = 0.03, 3, 3, 6.0
        rng = np.random.default_rng(51)
        U = np.sort(rng.uniform(size=R) / R + np.arange(R) / R)
        xi_mid = rng.standard_normal((R, 2)) * 0.05
        xi_full = rng.standard_normal(2) * 0.05
        xi_bar = rng.standard_normal(2) * 0.05
        fixed = noise_mod.KineticNoiseDraw(U=U, xi_mid=xi_mid, xi_full=xi_full, xi_bar=xi_bar)
        cfg = SamplerConfig(h=h, n=1, R=R, Q=Q, gamma=gamma)
        theta0, v0 = np.array([0.7, -1.1]), np.array([0.2, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            out = step("prklmc", ChainState(theta=theta0, v=v0), cfg, pot, noise=fixed)
        want_theta, want_v = naive_prklmc_step(theta0, v0, h, R, Q, gamma, U,
                                               xi_mid, xi_full, xi_bar,
                                               lambda t: (t - pot.mean) @ pot.precision)
        assert np.allclose(out.theta, want_theta, rtol=1e-9)
        assert np.allclose(out.v, want_v, rtol=1e-9)

    def test_free_transport_limit(self):
        # gamma h -> 0: position update tends to theta + h v at zero noise/gradient
        gamma, h = 1e-6, 0.01
        pot = _quad([1e-12, 1e-12])
        zero = noise_mod.KineticNoiseDraw(U=np.array([0.5]), xi_mid=np.zeros((1, 2)),
                                          xi_full=np.zeros(2), xi_bar=np.zeros(2))
        cfg = SamplerConfig(h=h, n=1, R=1, Q=2, gamma=gamma)
        theta0, v0 = np.zeros(2), np.array([1.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            out = step("prklmc", ChainState(theta=theta0, v=v0), cfg, pot, noise=zero)
        assert np.allclose(out.theta, theta0 + h * v0, atol=1e-7)


def _slot_prefix_combine(grads, weights):
    """Per-slot reference: a list of gradients, summed in ascending j."""
    combined = []
    for r in range(len(grads)):
        acc = weights[..., r, 0, None] * grads[0]
        for j in range(1, r + 1):
            acc = acc + weights[..., r, j, None] * grads[j]
        combined.append(acc)
    return combined


def _scalar_weights(coeff, U):
    """(..., R, R) lower-triangular weights, entry by entry from a scalar coeff(U_c, j, r)."""
    R = U.shape[-1]
    weights = np.zeros(U.shape + (R,))
    for c in np.ndindex(U.shape[:-1]):
        for r in range(1, R + 1):
            for j in range(1, r + 1):
                weights[c + (r - 1, j - 1)] = coeff(U[c], j, r)
    return weights


def slot_vanilla_iteration(theta, h, R, Q, noise, grad):
    """The vanilla engine written slot by slot, as lists of (..., p) arrays."""
    weights = h * _scalar_weights(lambda u, j, r: noise_mod.coeff_a_vanilla(R, u, j, r), noise.U)
    points = [theta] * R
    for _ in range(1, Q):
        combined = _slot_prefix_combine([grad(x) for x in points], weights)
        points = [theta - combined[r] + noise.xi_mid[r] for r in range(R)]
    grads = [grad(x) for x in points]
    total = grads[0]
    for r in range(1, R):
        total = total + grads[r]
    return theta - (h / R) * total + noise.xi_full


def slot_kinetic_iteration(theta, v, h, R, Q, gamma, noise, grad):
    """The kinetic engine written slot by slot, as lists of (..., p) arrays."""
    a = -np.expm1(-gamma * h * noise.U) / gamma
    weights = _scalar_weights(lambda u, j, r: noise_mod.coeff_b_kinetic(R, gamma, h, u, j, r), noise.U)
    base = [theta + a[..., r, None] * v for r in range(R)]
    points = [theta] * R
    for _ in range(1, Q):
        combined = _slot_prefix_combine([grad(x) for x in points], weights)
        points = [base[r] - combined[r] + noise.xi_mid[r] for r in range(R)]
    grads = [grad(x) for x in points]
    tail = gamma * h * (1.0 - noise.U)
    w_theta = (h / R) * -np.expm1(-tail)
    w_v = (h / R) * np.exp(-tail)
    sum_theta = w_theta[..., 0, None] * grads[0]
    sum_v = w_v[..., 0, None] * grads[0]
    for r in range(1, R):
        sum_theta = sum_theta + w_theta[..., r, None] * grads[r]
        sum_v = sum_v + w_v[..., r, None] * grads[r]
    new_theta = theta + (-np.expm1(-gamma * h) / gamma) * v - sum_theta + noise.xi_full
    new_v = np.exp(-gamma * h) * v - gamma * sum_v + gamma * noise.xi_bar
    return new_theta, new_v


class TestStackedEngine:
    """The stacked (..., R, p) engine against the per-slot reference above."""

    @pytest.mark.parametrize("R, Q", [(4, 3), (24, 4)])
    @pytest.mark.parametrize("chains", [None, 6])
    def test_vanilla_matches_slot_reference(self, quad_10d, R, Q, chains):
        h = 0.01
        theta = np.random.default_rng(60).standard_normal(10 if chains is None else (chains, 10))
        u = noise_mod.draw_midpoints(R, noise_mod.stream(60, 0, noise_mod.ROLE_MIDPOINTS), size=chains)
        noise = noise_mod.draw_vanilla_noise(R, h, 10, u, noise_mod.stream(60, 0, noise_mod.ROLE_PATH))
        cfg = SamplerConfig(h=h, n=1, R=R, Q=Q)
        got = step("prlmc", ChainState(theta=theta), cfg, quad_10d, noise=noise).theta
        want = slot_vanilla_iteration(theta, h, R, Q, noise, quad_10d.gradient)
        assert got.shape == theta.shape
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("R, Q", [(4, 3), (24, 4)])
    @pytest.mark.parametrize("chains", [None, 6])
    def test_kinetic_matches_slot_reference(self, quad_10d, R, Q, chains):
        h, gamma = 0.002, 50.0
        rng = np.random.default_rng(61)
        shape = 10 if chains is None else (chains, 10)
        theta, v = rng.standard_normal(shape), rng.standard_normal(shape)
        u = noise_mod.draw_midpoints(R, noise_mod.stream(61, 0, noise_mod.ROLE_MIDPOINTS), size=chains)
        noise = noise_mod.draw_kinetic_noise(R, gamma, h, 10, u, noise_mod.stream(61, 0, noise_mod.ROLE_PATH))
        cfg = SamplerConfig(h=h, n=1, R=R, Q=Q, gamma=gamma)
        got = step("prklmc", ChainState(theta=theta, v=v), cfg, quad_10d, noise=noise)
        got_theta, got_v = got.theta, got.v
        want_theta, want_v = slot_kinetic_iteration(theta, v, h, R, Q, gamma, noise, quad_10d.gradient)
        assert got_theta.shape == got_v.shape == theta.shape
        assert np.allclose(got_theta, want_theta, rtol=1e-12, atol=0)
        assert np.allclose(got_v, want_v, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("R", [4, 37])
    def test_step_batch_equals_chain_blocks(self, quad_10d, R):
        # The slot walk is elementwise over chains: 9 chains in one step give
        # the bits of the blocks [:4] and [4:] stepped on their own.
        rng = np.random.default_rng(62)
        theta, v = rng.standard_normal((9, 10)), rng.standard_normal((9, 10))
        u = noise_mod.draw_midpoints(R, noise_mod.stream(62, 0, noise_mod.ROLE_MIDPOINTS), size=9)
        path = noise_mod.stream(62, 0, noise_mod.ROLE_PATH)
        cases = [
            ("prlmc", SamplerConfig(h=0.01, n=1, R=R, Q=3), noise_mod.draw_vanilla_noise(R, 0.01, 10, u, path)),
            ("prklmc", SamplerConfig(h=0.002, n=1, R=R, Q=3, gamma=50.0),
             noise_mod.draw_kinetic_noise(R, 50.0, 0.002, 10, u, path)),
        ]
        for kind, cfg, noise in cases:
            kinetic = kind in KINETIC_KINDS

            def block(rows):
                sub = type(noise)(**{f.name: getattr(noise, f.name)[(slice(None), rows) if f.name == "xi_mid" else rows]
                                      for f in dataclasses.fields(noise)})
                state = ChainState(theta=theta[rows], v=v[rows] if kinetic else None)
                return step(kind, state, cfg, quad_10d, noise=sub)

            whole, head, tail = block(slice(None)), block(slice(None, 4)), block(slice(4, None))
            assert np.array_equal(whole.theta, np.concatenate([head.theta, tail.theta]))
            if kinetic:
                assert np.array_equal(whole.v, np.concatenate([head.v, tail.v]))

    @pytest.mark.parametrize("kind", ["prlmc", "prklmc"])
    @pytest.mark.parametrize("chains", [1, 7])
    @pytest.mark.parametrize("width", [None, 3])
    def test_oracle_sees_contiguous_slots(self, kind, chains, width):
        # Rounds are stored slot-major: every oracle call gets one contiguous (..., p) block.
        class RecordingPotential(QuadraticPotential):
            def __init__(self, precision):
                super().__init__(precision)
                self.contiguous = []

            def _gradient(self, theta):
                self.contiguous.append(theta.flags.c_contiguous)
                return super()._gradient(theta)

        pot = RecordingPotential(np.diag(np.linspace(1.0, 10.0, 10)))
        cfg = SamplerConfig(h=0.01, n=3, R=5, Q=3, gamma=20.0 if kind in KINETIC_KINDS else None, seed=64,
                            parallel_width=width)
        _silent_run(kind, cfg, pot, n_chains=chains, record_every=10**9)
        assert len(pot.contiguous) == cfg.n * ((cfg.Q - 1) * cfg.R + 1)
        assert all(pot.contiguous)

    @pytest.mark.parametrize("kind", ["prlmc", "prklmc"])
    def test_step_peak_memory_is_linear(self, quad_10d, kind):
        # No (C, R, R) array: one step's traced peak stays a few (C, R, p) arrays.
        C, R, p = 50, 122, 10
        kinetic = kind in KINETIC_KINDS
        cfg = SamplerConfig(h=0.001, n=1, R=R, Q=3, gamma=50.0 if kinetic else None, seed=63,
                            parallel_width=1)
        rng = np.random.default_rng(63)
        state = ChainState(theta=rng.standard_normal((C, p)), v=rng.standard_normal((C, p)) if kinetic else None)
        tracemalloc.start()
        try:
            step(kind, state, cfg, quad_10d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * C * R * p * 8


class TestStepEntryPoint:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("chains", [1, 5])
    def test_run_equals_successive_steps(self, kind, chains):
        kinetic = kind in KINETIC_KINDS
        rng = np.random.default_rng(70)
        shape = (2,) if chains == 1 else (chains, 2)
        theta0, v0 = rng.standard_normal(shape), rng.standard_normal(shape)
        cfg = SamplerConfig(h=0.01, n=12, R=4, Q=3, gamma=20.0 if kinetic else None, seed=71,
                            theta0=theta0, v0=v0 if kinetic else None)
        trace = _silent_run(kind, cfg, _quad([1.0, 3.0]), n_chains=chains, record_every=5)
        state = ChainState(theta=theta0.copy(), v=v0.copy() if kinetic else None)
        pot = _quad([1.0, 3.0])
        for _ in range(cfg.n):
            state = step(kind, state, cfg, pot)
        assert trace.final_state.iteration == state.iteration == cfg.n
        assert np.array_equal(trace.final_state.theta, state.theta)
        if kinetic:
            assert np.array_equal(trace.final_state.v, state.v)
        else:
            assert trace.final_state.v is None and state.v is None

    @pytest.mark.parametrize("shape", [(2,), (4, 2)])
    def test_lmc_draws_its_own_keyed_increment(self, shape):
        pot = _quad([1.0, 3.0], mean=[0.5, -0.5])
        cfg = SamplerConfig(h=0.02, n=1, R=4, Q=3, seed=72)
        theta = np.random.default_rng(73).standard_normal(shape)
        out = step("lmc", ChainState(theta=theta, iteration=7), cfg, pot)
        z = noise_mod.stream(72, 7, noise_mod.ROLE_PATH).standard_normal(theta.shape)
        want = theta - cfg.h * pot.gradient(theta) + np.sqrt(2.0 * cfg.h) * z
        assert out.iteration == 8
        assert np.array_equal(out.theta, want)

    @pytest.mark.parametrize("kind", KINETIC_KINDS)
    def test_kinetic_step_without_gamma_or_velocity_is_a_configuration_error(self, kind):
        pot, theta = _quad([1.0, 3.0]), np.array([0.3, -0.2])
        with pytest.raises(ConfigurationError, match=f"{kind} requires a friction coefficient gamma"):
            step(kind, ChainState(theta=theta, v=np.zeros(2)), SamplerConfig(h=0.01, n=1, R=2, Q=2), pot)
        with pytest.raises(ConfigurationError, match=f"{kind} requires a velocity"):
            step(kind, ChainState(theta=theta), SamplerConfig(h=0.01, n=1, R=2, Q=2, gamma=5.0), pot)


class TestRunDriver:
    def test_zero_iterations(self, quad_2d):
        trace = _silent_run("lmc", SamplerConfig(h=0.01, n=0), quad_2d)
        assert len(trace.rows) == 1
        assert trace.rows[0]["iteration"] == 0

    def test_prlmc_accounting(self):
        cfg = SamplerConfig(h=0.005, n=10, R=4, Q=3, seed=1)
        trace = _silent_run("prlmc", cfg, _quad([1.0, 10.0]))
        assert trace.counters["gradient_evals"] == 10 * 3 * 4
        assert trace.counters["sequential_rounds"] == 10 * 3

    def test_lmc_accounting(self):
        cfg = SamplerConfig(h=0.005, n=10, seed=1)
        trace = _silent_run("lmc", cfg, _quad([1.0, 10.0]))
        assert trace.counters["gradient_evals"] == 10
        assert trace.counters["sequential_rounds"] == 10

    def test_limited_width_multiplies_rounds(self):
        cfg = SamplerConfig(h=0.005, n=6, R=4, Q=2, seed=1, parallel_width=3)
        trace = _silent_run("prlmc", cfg, _quad([1.0, 10.0]))
        assert trace.counters["sequential_rounds"] == 6 * 2 * 2  # ceil(4/3) = 2

    def test_same_seed_bitwise(self):
        cfg = SamplerConfig(h=0.005, n=30, R=4, Q=2, seed=77, theta0=np.zeros(2))
        a = _silent_run("prlmc", cfg, _quad([1.0, 10.0]), n_chains=5, record_every=10**9)
        b = _silent_run("prlmc", cfg, _quad([1.0, 10.0]), n_chains=5, record_every=10**9)
        assert np.array_equal(a.final_state.theta, b.final_state.theta)

    def test_width_does_not_change_trajectory(self):
        base = SamplerConfig(h=0.005, n=25, R=4, Q=3, seed=78, theta0=np.zeros(2))
        narrow = SamplerConfig(h=0.005, n=25, R=4, Q=3, seed=78, theta0=np.zeros(2), parallel_width=1)
        a = _silent_run("prlmc", base, _quad([1.0, 10.0]), record_every=10**9)
        b = _silent_run("prlmc", narrow, _quad([1.0, 10.0]), record_every=10**9)
        assert np.array_equal(a.final_state.theta, b.final_state.theta)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("target", [
        "quadratic",
        pytest.param("logistic", marks=pytest.mark.xfail(
            reason="BLAS rounds the (chains, N) @ (N, p) logistic gradient product differently "
                   "for different chain counts", strict=False)),
    ])
    def test_chain_trajectory_independent_of_ensemble_size(self, kind, target, logistic_small):
        pot = _quad([1.0, 3.0, 10.0]) if target == "quadratic" else logistic_small
        kinetic = kind in KINETIC_KINDS
        cfg = SamplerConfig(h=0.01, n=15, R=4, Q=3, gamma=20.0 if kinetic else None, seed=79,
                            theta0=np.array([0.5, -0.3, 0.2]))
        wide = _silent_run(kind, cfg, pot, n_chains=8, record_every=10**9).final_state
        narrow = _silent_run(kind, cfg, pot, n_chains=3, record_every=10**9).final_state
        assert np.array_equal(wide.theta[:3], narrow.theta)
        if kinetic:
            assert np.array_equal(wide.v[:3], narrow.v)

    def test_divergence_raises_with_partial_trace(self):
        cfg = SamplerConfig(h=10.0, n=50, seed=2, theta0=np.array([1.0, 1.0]))
        with pytest.raises(DivergenceError) as err:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PreconditionWarning)
                run("lmc", cfg, _quad([1.0, 10.0]))
        assert err.value.trace is not None
        assert err.value.iteration is not None
        assert err.value.norm > 1e8

    def test_nonfinite_iterate_is_rejected_at_its_own_iteration(self):
        class NaNAfter(QuadraticPotential):
            """Gives chain 1 a NaN gradient from oracle call `k` on."""

            def __init__(self, k):
                super().__init__(np.diag([1.0, 3.0]))
                self.calls, self.k = 0, k

            def _gradient(self, theta):
                g = super()._gradient(theta)
                self.calls += 1
                if self.calls > self.k:
                    g[1] = np.nan
                return g

        cfg = SamplerConfig(h=0.01, n=20, seed=80)
        with pytest.raises(DivergenceError) as err:
            _silent_run("lmc", cfg, NaNAfter(5), n_chains=3, record_every=1)
        final = err.value.trace.final_state
        assert err.value.iteration == 6
        assert final.iteration == err.value.iteration - 1
        assert np.all(np.isfinite(final.theta))
        assert err.value.norm == np.inf
        assert "chain 1:" in str(err.value)
        assert err.value.trace.rows[-1]["iteration"] == final.iteration

    def test_runaway_iterate_is_rejected_at_its_own_iteration(self):
        cfg = SamplerConfig(h=10.0, n=50, seed=81, theta0=np.array([1.0, 1.0]))
        pot = _quad([1.0, 10.0])
        with pytest.raises(DivergenceError) as err:
            _silent_run("lmc", cfg, pot, n_chains=3)
        final = err.value.trace.final_state
        assert final.iteration == err.value.iteration - 1
        threshold = 1e8 * (1.0 + np.sqrt(2.0))
        assert np.sqrt(np.sum(final.theta**2, axis=-1)).max() <= threshold
        # The rejected iterate, replayed from the kept state: its lowest chain over the threshold is named.
        norms = np.sqrt(np.sum(step("lmc", final, cfg, pot).theta ** 2, axis=-1))
        chain = int(np.flatnonzero(norms > threshold)[0])
        assert f"chain {chain}:" in str(err.value)
        assert err.value.norm == norms[chain] and np.isfinite(err.value.norm)

    def test_step_rejects_an_unknown_kind(self, quad_2d):
        with pytest.raises(ConfigurationError, match="mala"):
            step("mala", ChainState(theta=np.zeros(2)), SamplerConfig(h=0.01, n=1), quad_2d)

    def test_kinetic_requires_gamma(self, quad_2d):
        with pytest.raises(ConfigurationError):
            run("prklmc", SamplerConfig(h=0.01, n=1), quad_2d)

    def test_unknown_kind(self, quad_2d):
        with pytest.raises(ConfigurationError):
            run("mala", SamplerConfig(h=0.01, n=1), quad_2d)

    def test_precondition_warning_emitted(self):
        cfg = SamplerConfig(h=0.1, n=1, R=1, Q=2, seed=0)
        with pytest.warns(PreconditionWarning):
            trace = run("prlmc", cfg, _quad([1.0, 10.0]))
        assert trace.warnings

    def test_record_every_row_count(self):
        cfg = SamplerConfig(h=0.001, n=10, seed=3)
        trace = _silent_run("lmc", cfg, _quad([1.0, 10.0]), record_every=3)
        assert [r["iteration"] for r in trace.rows] == [0, 3, 6, 9, 10]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(h=-0.1, n=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(h=0.1, n=1, R=0)
        with pytest.raises(ConfigurationError):
            SamplerConfig(h=0.1, n=1, Q=0)
        with pytest.raises(ConfigurationError):
            SamplerConfig(h=0.1, n=1, gamma=-1.0)


class TestDynamicsProperties:
    def test_geometric_contraction_shared_noise(self):
        # Chains coupled by the same (seed, iteration)-keyed noise contract
        # at about e^{-m h} per step along the weakest curvature direction.
        pot_a = QuadraticPotential(np.diag(np.linspace(1.0, 10.0, 4)))
        pot_b = QuadraticPotential(np.diag(np.linspace(1.0, 10.0, 4)))
        h = 0.005  # hbar = M h = 0.05
        delta = np.array([1.0, 0.0, 0.0, 0.0])
        cfg_a = SamplerConfig(h=h, n=200, R=4, Q=3, seed=91, theta0=np.zeros(4))
        cfg_b = SamplerConfig(h=h, n=200, R=4, Q=3, seed=91, theta0=delta)
        rows_a, rows_b = [], []
        run_a = _silent_run("prlmc", cfg_a, pot_a, record_every=1,
                            metric_fn=lambda k, s: rows_a.append(s.theta.copy()) or {})
        run_b = _silent_run("prlmc", cfg_b, pot_b, record_every=1,
                            metric_fn=lambda k, s: rows_b.append(s.theta.copy()) or {})
        diffs = np.array([np.linalg.norm(a - b) for a, b in zip(rows_a, rows_b)])
        ratios = diffs[1:] / diffs[:-1]
        target = math.exp(-1.0 * h)
        assert np.all(np.abs(ratios / target - 1.0) < 0.1)
        total = diffs[-1] / diffs[0]
        assert abs(total / math.exp(-1.0 * h * 200) - 1.0) < 0.1

    def test_stationarity_preservation(self, quad_10d):
        # Start exactly at the target; after 100 steps the ensemble stays
        # within the theorem's discretization radius plus estimator noise.
        p = 10
        target_cov = quad_10d.target_covariance()
        rng = np.random.default_rng(92)
        chol = np.linalg.cholesky(target_cov)
        theta0 = rng.standard_normal((10_000, p)) @ chol.T
        cfg = SamplerConfig(h=0.005, n=100, R=4, Q=3, seed=93, theta0=theta0)
        trace = _silent_run("prlmc", cfg, quad_10d, n_chains=10_000, record_every=10**9)
        target = GaussianSummary(mean=np.zeros(p), covariance=target_cov)
        w2 = w2_gaussian(empirical_summary(trace.final_state.theta), target)
        hbar, kappa = 0.05, 10.0
        disc = 2.1 * (hbar**3 + hbar / 2 + (hbar**2 + hbar / 4) * math.sqrt(kappa * hbar)) * math.sqrt(p)
        boots = []
        theta = trace.final_state.theta
        for _ in range(40):
            idx = rng.integers(0, 10_000, size=10_000)
            boots.append(w2_gaussian(empirical_summary(theta[idx]), target))
        assert w2 <= disc + 3 * np.std(boots)


class _NestingPotential(QuadraticPotential):
    """A quadratic oracle whose every call first runs a step of its own at the caller's shape."""

    def __init__(self, kind, cfg):
        super().__init__(np.diag(np.linspace(1.0, 10.0, 3)))
        self.kind, self.cfg, self.inner = kind, cfg, []

    def _gradient(self, theta):
        start = ChainState(theta=np.zeros(theta.shape), v=np.zeros(theta.shape))
        self.inner.append(step(self.kind, start, self.cfg, _quad(np.linspace(1.0, 10.0, 3))))
        return super()._gradient(theta)


def _workspace_cfg(kind, R=4, Q=3, seed=81):
    return SamplerConfig(h=0.01, n=3, R=R, Q=Q, gamma=5.0 if kind in KINETIC_KINDS else None, seed=seed)


_FRESH_RUNS = """
import sys, warnings
import numpy as np
from parlmc import QuadraticPotential, SamplerConfig, run
warnings.simplefilter("ignore")
out = {}
for kind in ("lmc", "rlmc", "prlmc", "rklmc", "prklmc"):
    gamma = 5.0 if kind.endswith("klmc") else None
    cfg = SamplerConfig(h=0.01, n=3, R=int(sys.argv[2]), Q=3, gamma=gamma, seed=84)
    st = run(kind, cfg, QuadraticPotential.from_diagonal(np.linspace(1.0, 10.0, 3)), n_chains=int(sys.argv[3])).final_state
    out[kind + "_theta"] = st.theta
    if st.v is not None:
        out[kind + "_v"] = st.v
np.savez(sys.argv[1], **out)
"""

_FAULTS_PER_STEP = """
import os, resource, sys
os.environ["PARLMC_WORKERS"] = "1"
import numpy as np
from parlmc import ChainState, QuadraticPotential, SamplerConfig, step
pot = QuadraticPotential.from_diagonal(np.linspace(1.0, 10.0, 10))
cfg = SamplerConfig(h=0.005, n=1, R=37, Q=5, seed=85)
state = ChainState(theta=np.zeros((1000, 10)))
for _ in range(2):
    state = step("prlmc", state, cfg, pot)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(6):
    state = step("prlmc", state, cfg, pot)
print((resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / 6)
"""


def _python(script, *args):
    """Run `script` in a fresh interpreter that imports this checkout's parlmc; return its stdout."""
    src = str(Path(noise_mod.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PARLMC_WORKERS"}
    env["PYTHONPATH"] = src + ("" if not env.get("PYTHONPATH") else ":" + env["PYTHONPATH"])
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStepWorkspace:
    """A step's arrays live in a per-thread workspace; no caller can see it reused."""

    @pytest.mark.parametrize("kind", ["rlmc", "prlmc", "rklmc", "prklmc"])
    def test_returned_state_survives_later_steps(self, kind):
        cfg, pot = _workspace_cfg(kind), _quad(np.linspace(1.0, 10.0, 3))
        first = step(kind, ChainState(theta=np.zeros((6, 3)), v=np.zeros((6, 3))), cfg, pot)
        kept = (first.theta.copy(), None if first.v is None else first.v.copy())
        state = first
        for _ in range(3):
            state = step(kind, state, cfg, pot)
            assert not np.shares_memory(state.theta, first.theta)
        assert np.array_equal(first.theta, kept[0])
        if kept[1] is not None:
            assert np.array_equal(first.v, kept[1]) and not np.shares_memory(state.v, first.v)

    @pytest.mark.parametrize("kind", ["prlmc", "prklmc"])
    def test_threads_at_one_shape_get_their_serial_bits(self, kind, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "1")  # every round on the thread that runs the step
        pot = _quad(np.linspace(1.0, 10.0, 3))
        cfgs = [dataclasses.replace(_workspace_cfg(kind, seed=82 + i), n=8) for i in range(2)]
        want = [_silent_run(kind, cfg, pot, n_chains=50).final_state.theta for cfg in cfgs]
        got = [None, None]

        def worker(i):
            got[i] = _silent_run(kind, cfgs[i], _quad(np.linspace(1.0, 10.0, 3)), n_chains=50).final_state.theta

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", ["prlmc", "prklmc"])
    def test_step_nested_in_an_oracle_leaves_the_outer_step_intact(self, kind, monkeypatch):
        monkeypatch.setenv("PARLMC_WORKERS", "1")  # the oracle, and so the inner step, runs on the outer thread
        cfg = _workspace_cfg(kind)
        theta = np.random.default_rng(83).standard_normal((6, 3))
        start = ChainState(theta=theta, v=np.zeros((6, 3)) if kind in KINETIC_KINDS else None)
        want = step(kind, start, cfg, _quad(np.linspace(1.0, 10.0, 3)))
        nesting = _NestingPotential(kind, cfg)
        got = step(kind, start, cfg, nesting)
        assert np.array_equal(got.theta, want.theta)
        if kind in KINETIC_KINDS:
            assert np.array_equal(got.v, want.v)
        inner = step(kind, ChainState(theta=np.zeros((6, 3)), v=np.zeros((6, 3))), cfg,
                     _quad(np.linspace(1.0, 10.0, 3)))
        assert len(nesting.inner) == 1 + (cfg.Q - 1) * cfg.R
        assert all(np.array_equal(s.theta, inner.theta) for s in nesting.inner)

    def test_a_step_that_raises_puts_the_workspace_back(self):
        cfg, pot = _workspace_cfg("prlmc"), _quad(np.linspace(1.0, 10.0, 3))
        step("prlmc", ChainState(theta=np.zeros((5, 3))), cfg, pot)
        work = samplers_mod._workspace.work
        points = work["points"]
        with pytest.raises(RoundExecutionError):
            step("prlmc", ChainState(theta=np.full((5, 3), np.nan)), cfg, pot)
        assert vars(samplers_mod._workspace).get("work") is work and work["points"] is points

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_strided_or_read_only_chain_gives_the_contiguous_bits(self, kind):
        # One chain's round 0 repeats theta R times as a read-only stride-0 view; a theta that is not one
        # contiguous block, or is read-only, must give the same bits and share no memory with the result.
        cfg, pot = _workspace_cfg(kind), _quad(np.linspace(1.0, 10.0, 3))
        big = np.random.default_rng(87).standard_normal((2, 6))
        theta, v = big[0, ::2], big[1, ::2]  # strided views
        frozen = [a.copy() for a in (theta, v)]
        for a in frozen:
            a.flags.writeable = False
        kinetic = kind in KINETIC_KINDS
        want = step(kind, ChainState(theta=theta.copy(), v=v.copy() if kinetic else None), cfg, pot)
        for th, vel in ((theta, v), tuple(frozen)):
            got = step(kind, ChainState(theta=th, v=vel if kinetic else None), cfg, pot)
            assert np.array_equal(got.theta, want.theta)
            assert not kinetic or np.array_equal(got.v, want.v)
            scratch = [a for a in samplers_mod._workspace.work.values() if isinstance(a, np.ndarray)]
            for out in (got.theta, got.v) if kinetic else (got.theta,):
                assert not any(np.shares_memory(out, a) for a in (big, *frozen, *scratch))

    def test_shape_changes_give_fresh_process_bits(self, tmp_path):
        fresh = {}
        for R, C in ((37, 8), (4, 3)):
            _python(_FRESH_RUNS, tmp_path / f"{R}_{C}.npz", R, C)
            fresh[R, C] = dict(np.load(tmp_path / f"{R}_{C}.npz"))
        pot = _quad(np.linspace(1.0, 10.0, 3))
        for R, C in ((37, 8), (4, 3), (37, 8)):
            for kind in KINDS:
                cfg = dataclasses.replace(_workspace_cfg(kind, R=R, seed=84), n=3)
                st = _silent_run(kind, cfg, pot, n_chains=C).final_state
                assert np.array_equal(st.theta, fresh[R, C][kind + "_theta"])
                if st.v is not None:
                    assert np.array_equal(st.v, fresh[R, C][kind + "_v"])

    @pytest.mark.parametrize("kinetic", [False, True])
    def test_draws_without_a_workspace_share_no_memory(self, kinetic):
        U = noise_mod.draw_midpoints(5, noise_mod.stream(86, 0, noise_mod.ROLE_MIDPOINTS), size=4)

        def draw(k):
            rng = noise_mod.stream(86, k, noise_mod.ROLE_PATH)
            if kinetic:
                return noise_mod.draw_kinetic_noise(5, 2.0, 0.1, 3, U, rng)
            return noise_mod.draw_vanilla_noise(5, 0.1, 3, U, rng)

        a, b = draw(0), draw(1)
        drawn = [f.name for f in dataclasses.fields(a) if f.name != "U"]  # U is the caller's midpoints
        assert not any(np.shares_memory(getattr(a, x), getattr(b, y)) for x in drawn for y in drawn)

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs resource.RUSAGE_THREAD")
    def test_vanilla_tuned_shape_stops_faulting_its_arrays_back_in(self):
        # prlmc at R=37, Q=5 on 1000 chains cycled about 12 MB of arrays through the heap per step,
        # which glibc handed back to the OS and faulted in again: about 3250 minor faults per step.
        faults = float(_python(_FAULTS_PER_STEP))
        assert faults < 1000
