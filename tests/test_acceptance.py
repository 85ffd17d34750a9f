"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py` or in captured output).  Expected
values follow the oracle protocol: independent quadrature / closed-form
recursions computed ahead of time and frozen, Monte Carlo checks with
explicit standard-error bands, and bitwise checks for the structural
reduction equivalences.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from parlmc import (
    ChainState,
    GaussianSummary,
    LogisticRidgePotential,
    QuadraticPotential,
    SamplerConfig,
    SyntheticDelayPotential,
    check_gradient_fd,
    empirical_summary,
    kinetic_covariance,
    run,
    step,
    theorem1_bound,
    theorem2_bound,
    tune_kinetic,
    tune_vanilla,
    w2_gaussian,
)
from parlmc import noise as noise_mod
from parlmc.noise import ROLE_MIDPOINTS, ROLE_PATH
from parlmc.tuning import TuneRequest


def _report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _silent_run(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(*args, **kwargs)


def _desk_target(p):
    a = np.diag(np.linspace(1.0, 10.0, p))
    pot = QuadraticPotential(a)
    target = GaussianSummary(mean=np.zeros(p), covariance=np.linalg.inv(a))
    w2_init = math.sqrt(np.trace(np.linalg.inv(a)))
    return pot, target, w2_init


def _bootstrap_w2_sigma(theta, target, rng, n_boot=60):
    n = theta.shape[0]
    vals = []
    for _ in range(n_boot):
        idx = rng.integers(0, n, size=n)
        vals.append(w2_gaussian(empirical_summary(theta[idx]), target))
    return float(np.std(vals))


def test_criterion_01_vanilla_noise_covariance():
    start = time.perf_counter()
    R, h, n = 4, 0.1, 100_000
    u = np.array([0.1, 0.35, 0.6, 0.9])
    draw = noise_mod.draw_vanilla_noise(R, h, 1, u, noise_mod.stream(101, 0, ROLE_PATH), size=n)
    samples = np.concatenate([draw.xi_mid[:, :, 0].T, draw.xi_full], axis=1)
    empirical = np.cov(samples, rowvar=False)
    tu = np.append(u, 1.0)
    analytic = 2.0 * h * np.minimum(tu[:, None], tu[None, :])
    se = np.sqrt((np.outer(np.diag(analytic), np.diag(analytic)) + analytic**2) / (n - 1))
    zmax = float(np.abs((empirical - analytic) / se).max())
    elapsed = time.perf_counter() - start
    _report(1, "vanilla noise covariance", zmax < 5.0 and elapsed < 10.0,
            f"max |z| = {zmax:.2f}, {elapsed:.1f}s")


def test_criterion_02_kinetic_noise_covariance():
    start = time.perf_counter()
    R, gamma, h, n = 2, 1.0, 0.1, 100_000
    u = np.array([0.2, 0.8])
    analytic = kinetic_covariance(R, gamma, h, u)

    # the closed form itself must match adaptive quadrature of the integrals
    taus = np.append(u * h, h)

    def integrand(i):
        if i < R + 1:
            t = taus[i]
            return lambda s: (1 - np.exp(-gamma * (t - s))) if s <= t else 0.0
        return lambda s: np.exp(-gamma * (h - s))

    quad_rel = 0.0
    for i in range(R + 2):
        for j in range(i + 1):
            val = 2 * quad(lambda s: integrand(i)(s) * integrand(j)(s), 0, h,
                           points=list(taus), limit=200, epsabs=1e-16, epsrel=1e-13)[0]
            quad_rel = max(quad_rel, abs(analytic[i, j] - val) / abs(val))

    draw = noise_mod.draw_kinetic_noise(R, gamma, h, 1, u, noise_mod.stream(102, 0, ROLE_PATH), size=n)
    samples = np.concatenate([draw.xi_mid[:, :, 0].T, draw.xi_full, draw.xi_bar], axis=1)
    empirical = np.cov(samples, rowvar=False)
    se = np.sqrt((np.outer(np.diag(analytic), np.diag(analytic)) + analytic**2) / (n - 1))
    zmax = float(np.abs((empirical - analytic) / se).max())
    elapsed = time.perf_counter() - start
    _report(2, "kinetic noise covariance", zmax < 5.0 and quad_rel < 1e-10 and elapsed < 10.0,
            f"max |z| = {zmax:.2f}, quadrature rel = {quad_rel:.2e}, {elapsed:.1f}s")


def test_criterion_03_reduction_equivalences():
    n, h = 1000, 0.02
    theta0 = np.array([1.5, -0.5])

    # pRLMC(R=1, Q=2) vs a hand-written sequential RLMC, shared streams
    pot = QuadraticPotential.from_diagonal([1.0, 3.0])
    cfg = SamplerConfig(h=h, n=n, R=1, Q=2, seed=301, theta0=theta0)
    engine = _silent_run("prlmc", cfg, pot, record_every=10**9).final_state.theta
    theta = theta0.copy()
    ref = QuadraticPotential.from_diagonal([1.0, 3.0])
    for k in range(n):
        u = noise_mod.draw_midpoints(1, noise_mod.stream(301, k, ROLE_MIDPOINTS))
        nd = noise_mod.draw_vanilla_noise(1, h, 2, u, noise_mod.stream(301, k, ROLE_PATH))
        g1 = ref.gradient(theta)
        mid = theta - (h * min(1.0, u[0])) * g1 + nd.xi_mid[0]
        theta = theta - (h / 1) * ref.gradient(mid) + nd.xi_full
    rlmc_ok = np.array_equal(engine, theta)

    # pRKLMC(R=1, Q=2) vs the library RKLMC (structural) and vs an
    # independent psi-form implementation (tight numerical agreement)
    gamma = 6.0
    cfgk = SamplerConfig(h=h, n=n, R=1, Q=2, gamma=gamma, seed=302,
                         theta0=theta0, v0=np.array([0.2, -0.4]))
    a = _silent_run("prklmc", cfgk, QuadraticPotential.from_diagonal([1.0, 3.0]),
                    record_every=10**9).final_state
    b = _silent_run("rklmc", cfgk, QuadraticPotential.from_diagonal([1.0, 3.0]),
                    record_every=10**9).final_state
    rklmc_ok = np.array_equal(a.theta, b.theta) and np.array_equal(a.v, b.v)

    from parlmc import psi

    theta, v = theta0.copy(), np.array([0.2, -0.4])
    ref = QuadraticPotential.from_diagonal([1.0, 3.0])
    for k in range(n):
        u = noise_mod.draw_midpoints(1, noise_mod.stream(302, k, ROLE_MIDPOINTS))[0]
        nd = noise_mod.draw_kinetic_noise(1, gamma, h, 2, np.array([u]),
                                          noise_mod.stream(302, k, ROLE_PATH))
        g = ref.gradient(theta)
        mid = theta + u * h * psi(gamma * u * h) * v - u * h * (1 - psi(gamma * u * h)) * g + nd.xi_mid[0]
        gm = ref.gradient(mid)
        theta = theta + h * psi(gamma * h) * v \
            - gamma * h * h * (1 - u) * psi(gamma * h * (1 - u)) * gm + nd.xi_full
        v = np.exp(-gamma * h) * v - gamma * h * np.exp(-gamma * h * (1 - u)) * gm + gamma * nd.xi_bar
    psi_ok = np.allclose(a.theta, theta, rtol=1e-12, atol=1e-14) and \
        np.allclose(a.v, v, rtol=1e-12, atol=1e-14)

    # pRLMC(Q=1) vs LMC under the shared full increment
    cfg1 = SamplerConfig(h=h, n=n, R=4, Q=1, seed=303, theta0=theta0)
    engine_q1 = _silent_run("prlmc", cfg1, QuadraticPotential.from_diagonal([1.0, 3.0]),
                            record_every=10**9).final_state.theta
    state = ChainState(theta=theta0.copy())
    ref = QuadraticPotential.from_diagonal([1.0, 3.0])
    for k in range(n):
        u = noise_mod.draw_midpoints(4, noise_mod.stream(303, k, ROLE_MIDPOINTS))
        nd = noise_mod.draw_vanilla_noise(4, h, 2, u, noise_mod.stream(303, k, ROLE_PATH))
        state = step("lmc", state, cfg1, ref, noise=nd.xi_full)
    lmc_ok = np.array_equal(engine_q1, state.theta)

    _report(3, "reduction equivalences",
            rlmc_ok and rklmc_ok and psi_ok and lmc_ok,
            f"rlmc bitwise={rlmc_ok}, rklmc bitwise={rklmc_ok}, psi-form={psi_ok}, lmc bitwise={lmc_ok}")


def test_criterion_04_theorem1_bound_respected():
    start = time.perf_counter()
    p, n_chains, n = 10, 10_000, 2000
    pot, target, w2_init = _desk_target(p)
    cfg = SamplerConfig(h=0.005, n=n, R=4, Q=3, seed=401, theta0=np.zeros(p))  # M h = 0.05
    boot_rng = np.random.default_rng(402)

    def metric(_, state):
        summary = empirical_summary(state.theta)
        return {
            "w2": w2_gaussian(summary, target),
            "sigma": _bootstrap_w2_sigma(state.theta, target, boot_rng),
        }

    trace = _silent_run("prlmc", cfg, pot, n_chains=n_chains, record_every=100, metric_fn=metric)
    violations = []
    for row in trace.rows:
        bound = theorem1_bound(h=cfg.h, Q=cfg.Q, R=cfg.R, m=1.0, M=10.0, p=p,
                               w2_init=w2_init, n=row["iteration"])
        if row["w2"] > bound.total + 3 * row["sigma"]:
            violations.append((row["iteration"], row["w2"], bound.total))
    elapsed = time.perf_counter() - start
    _report(4, "Theorem-1 bound respected", not violations and elapsed < 300.0,
            f"{len(trace.rows)} snapshots, violations={violations}, {elapsed:.0f}s")


def test_criterion_05_theorem2_bound_respected():
    start = time.perf_counter()
    p, n_chains, n = 10, 10_000, 2000
    pot, target, w2_init = _desk_target(p)
    gamma = 50.0  # 5 M
    cfg = SamplerConfig(h=0.001, n=n, R=4, Q=3, gamma=gamma, seed=501,
                        theta0=np.zeros(p))  # gamma h = 0.05; theta0 = minimizer
    boot_rng = np.random.default_rng(502)

    def metric(_, state):
        summary = empirical_summary(state.theta)
        return {
            "w2": w2_gaussian(summary, target),
            "sigma": _bootstrap_w2_sigma(state.theta, target, boot_rng),
        }

    trace = _silent_run("prklmc", cfg, pot, n_chains=n_chains, record_every=100, metric_fn=metric)
    violations = []
    for row in trace.rows:
        bound = theorem2_bound(h=cfg.h, Q=cfg.Q, R=cfg.R, m=1.0, M=10.0, gamma=gamma,
                               p=p, w2_init=w2_init, f_gap=0.0, n=row["iteration"])
        if row["w2"] > bound.total + 3 * row["sigma"]:
            violations.append((row["iteration"], row["w2"], bound.total))
    elapsed = time.perf_counter() - start
    _report(5, "Theorem-2 bound respected", not violations and elapsed < 300.0,
            f"{len(trace.rows)} snapshots, violations={violations}, {elapsed:.0f}s")


def _stationary_w2(Q, R, seed):
    """Tail-averaged stationary W2 plus a chain-bootstrap sigma of that average."""
    p, n_chains, n = 4, 12_000, 1000
    pot, target, _ = _desk_target(p)
    cfg = SamplerConfig(h=0.005, n=n, R=R, Q=Q, seed=seed, theta0=np.zeros(p))
    tail_states = []

    def metric(iteration, state):
        if iteration >= n - 300:
            tail_states.append(state.theta.copy())
        return {}

    _silent_run("prlmc", cfg, pot, n_chains=n_chains, record_every=50, metric_fn=metric)
    estimate = float(np.mean([
        w2_gaussian(empirical_summary(theta), target) for theta in tail_states
    ]))
    rng = np.random.default_rng(seed + 1)
    boots = []
    for _ in range(50):
        idx = rng.integers(0, n_chains, size=n_chains)
        boots.append(np.mean([
            w2_gaussian(empirical_summary(theta[idx]), target) for theta in tail_states
        ]))
    return estimate, float(np.std(boots))


def test_criterion_06_monotone_improvement():
    # At desk scale the Q=3 chains are accurate enough that the empirical-W2
    # floor (finite-ensemble moment noise) dominates the R comparisons; the
    # 2-sigma slack absorbs that floor noise, which is what the criterion's
    # "up to ensemble noise" qualifier is for.  The Q sweep resolves cleanly.
    start = time.perf_counter()
    q_sweep = {q: _stationary_w2(q, 4, seed=600 + q) for q in (1, 2, 3)}
    r_sweep = {1: _stationary_w2(3, 1, seed=611), 2: _stationary_w2(3, 2, seed=612),
               4: q_sweep[3], 8: _stationary_w2(3, 8, seed=618)}

    def chain_ok(sweep, keys):
        for a, b in zip(keys, keys[1:]):
            w2a, sa = sweep[a]
            w2b, sb = sweep[b]
            if w2b > w2a + 2.0 * math.hypot(sa, sb):
                return False, (a, b, w2a, w2b)
        return True, None

    q_ok, q_bad = chain_ok(q_sweep, [1, 2, 3])
    r_ok, r_bad = chain_ok(r_sweep, [1, 2, 4, 8])
    elapsed = time.perf_counter() - start
    detail = (f"Q: {[(q, round(v[0], 4)) for q, v in q_sweep.items()]} "
              f"R: {[(r, round(v[0], 4)) for r, v in r_sweep.items()]} {elapsed:.0f}s"
              + ("" if q_ok and r_ok else f" bad={q_bad or r_bad}"))
    _report(6, "monotone improvement in Q and R", q_ok and r_ok, detail)


def test_criterion_07_lmc_ar1_variance():
    pot = QuadraticPotential(np.array([[1.0]]))
    h, n_chains = 0.1, 100_000
    cfg = SamplerConfig(h=h, n=120, seed=701, theta0=np.zeros(1))
    trace = _silent_run("lmc", cfg, pot, n_chains=n_chains, record_every=10**9)
    var = float(trace.final_state.theta[:, 0].var(ddof=1))
    target = 2.0 / (2.0 - h)
    se = target * math.sqrt(2.0 / (n_chains - 1))
    _report(7, "LMC AR(1) stationary variance", abs(var - target) < 3 * se,
            f"var = {var:.5f} vs {target:.5f} (3se = {3 * se:.5f})")


def test_criterion_08_kinetic_ou_velocity_variance():
    gamma, h, n_chains = 1.0, 0.1, 100_000
    pot = QuadraticPotential(np.array([[1e-12]]))  # effectively zero gradient
    cfg = SamplerConfig(h=h, n=30, R=1, Q=2, gamma=gamma, seed=801, theta0=np.zeros(1))
    trace = _silent_run("prklmc", cfg, pot, n_chains=n_chains, record_every=10**9)
    var = float(trace.final_state.v[:, 0].var(ddof=1))
    se = gamma * math.sqrt(2.0 / (n_chains - 1))
    _report(8, "kinetic velocity OU variance", abs(var - gamma) < 3 * se,
            f"Var(v) = {var:.5f} vs {gamma} (3se = {3 * se:.5f})")


def test_criterion_09_accounting_identities():
    results = []
    pot = QuadraticPotential.from_diagonal([1.0, 10.0])
    t = _silent_run("prlmc", SamplerConfig(h=0.004, n=7, R=4, Q=3, seed=901), pot)
    results.append(t.counters == {"gradient_evals": 7 * 3 * 4, "sequential_rounds": 7 * 3})
    t = _silent_run("prlmc", SamplerConfig(h=0.004, n=7, R=4, Q=3, seed=901, parallel_width=3), pot)
    results.append(t.counters["sequential_rounds"] == 7 * 3 * 2)
    t = _silent_run("prklmc", SamplerConfig(h=0.002, n=5, R=8, Q=2, gamma=50.0, seed=902), pot)
    results.append(t.counters == {"gradient_evals": 5 * 2 * 8, "sequential_rounds": 5 * 2})
    t = _silent_run("prklmc", SamplerConfig(h=0.002, n=5, R=8, Q=2, gamma=50.0, seed=902,
                                            parallel_width=5), pot)
    results.append(t.counters["sequential_rounds"] == 5 * 2 * math.ceil(8 / 5))
    _report(9, "round/evaluation accounting", all(results), f"checks = {results}")


def test_criterion_10_parallel_speedup():
    tau, R, Q, n = 1e-3, 8, 3, 12

    def per_iteration(width):
        pot = SyntheticDelayPotential(2, tau)
        cfg = SamplerConfig(h=0.01, n=n, R=R, Q=Q, seed=1000, parallel_width=width,
                            theta0=np.zeros(2))
        trace = _silent_run("prlmc", cfg, pot, record_every=10**9)
        return trace.elapsed_seconds / n

    serial = per_iteration(1)
    wide = per_iteration(8)
    _report(10, "parallel speedup", wide <= 0.5 * serial,
            f"width 1: {serial * 1e3:.1f} ms/iter, width 8: {wide * 1e3:.1f} ms/iter, "
            f"speedup {serial / wide:.1f}x")


def test_criterion_11_tuning_formulas():
    vp = tune_vanilla(TuneRequest(epsilon=0.5, m=1.0, M=100.0, p=10, regime="vanilla", w2_init=3.0))
    kp = tune_kinetic(TuneRequest(epsilon=0.5, m=1.0, M=100.0, p=10, regime="kinetic", w2_init=3.0))
    checks = [
        vp.R == 7,
        vp.Q == 5,
        vp.h * 100.0 == pytest.approx(0.1),
        kp.R == 28,
        kp.Q == 8,
        kp.gamma == pytest.approx(500.0),
        kp.gamma * kp.h == pytest.approx(0.1),
        all(c.passed for c in vp.preconditions),
        all(c.passed for c in kp.preconditions),
    ]
    _report(11, "tuning formulas", all(checks),
            f"vanilla (R={vp.R}, Q={vp.Q}), kinetic (R={kp.R}, Q={kp.Q}, gamma={kp.gamma})")


def test_criterion_12_gradient_oracle_validation():
    rng = np.random.default_rng(1200)
    X = rng.standard_normal((60, 5))
    y = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    pot = LogisticRidgePotential(X, y, ridge=0.8)
    worst = max(check_gradient_fd(pot, rng.standard_normal(5), step=1e-5) for _ in range(100))
    _report(12, "finite-difference gradient validation", worst < 1e-6,
            f"max relative error over 100 points = {worst:.2e}")


def test_large_kappa_smoke_run():
    """Documented large-kappa smoke check: kappa = 1e4, small n, no divergence."""
    m, M = 1.0, 1e4
    pot = QuadraticPotential.from_diagonal([m, M, 100.0])
    plan = tune_vanilla(TuneRequest(epsilon=0.5, m=m, M=M, p=3, regime="vanilla", w2_init=1.0))
    cfg = SamplerConfig(h=plan.h, n=20, R=plan.R, Q=plan.Q, seed=1300, theta0=np.zeros(3))
    trace = _silent_run("prlmc", cfg, pot, n_chains=4, record_every=10)
    assert np.all(np.isfinite(trace.final_state.theta))
    potk = QuadraticPotential.from_diagonal([m, M, 100.0])
    plank = tune_kinetic(TuneRequest(epsilon=0.5, m=m, M=M, p=3, regime="kinetic", w2_init=1.0))
    cfgk = SamplerConfig(h=plank.h, n=20, R=min(plank.R, 32), Q=plank.Q, gamma=plank.gamma,
                         seed=1301, theta0=np.zeros(3))
    tracek = _silent_run("prklmc", cfgk, potk, n_chains=4, record_every=10)
    assert np.all(np.isfinite(tracek.final_state.theta))
