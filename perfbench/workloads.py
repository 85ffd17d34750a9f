"""The workloads: inputs made from the seed, the user's set-up, timed blocks
of outer iterations, and the checks of what parlmc returns.

Every timed block is one call of ``parlmc.samplers.run`` that continues the
chains where the previous block left them, under a fresh noise seed, so a
run is one long stationary trajectory cut into equal blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
import parlmc
import parlmc.metrics as pm
import parlmc.samplers

DESK_DIAG = np.linspace(1.0, 10.0, 10)
LOGISTIC_ROWS = 2000
LOGISTIC_DIM = 10
LOGISTIC_RIDGE = 1.0
LOGISTIC_KAPPA = 4.0
REGIME = {"prlmc": "vanilla", "prklmc": "kinetic"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    chains: int
    block_steps: int     # outer iterations per timed block
    record_every: int    # snapshots handed to the metric function
    check: str           # "batch-means" | "w2" | "stein"; "stein" workloads sample the logistic target
    timing: str = "median"  # "median" of all blocks | "floor": median over windows of each window's fastest block
    epsilon: float | None = None   # tuned: take (R, Q, h, gamma) from parlmc.tune at this precision
    R: int = 4
    Q: int = 3
    hbar: float = 0.05   # M*h when not tuned


WORKLOADS = {
    w.name: w
    for w in (
        # Interpreter-bound: a busy neighbour slows its blocks by up to 1.7x, so it is timed by its floor.
        Workload("single-chain", "prlmc", chains=1, block_steps=20, record_every=10, check="batch-means",
                 timing="floor"),
        Workload("kinetic-tuned", "prklmc", chains=300, block_steps=4, record_every=4, check="w2",
                 epsilon=0.5),
        Workload("vanilla-tuned", "prlmc", chains=1000, block_steps=2, record_every=2, check="w2",
                 epsilon=0.1),
        Workload("logistic-parallel", "prlmc", chains=50, block_steps=4, record_every=4, check="stein",
                 hbar=0.1),
    )
}


@dataclass
class Session:
    """What a user holds after set-up: potential, sampler config, metric function."""

    workload: Workload
    potential: parlmc.Potential
    config: parlmc.SamplerConfig
    metric: object

    @property
    def initial(self) -> parlmc.ChainState:
        return parlmc.ChainState(theta=self.config.theta0, v=self.config.v0)


# ---------------------------------------------------------------- inputs


def _logistic_data(rng: np.random.Generator):
    """Gaussian rows scaled so that kappa = 1 + |X|_op^2 / (4 ridge) is LOGISTIC_KAPPA."""
    X = rng.standard_normal((LOGISTIC_ROWS, LOGISTIC_DIM))
    scale = math.sqrt(4.0 * LOGISTIC_RIDGE * (LOGISTIC_KAPPA - 1.0)) / np.linalg.norm(X, 2)
    X *= scale
    # Logits x.theta_true of order one: the labels carry information.
    theta_true = rng.standard_normal(LOGISTIC_DIM) / (scale * math.sqrt(LOGISTIC_DIM))
    prob = 0.5 * (1.0 + np.tanh(0.5 * (X @ theta_true)))
    y = np.where(rng.random(LOGISTIC_ROWS) < prob, 1.0, -1.0)
    return X, y


def _laplace_draws(X, y, chains, rng):
    """The minimizer theta* by a numpy Newton solve, and draws from N(theta*, H(theta*)^-1)."""
    theta = np.zeros(X.shape[1])
    for _ in range(50):
        grad = checks.logistic_gradient(theta, X, y, LOGISTIC_RIDGE)
        s = 0.5 * (1.0 - np.tanh(0.5 * (X @ theta) * y))
        hess = X.T @ (X * (s * (1.0 - s))[:, None]) + LOGISTIC_RIDGE * np.eye(X.shape[1])
        step = np.linalg.solve(hess, grad)
        theta = theta - step
        if np.max(np.abs(step)) < 1e-13:
            break
    factor = np.linalg.cholesky(np.linalg.inv(hess))
    return theta, theta + rng.standard_normal((chains, X.shape[1])) @ factor.T


def make_inputs(w: Workload, seed: int, directory: Path) -> dict:
    """Starting chains (exact target draws, or Laplace draws for the logistic target) and data."""
    rng = np.random.default_rng([seed, 2402])
    dim = LOGISTIC_DIM if w.check == "stein" else DESK_DIAG.size
    inputs = {"velocity_normals": rng.standard_normal((w.chains, dim))}
    if w.check == "stein":
        X, y = _logistic_data(rng)
        theta_star, theta0 = _laplace_draws(X, y, w.chains, rng)
        inputs.update(X=X, y=y, theta_star=theta_star, theta0=theta0, csv=str(directory / "data.csv"))
        header = ",".join(["y"] + [f"x{i}" for i in range(1, X.shape[1] + 1)])
        np.savetxt(inputs["csv"], np.column_stack([y, X]), fmt="%.17g", delimiter=",", header=header, comments="")
    else:
        inputs["theta0"] = rng.standard_normal((w.chains, dim)) / np.sqrt(DESK_DIAG)
    if w.chains == 1:
        inputs["theta0"] = inputs["theta0"][0]
        inputs["velocity_normals"] = inputs["velocity_normals"][0]
    return inputs


# ---------------------------------------------------------------- set-up


def setup(w: Workload, inputs: dict) -> tuple[Session, dict]:
    """The user's set-up: potential, tuning or precondition check, initial state.

    Returns the session and the seconds spent on the potential and on tuning
    (which includes the precondition check and building the initial state).
    """
    t0 = perf_counter()
    if w.check == "stein":
        potential = parlmc.LogisticRidgePotential.from_csv(inputs["csv"], LOGISTIC_RIDGE)
    else:
        potential = parlmc.QuadraticPotential(np.diag(DESK_DIAG))
    t1 = perf_counter()
    spec = potential.spec
    regime = REGIME[w.kind]
    if w.epsilon is not None:
        plan = parlmc.tune(parlmc.TuneRequest(
            epsilon=w.epsilon, m=spec.strong_convexity, M=spec.smoothness, p=spec.dimension, regime=regime,
        ))
        R, Q, h, gamma = plan.R, plan.Q, plan.h, plan.gamma
    else:
        R, Q, h, gamma = w.R, w.Q, w.hbar / spec.smoothness, None
    config = parlmc.SamplerConfig(
        h=h, n=w.block_steps, R=R, Q=Q, gamma=gamma, theta0=inputs["theta0"],
        v0=None if gamma is None else math.sqrt(gamma) * inputs["velocity_normals"],
    )
    failing = [c.name for c in parlmc.check_preconditions(config, spec, regime) if not c.passed]
    t2 = perf_counter()
    if failing:
        raise RuntimeError(f"{w.name}: stability preconditions fail: {failing}")
    session = Session(w, potential, config, _metric_fn(w, potential, config))
    return session, {"potential_s": t1 - t0, "tune_s": t2 - t1}


def _metric_fn(w: Workload, potential, config):
    """Per-snapshot metrics built from parlmc.metrics, as ``parlmc sample`` builds them."""
    spec = potential.spec
    if not isinstance(potential, parlmc.QuadraticPotential):
        previous = {}

        def drift(iteration, state):
            summary = pm.empirical_summary(state.theta)
            moved = 0.0
            if previous:
                moved = float(np.linalg.norm(summary.mean - previous["mean"])
                              + np.linalg.norm(summary.covariance - previous["cov"]))
            previous.update(mean=summary.mean, cov=summary.covariance)
            return {"moment_drift": moved}

        return drift

    target = pm.GaussianSummary(mean=potential.mean, covariance=potential.target_covariance())
    m, M, p = spec.strong_convexity, spec.smoothness, spec.dimension

    def gaussian(iteration, state):
        if w.chains > p:
            row = {"w2": pm.w2_gaussian(pm.empirical_summary(state.theta), target)}
        else:
            row = {"dist_to_mean": float(np.sqrt(np.sum((state.theta - potential.mean) ** 2, axis=-1)).max())}
        if config.gamma is None:
            bound = pm.theorem1_bound(h=config.h, Q=config.Q, R=config.R, m=m, M=M, p=p, w2_init=0.0, n=iteration)
        else:
            bound = pm.theorem2_bound(h=config.h, Q=config.Q, R=config.R, m=m, M=M, gamma=config.gamma, p=p,
                                      w2_init=0.0, f_gap=p / 2.0, n=iteration)
        row.update(bound_total=bound.total, bound_initialization=bound.initialization_term,
                   bound_discretization=bound.discretization_term)
        return row

    return gaussian


# ---------------------------------------------------------------- timed blocks


@dataclass
class Blocks:
    """Outcome of consecutive blocks: final state, per-block timings, check results."""

    state: parlmc.ChainState
    steps_per_block: int
    wall: list = field(default_factory=list)   # seconds per block
    cpu: list = field(default_factory=list)    # process CPU seconds per block
    verdicts: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # thetas at each snapshot, batch-means workloads

    @property
    def steps(self) -> int:
        return self.steps_per_block * len(self.wall)


def block_seed(seed: int, block: int) -> int:
    return seed * 1_000_003 + block


def run_blocks(session: Session, seed: int, state, first_block: int, *, count=None, until=None,
               wrap=lambda fn: fn) -> Blocks:
    """Run blocks from `state` until `count` blocks ran or perf_counter() passed `until` (at least one)."""
    w, config = session.workload, session.config
    metric = wrap(session.metric)
    out = Blocks(state, config.n)
    capture = w.check == "batch-means"

    def record(iteration, st):
        if capture and iteration > 0:
            out.snapshots.append(st.theta)
        return metric(iteration, st)

    block = first_block
    while (count is None or len(out.wall) < count) and (until is None or not out.wall or perf_counter() < until):
        cfg = dataclasses.replace(config, seed=block_seed(seed, block), theta0=out.state.theta, v0=out.state.v)
        cpu0, wall0 = process_time(), perf_counter()
        trace = parlmc.samplers.run(w.kind, cfg, session.potential, n_chains=w.chains,
                                    record_every=w.record_every, metric_fn=record)
        wall1, cpu1 = perf_counter(), process_time()
        out.wall.append(wall1 - wall0)
        out.cpu.append(cpu1 - cpu0)
        out.state = trace.final_state
        ok_cost, detail_cost = checks.cost_model(trace.counters, config.n, config.R, config.Q)
        ok_finite, detail_finite = checks.all_finite(f"block {block} final state", out.state.theta, out.state.v)
        if not ok_cost:
            out.verdicts.append((False, f"block {block}: {detail_cost}"))
        if not ok_finite:
            out.verdicts.append((False, detail_finite))
        block += 1
    return out


def final_checks(session: Session, inputs: dict, state, snapshots, steps: int, seed: int) -> list[tuple[bool, str]]:
    """The workload's statistical check on the chains `steps` outer iterations after the start."""
    w, config, spec = session.workload, session.config, session.potential.spec
    rng = np.random.default_rng([seed, 7])
    if w.check == "batch-means":
        quad = [float(np.sum(DESK_DIAG * theta * theta)) for theta in snapshots]
        return [checks.batch_means(quad, float(spec.dimension))]
    if w.check == "stein":
        grad = checks.logistic_gradient(state.theta, inputs["X"], inputs["y"], LOGISTIC_RIDGE)
        return [checks.stein_identities(state.theta, grad, inputs["theta_star"])]
    m, M, p = spec.strong_convexity, spec.smoothness, spec.dimension
    if config.gamma is None:
        allowance = checks.theorem1_allowance(h=config.h, Q=config.Q, R=config.R, m=m, M=M, p=p)
    else:
        allowance = checks.theorem2_allowance(h=config.h, Q=config.Q, R=config.R, m=m, M=M,
                                              gamma=config.gamma, p=p, f_gap=p / 2.0, n=steps)
    verdicts = [checks.w2_within(state.theta, np.diag(1.0 / DESK_DIAG), allowance, rng)]
    if config.gamma is not None:
        verdicts.append(checks.velocity_variance(state.v, config.gamma))
    return verdicts
