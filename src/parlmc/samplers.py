"""Langevin samplers over the potential, noise, and round-execution layers.

Five kinds share one inner-loop engine, parameterized by the coefficient
rule, the noise family, and whether a velocity is carried:

* ``lmc``     Euler step  theta' = theta - h grad f(theta) + sqrt(2h) z: the
  engine at R = 1, Q = 1, drawing z alone.
* ``rlmc``    randomized midpoint, the engine at R = 1, Q = 2 (vanilla rule).
* ``prlmc``   parallel randomized midpoint: per outer step, Q - 1 refinement
  rounds update R stratified midpoint states
  theta_r = theta - h sum_{j<=r} a_{jr} grad f(theta_j^{prev}) + xi_r
  with a_{jr} = min{1/R, U_r - (j-1)/R}, then one final round gives
  theta' = theta - (h/R) sum_r grad f(theta_r) + xi.
* ``rklmc``   kinetic randomized midpoint, the engine at R = 1, Q = 2
  (kinetic rule); equals the exponential-integrator two-stage scheme written
  with psi(x) = (1 - e^{-x})/x: at R = 1 the velocity weight is
  U h psi(gamma U h), the gradient weight is U h (1 - psi(gamma U h)), and the
  final-stage weights reduce to h psi(gamma h) and gamma h^2 (1 - U) psi(gamma h (1 - U)).
* ``prklmc``  parallel kinetic variant: refinement rounds use
  theta_r = theta + a_r v - sum_{j<=r} b_j grad f(theta_j^{prev}) + xi_r with
  a_r = (1 - e^{-gamma h U_r})/gamma, then
  theta' = theta + ((1 - e^{-gamma h})/gamma) v
           - sum_r (h/R)(1 - e^{-gamma h (1-U_r)}) grad f(theta_r) + xi
  and v' = e^{-gamma h} v - gamma sum_r (h/R) e^{-gamma h (1-U_r)} grad f(theta_r)
           + gamma xi_bar.

Each engine outer step costs exactly Q gradient rounds of width R: gradients
are computed once per refinement round and reused across the prefix sums
(without this caching the refinement would cost O(R^2) evaluations), and the
final update evaluates the fresh round-(Q-1) states.

A round is one slot-major (R, ..., p) array, the shape of ``xi_mid``: slot r
at [r] is one contiguous (..., p) block like theta, and ``execute_round``
returns its gradients in the same shape.  The prefix combine is
``noise._drift_walker``, an O(R) walk over the slots that carries prefix sums
of the earlier slots' gradients, plus a per-chain own-cell term; no (R, R)
weight array is built.  The final slot sums add one slot at a time.  Every
step of both is elementwise over chains, so the bits do not depend on the
chain count.

States are vectorized: theta has shape (p,) for one chain or (C, p) for an
ensemble advancing in lockstep.  All randomness is keyed by (seed, iteration,
role), so trajectories are bitwise independent of the parallel schedule.
`step(kind, state, config, potential)` advances one outer iteration at the
kind's (R, Q) from `effective_rq`; its `noise` override lets tests force zero
or fixed noise, and the `run` driver never overrides.

A step's (R, ..., p) arrays (normals, path, points, gradients, walk scratch)
come from ``noise._take`` on one workspace dict per thread, not per run:
resumed chains call ``run`` once per block.  Every kind and shape shares it,
and it keeps one buffer per name, sized to the largest step it has served.
"""

from __future__ import annotations

import csv
import io
import json
import threading
import warnings as _warnings
from dataclasses import dataclass, field, fields
from time import perf_counter

import numpy as np

from . import noise as noise_mod
from .errors import ConfigurationError, DivergenceError
from .parallel import _repeat_view, execute_round
from .potentials import Potential
from .tuning import _checks

VANILLA_KINDS = ("lmc", "rlmc", "prlmc")
KINETIC_KINDS = ("rklmc", "prklmc")
KINDS = VANILLA_KINDS + KINETIC_KINDS
_PINNED_RQ = {"lmc": (1, 1), "rlmc": (1, 2), "rklmc": (1, 2)}  # the sequential baselines

# Divergence: an iterate norm not <= this multiple of (1 + ||theta_0||), NaN included.
DIVERGENCE_FACTOR = 1e8

_workspace = threading.local()  # per thread: "work", the noise._take dict of every step it runs


class PreconditionWarning(UserWarning):
    """A theorem stability precondition fails for the supplied parameters."""


@dataclass
class SamplerConfig:
    """Step size h, width R, refinement depth Q, length n, friction gamma."""

    h: float
    n: int
    R: int = 1
    Q: int = 1
    gamma: float | None = None
    seed: int = 0
    parallel_width: int | None = None
    theta0: np.ndarray | None = None
    v0: np.ndarray | None = None

    def __post_init__(self):
        if self.h <= 0:
            raise ConfigurationError(f"step size must be positive, got {self.h}")
        if self.n < 0:
            raise ConfigurationError(f"iteration count must be >= 0, got {self.n}")
        if int(self.R) < 1:
            raise ConfigurationError(f"parallel width R must be >= 1, got {self.R}")
        if int(self.Q) < 1:
            raise ConfigurationError(f"refinement depth Q must be >= 1, got {self.Q}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigurationError(f"friction must be positive, got {self.gamma}")
        if self.parallel_width is not None and int(self.parallel_width) < 1:
            raise ConfigurationError(f"parallel_width must be >= 1, got {self.parallel_width}")
        self.R = int(self.R)
        self.Q = int(self.Q)
        self.n = int(self.n)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("theta0", "v0"):
            out[key] = None if out[key] is None else np.asarray(out[key]).tolist()
        return out


@dataclass
class ChainState:
    """Current iterate(s); velocity present for kinetic kinds only."""

    theta: np.ndarray
    iteration: int = 0
    v: np.ndarray | None = None


def effective_rq(kind: str, config: SamplerConfig) -> tuple[int, int]:
    """(R, Q) actually used by a kind; the sequential baselines pin R=1.  Rejects an unknown kind, or a kinetic
    one without gamma."""
    if kind not in KINDS:
        raise ConfigurationError(f"unknown sampler kind {kind!r}; choose from {KINDS}")
    if config.gamma is None and kind in KINETIC_KINDS:
        raise ConfigurationError(f"{kind} requires a friction coefficient gamma")
    return _PINNED_RQ.get(kind, (config.R, config.Q))


def _preconditions(kind: str, config: SamplerConfig, spec):
    """Regime, effective (R, Q) and the stability checks there; `run` and ``parlmc check`` share it."""
    R, Q = effective_rq(kind, config)
    regime = "kinetic" if kind in KINETIC_KINDS else "vanilla"
    return regime, R, Q, _checks(regime, config.h, R, Q, config.gamma, spec.strong_convexity, spec.smoothness)


def _draw(kind, config, k, R, theta, work):
    """Iteration k's noise: lmc's bare xi, else the midpoints and the regime's path draw."""
    if kind == "lmc":
        rng = noise_mod.stream(config.seed, k, noise_mod.ROLE_PATH, work)
        return np.sqrt(2.0 * config.h) * rng.standard_normal(theta.shape)
    size = None if theta.ndim == 1 else theta.shape[0]
    u = noise_mod.draw_midpoints(R, noise_mod.stream(config.seed, k, noise_mod.ROLE_MIDPOINTS, work), size=size)
    rng = noise_mod.stream(config.seed, k, noise_mod.ROLE_PATH, work)  # the same generator, re-keyed
    if kind in KINETIC_KINDS:
        return noise_mod.draw_kinetic_noise(R, config.gamma, config.h, theta.shape[-1], u, rng, work=work)
    return noise_mod.draw_vanilla_noise(R, config.h, theta.shape[-1], u, rng, work=work)


def _refine(kind, theta, v, R, Q, noise, config, potential, work):
    """(R, ..., p) gradients of the last round's points, after Q - 1 refinement rounds.

    The first round is theta broadcast to every slot, one oracle call; each
    refinement round sets the points to base - drift + xi_mid, with the
    regime's base and the drift of the step's one `noise._drift_walker`,
    all in the step's `work` buffers.
    """
    width = config.parallel_width
    shape = (R,) + theta.shape
    grads = execute_round(_repeat_view(theta, R), potential, width)
    if Q > 1:
        h = config.h
        gamma = config.gamma if kind in KINETIC_KINDS else None
        base = theta
        if gamma is not None:
            a = noise_mod._em1(gamma * h * noise.U) / gamma              # (..., R) velocity weight
            base = np.multiply(noise_mod._slot_view(a)[..., None], v, out=noise_mod._take(work, "D", shape))
            base += theta  # in place: a fresh broadcast sum is several times slower
        walk = noise_mod._drift_walker(R, h, noise.U, gamma, work)
        points, out = noise_mod._take(work, "points", shape), noise_mod._take(work, "grads", shape)
    for _ in range(1, Q):
        walk(grads, out=points)
        np.subtract(base, points, out=points)
        points += noise.xi_mid
        grads = execute_round(points, potential, width, out=out)
    return grads


def _slot_sum(grads, weights=None):
    """Sum over the slots of (R, ..., p) gradients, optionally weighted by (R, ..., 1).

    One slot add at a time, so the bits do not depend on the chain count.
    """
    total = grads[0].copy() if weights is None else weights[0] * grads[0]
    for r in range(1, len(grads)):
        total += grads[r] if weights is None else weights[r] * grads[r]
    return total


def step(kind: str, state: ChainState, config: SamplerConfig, potential: Potential, noise=None) -> ChainState:
    """One outer iteration of `kind` at its effective (R, Q).

    `noise` replaces the keyed draw: a VanillaNoiseDraw or KineticNoiseDraw
    for the kind's regime, or for lmc also the bare xi array.  A step nested in
    an oracle finds its thread's workspace taken and uses new arrays; the
    returned state shares no memory with the workspace.
    """
    R, Q = effective_rq(kind, config)
    theta, v, h, gamma = state.theta, state.v, config.h, config.gamma
    if v is None and kind in KINETIC_KINDS:
        raise ConfigurationError(f"{kind} requires a velocity: the state's v is None")
    work = vars(_workspace).pop("work", {})  # taken while this step runs, put back however it ends
    try:
        if noise is None:
            noise = _draw(kind, config, state.iteration, R, theta, work)
        bare = kind == "lmc" and not isinstance(noise, noise_mod.VanillaNoiseDraw)
        xi = np.asarray(noise) if bare else noise.xi_full
        grads = _refine(kind, theta, v, R, Q, noise, config, potential, work)
        if kind in KINETIC_KINDS:
            tail = noise_mod._slot_view(gamma * h * (1.0 - noise.U))[..., None]  # (R, ..., 1)
            sum_theta = _slot_sum(grads, (h / R) * noise_mod._em1(tail))
            sum_v = _slot_sum(grads, (h / R) * np.exp(-tail))
            new_theta = theta + (noise_mod._em1(gamma * h) / gamma) * v - sum_theta + xi
            v = np.exp(-gamma * h) * v - gamma * sum_v + gamma * noise.xi_bar
        else:
            new_theta = theta - (h / R) * _slot_sum(grads) + xi
            v = None
    finally:
        _workspace.work = work
    return ChainState(theta=new_theta, iteration=state.iteration + 1, v=v)


@dataclass
class RunTrace:
    """Recorded snapshots, counters, and the echoed configuration of a run.

    CSV rows carry only deterministic columns so that identical (config,
    seed) reruns are byte-identical; wall-clock timings live in the JSON
    serialization only.
    """

    kind: str
    config: dict
    n_chains: int
    rows: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    warnings: list[str] = field(default_factory=list)
    final_state: ChainState | None = None  # not serialized

    _NONDETERMINISTIC = ("elapsed_seconds",)

    def csv_columns(self) -> list[str]:
        return list(dict.fromkeys(key for row in self.rows for key in row if key not in self._NONDETERMINISTIC))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        cols = self.csv_columns()
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow([row.get(c, "") for c in cols])
        return out.getvalue()

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "final_state"}
        return json.dumps(payload, indent=2, sort_keys=True)


def _initial_theta(config, potential, n_chains):
    """Start of every chain: theta0, else the potential's minimizer, else zeros."""
    p = potential.spec.dimension
    if config.theta0 is not None:
        theta0 = np.asarray(config.theta0, dtype=float)
    elif potential.spec.minimizer is not None:
        theta0 = np.asarray(potential.spec.minimizer, dtype=float)
    else:
        theta0 = np.zeros(p)
    if theta0.ndim == 1:
        if theta0.shape != (p,):
            raise ConfigurationError(f"theta0 must have dimension {p}")
        if n_chains > 1:
            theta0 = np.broadcast_to(theta0, (n_chains, p)).copy()
    else:
        if theta0.shape != (n_chains, p):
            raise ConfigurationError(f"theta0 must be ({n_chains}, {p}) for this ensemble")
        theta0 = theta0.copy()
    return theta0


def _initial_state(kind, config, potential, n_chains):
    theta0 = _initial_theta(config, potential, n_chains)
    v0 = None
    if kind in KINETIC_KINDS:
        if config.v0 is not None:
            v0 = np.broadcast_to(np.asarray(config.v0, dtype=float), theta0.shape).copy()
        else:
            rng = noise_mod.stream(config.seed, 0, noise_mod.ROLE_VELOCITY)
            v0 = np.sqrt(config.gamma) * rng.standard_normal(theta0.shape)
    return ChainState(theta=theta0, iteration=0, v=v0)


def run(
    kind: str,
    config: SamplerConfig,
    potential: Potential,
    n_chains: int = 1,
    record_every: int | None = None,
    metric_fn=None,
) -> RunTrace:
    """Run n outer iterations, recording snapshots every `record_every` steps.

    `metric_fn(iteration, state) -> dict` contributes extra row columns.
    Counters reset at run start.  An iterate with a chain norm not <=
    DIVERGENCE_FACTOR (1 + ||theta_0||), NaN included, raises a DivergenceError
    with its iteration, the lowest such chain's norm (inf if non-finite) and
    the partial trace, whose final_state is the last accepted state.
    """
    checks = _preconditions(kind, config, potential.spec)[3]
    if n_chains < 1:
        raise ConfigurationError("n_chains must be >= 1")
    if record_every is None:
        record_every = max(1, config.n // 100)
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")

    trace_warnings = []
    for check in checks:
        if not check.passed:
            msg = (
                f"{check.name} fails: value {check.value:.6g} vs threshold {check.threshold:.6g} "
                f"(run continues; the W2 guarantee does not apply)"
            )
            trace_warnings.append(msg)
            _warnings.warn(msg, PreconditionWarning, stacklevel=2)

    potential.counter.reset()
    state = _initial_state(kind, config, potential, n_chains)
    norm0 = float(np.sqrt(np.sum(state.theta**2, axis=-1)).max())
    threshold = DIVERGENCE_FACTOR * (1.0 + norm0)

    trace = RunTrace(
        kind=kind,
        config={**config.to_dict(), "kind": kind, "n_chains": n_chains, "record_every": record_every},
        n_chains=n_chains,
        warnings=trace_warnings,
    )
    start = perf_counter()

    def record(st):
        row = {
            "iteration": st.iteration,
            **potential.counter.snapshot(),
            "elapsed_seconds": perf_counter() - start,
        }
        if metric_fn is not None:
            row.update(metric_fn(st.iteration, st))
        trace.rows.append(row)

    record(state)
    try:
        for _ in range(config.n):
            new = step(kind, state, config, potential)
            norms = np.sqrt(np.einsum("...i,...i->...", new.theta, new.theta)).reshape(-1)
            if not norms.max() <= threshold:  # true for NaN too
                chain = int(np.argmin(norms <= threshold))  # the first False: the lowest offender
                norm = float(norms[chain]) if np.isfinite(norms[chain]) else float("inf")
                raise DivergenceError(
                    f"chain {chain}: iterate norm {norm:.3e} exceeded {threshold:.3e} "
                    f"at iteration {new.iteration}",
                    iteration=new.iteration,
                    norm=norm,
                )
            state = new
            if state.iteration % record_every == 0 or state.iteration == config.n:
                record(state)
    except DivergenceError as exc:
        exc.trace = trace
        raise
    finally:
        trace.counters = potential.counter.snapshot()
        trace.elapsed_seconds = perf_counter() - start
        trace.final_state = state
    return trace

