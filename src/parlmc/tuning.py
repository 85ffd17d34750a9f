"""Mixing-time parameter selection and stability precondition checks.

The selection rules target W2 error eps * sqrt(p/m):

vanilla:  R = ceil(0.28 (1 + eps sqrt(kappa)) / eps^2),
          Q = ceil(2.2 + 0.7 log(sqrt(kappa)/eps)),  M h = 0.1,
          n = ceil(10 kappa {log(7/eps) + log((m/p) W2_0^2)}),
kinetic:  gamma = 5 M,  R = ceil(10/eps + kappa^{1/3} eps^{-2/3}),
          Q = 5 + ceil(0.7 log(sqrt(kappa)/eps)),  gamma h = 0.1,
          n = ceil(25 kappa {log(22/eps) + log((m/p) W2_0^2)}).

Logarithms are natural; n is clamped at 1 since the W2 term can be negative.
For small kappa combined with large eps the literal vanilla R lands at 1 and
the stability inequality fails by a hair, so R is bumped to the smallest
value restoring it (extra parallel width never hurts the target guarantee).

The limited-parallel-units iteration counts are order-of-magnitude guidance
with implied constant 1, not a guarantee.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .errors import ConfigurationError

VANILLA_STABILITY_MAX = 0.1
KINETIC_STABILITY_MAX = 1e-6
_REPAIR_LIMIT = 10_000


@dataclass(frozen=True)
class TuneRequest:
    """Target precision and curvature constants for parameter selection."""

    epsilon: float
    m: float
    M: float
    p: int
    regime: str  # "vanilla" | "kinetic"
    w2_init: float | None = None
    R: int | None = None  # fixed width for the limited-units regime

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ConfigurationError(f"target precision must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.m <= self.M:
            raise ConfigurationError(f"need 0 < m <= M, got m={self.m}, M={self.M}")
        if self.p < 1:
            raise ConfigurationError("dimension must be >= 1")
        if self.regime not in ("vanilla", "kinetic"):
            raise ConfigurationError(f"regime must be vanilla or kinetic, got {self.regime!r}")
        if self.w2_init is not None and self.w2_init < 0:
            raise ConfigurationError("initial W2 estimate must be nonnegative")

    @property
    def kappa(self) -> float:
        return self.M / self.m


@dataclass
class TunePlan:
    """Selected (R, Q, h, n, gamma) plus the predicted parallel cost."""

    regime: str
    R: int
    Q: int
    h: float
    n: int
    gamma: float | None
    sequential_rounds: int
    total_gradient_evals: int
    warnings: list[str] = field(default_factory=list)
    preconditions: list["ConditionCheck"] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ConditionCheck:
    """One stability inequality with its numeric margin (threshold - value)."""

    name: str
    value: float
    threshold: float
    passed: bool
    margin: float

    def to_dict(self) -> dict:
        return asdict(self)


def _power(hbar: float, k: int) -> float:
    """hbar^k, or inf where it overflows (hbar^{4Q-2} at a large hbar and Q): a rule fails, a bound reads inf."""
    try:
        return float(hbar) ** k  # an int hbar would give an exact int that overflows in the sum instead
    except OverflowError:
        return math.inf


def vanilla_stability_lhs(hbar: float, Q: int, R: int, kappa: float) -> float:
    """hbar^Q + hbar/R + (hbar^{Q-1} + hbar/R^{3/2}) sqrt(kappa hbar)."""
    return _power(hbar, Q) + hbar / R + (_power(hbar, Q - 1) + hbar / R**1.5) * math.sqrt(kappa * hbar)


def kinetic_stability_lhs(hbar: float, Q: int, R: int, kappa: float) -> float:
    """kappa (hbar^6 / R^3 + hbar^{4Q-2})."""
    return kappa * (_power(hbar, 6) / R**3 + _power(hbar, 4 * Q - 2))


def _check(name: str, value: float, threshold: float, at_most: bool) -> ConditionCheck:
    """The check value <= threshold (`at_most`) or value >= threshold, its margin positive when it passes."""
    if at_most:
        return ConditionCheck(name, value, threshold, value <= threshold, threshold - value)
    return ConditionCheck(name, value, threshold, value >= threshold, value - threshold)


def _checks(regime: str, h: float, R: int, Q: int, gamma: float | None, m: float, M: float) -> list[ConditionCheck]:
    """The stability inequalities of `regime` at step h, width R, depth Q and friction gamma, for an
    m-strongly convex, M-smooth potential: vanilla at hbar = M h; kinetic gamma >= 5 M, then at hbar = gamma h.

    parlmc's one statement of the rules: tuning, bounds, `run` and ``parlmc check`` all call it.
    """
    kappa = M / m
    if regime == "vanilla":
        return [_check("vanilla_stability", vanilla_stability_lhs(M * h, Q, R, kappa), VANILLA_STABILITY_MAX, True)]
    if regime == "kinetic":
        if gamma is None:
            raise ConfigurationError("the kinetic regime requires a friction coefficient gamma")
        return [_check("friction_lower_bound", float(gamma), 5 * M, False),
                _check("kinetic_stability", kinetic_stability_lhs(gamma * h, Q, R, kappa), KINETIC_STABILITY_MAX, True)]
    raise ConfigurationError(f"unknown regime {regime!r}")


def check_preconditions(config, spec, regime: str) -> list[ConditionCheck]:
    """The stability checks of `config` (h, R, Q, and gamma when kinetic, as a SamplerConfig or TunePlan has)
    for `spec` (strong_convexity and smoothness, as a PotentialSpec has).  The caller decides whether a failed
    check warns or aborts."""
    return _checks(regime, config.h, config.R, config.Q, getattr(config, "gamma", None), spec.strong_convexity,
                   spec.smoothness)


def _iteration_count(scale: float, log_const: float, req: TuneRequest) -> tuple[int, list[str]]:
    warnings = []
    bracket = math.log(log_const / req.epsilon)
    if req.w2_init is None:
        warnings.append("no initial W2 estimate supplied; its log term was dropped from n")
    elif req.w2_init > 0:
        bracket += math.log(req.m / req.p) + 2 * math.log(req.w2_init)  # (m/p) w2^2 may underflow to 0
    else:
        warnings.append("initial W2 estimate is zero; its log term was dropped from n")
    n = max(1, math.ceil(scale * req.kappa * bracket))
    return n, warnings


def _plan(req: TuneRequest, R: int, Q: int, h: float, n: int, gamma: float | None, warnings: list[str]) -> TunePlan:
    """The plan at (R, Q, h, n, gamma): n Q sequential rounds, n Q R gradient evaluations and its stability checks."""
    return TunePlan(req.regime, R, Q, h, n, gamma, n * Q, n * Q * R, warnings,
                    _checks(req.regime, h, R, Q, gamma, req.m, req.M))


def tune_vanilla(req: TuneRequest) -> TunePlan:
    """Unlimited-units parameter choice for the vanilla sampler."""
    if req.regime != "vanilla":
        raise ConfigurationError("tune_vanilla needs a vanilla-regime request")
    eps, kappa = req.epsilon, req.kappa
    R = math.ceil(0.28 * (1 + eps * math.sqrt(kappa)) / eps**2)
    Q = math.ceil(2.2 + 0.7 * math.log(math.sqrt(kappa) / eps))
    h = 0.1 / req.M
    n, warnings = _iteration_count(10.0, 7.0, req)

    # Small-kappa/large-eps corner: the literal R misses the stability bound;
    # widen minimally (never changes cases that already pass).
    R_stable = R
    while not _checks("vanilla", h, R_stable, Q, None, req.m, req.M)[0].passed:
        R_stable += 1
        if R_stable - R > _REPAIR_LIMIT:
            raise ConfigurationError("could not satisfy the vanilla stability bound by widening R")
    if R_stable != R:
        warnings.append(f"R widened from {R} to {R_stable} to satisfy the stability precondition")
    return _plan(req, R_stable, Q, h, n, None, warnings)


def tune_kinetic(req: TuneRequest) -> TunePlan:
    """Unlimited-units parameter choice for the kinetic sampler."""
    if req.regime != "kinetic":
        raise ConfigurationError("tune_kinetic needs a kinetic-regime request")
    eps, kappa = req.epsilon, req.kappa
    gamma = 5.0 * req.M
    R = math.ceil(10.0 / eps + kappa ** (1.0 / 3.0) / eps ** (2.0 / 3.0))
    Q = 5 + math.ceil(0.7 * math.log(math.sqrt(kappa) / eps))
    n, warnings = _iteration_count(25.0, 22.0, req)
    return _plan(req, R, Q, 0.1 / gamma, n, gamma, warnings)


def tune(req: TuneRequest) -> TunePlan:
    return tune_vanilla(req) if req.regime == "vanilla" else tune_kinetic(req)


def iters_limited(regime: str, kappa: float, epsilon: float, R: int) -> int:
    """Iteration count for a fixed parallel width R (implied constant 1).

    vanilla: kappa log(1/eps) (1 + {kappa/(R^2 eps^2)}^{1/3} + {1/(R eps^2)}^{1/2}),
    kinetic: kappa log(1/eps) (1 + {kappa/(R^3 eps^2)}^{1/6} + {1/(R eps)}^{2/3}).
    Order-of-magnitude guidance only; returned as ceil of the expression.
    """
    if R < 1:
        raise ConfigurationError("parallel width must be >= 1")
    if not 0 < epsilon < 1:
        raise ConfigurationError("precision must lie in (0, 1)")
    base = kappa * math.log(1.0 / epsilon)
    if regime == "vanilla":
        extra = (kappa / (R**2 * epsilon**2)) ** (1.0 / 3.0) + (1.0 / (R * epsilon**2)) ** 0.5
    elif regime == "kinetic":
        extra = (kappa / (R**3 * epsilon**2)) ** (1.0 / 6.0) + (1.0 / (R * epsilon)) ** (2.0 / 3.0)
    else:
        raise ConfigurationError(f"unknown regime {regime!r}")
    return max(1, math.ceil(base * (1.0 + extra)))
