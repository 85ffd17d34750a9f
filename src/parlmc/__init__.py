"""Parallel randomized-midpoint Langevin Monte Carlo.

Samplers for smooth, strongly log-concave targets that split each step into
R stratified random midpoints refined over Q parallel gradient rounds, with
exact correlated-noise generation, mixing-time parameter tuning, sequential
round accounting, and Wasserstein-2 verification against Gaussian targets.
"""

from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    InternalError,
    ParlmcError,
    RoundExecutionError,
)
from .metrics import (
    BoundEvaluation,
    GaussianSummary,
    empirical_summary,
    theorem1_bound,
    theorem2_bound,
    w2_gaussian,
)
from .noise import (
    KineticNoiseDraw,
    VanillaNoiseDraw,
    coeff_a_vanilla,
    coeff_b_kinetic,
    draw_kinetic_noise,
    draw_midpoints,
    draw_vanilla_noise,
    kinetic_covariance,
    psi,
    stream,
)
from .parallel import execute_round
from .potentials import (
    EvalCounter,
    LogisticRidgePotential,
    Potential,
    PotentialSpec,
    QuadraticPotential,
    SyntheticDelayPotential,
    check_gradient_fd,
)
from .samplers import (
    ChainState,
    PreconditionWarning,
    RunTrace,
    SamplerConfig,
    run,
    step,
)
from .tuning import (
    ConditionCheck,
    TunePlan,
    TuneRequest,
    check_preconditions,
    iters_limited,
    tune,
    tune_kinetic,
    tune_vanilla,
)

__version__ = "0.1.0"

__all__ = [
    "BoundEvaluation",
    "ChainState",
    "ConditionCheck",
    "ConfigurationError",
    "DivergenceError",
    "DomainError",
    "EvalCounter",
    "GaussianSummary",
    "InternalError",
    "KineticNoiseDraw",
    "LogisticRidgePotential",
    "ParlmcError",
    "Potential",
    "PotentialSpec",
    "PreconditionWarning",
    "QuadraticPotential",
    "RoundExecutionError",
    "RunTrace",
    "SamplerConfig",
    "SyntheticDelayPotential",
    "TunePlan",
    "TuneRequest",
    "VanillaNoiseDraw",
    "check_gradient_fd",
    "check_preconditions",
    "coeff_a_vanilla",
    "coeff_b_kinetic",
    "draw_kinetic_noise",
    "draw_midpoints",
    "draw_vanilla_noise",
    "empirical_summary",
    "execute_round",
    "iters_limited",
    "kinetic_covariance",
    "psi",
    "run",
    "step",
    "stream",
    "theorem1_bound",
    "theorem2_bound",
    "tune",
    "tune_kinetic",
    "tune_vanilla",
    "w2_gaussian",
]
