"""Wasserstein-2 error measurement and the convergence-bound evaluators.

W2 between Gaussians has the closed form
sqrt(||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2})),
computed here via symmetric eigendecompositions with negative eigenvalues
clamped to zero, since sampled covariances are nearly singular for small
ensembles.

W2 against non-Gaussian targets is deliberately not estimated (empirical W2
in more than a few dimensions is unreliable at desk scale); callers compare
moment drift between ensembles instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .tuning import _checks, _power

_SYM_TOL = 1e-10
_EIG_TOL = 1e-10


@dataclass
class GaussianSummary:
    """Mean vector and symmetric PSD covariance of a Gaussian surrogate."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        p = self.mean.shape[0]
        if self.mean.ndim != 1 or self.covariance.shape != (p, p):
            raise ConfigurationError("mean must be (p,) and covariance (p, p)")
        scale = max(1.0, float(np.abs(self.covariance).max()))
        if np.abs(self.covariance - self.covariance.T).max() > _SYM_TOL * scale:
            raise DomainError("covariance is not symmetric within tolerance")
        self.covariance = 0.5 * (self.covariance + self.covariance.T)
        eigs = np.linalg.eigvalsh(self.covariance)
        if eigs[0] < -_EIG_TOL * scale:
            raise DomainError(f"covariance has eigenvalue {eigs[0]:.3e} below tolerance")

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative eigenvalues are clamped to zero."""
    eigval, eigvec = np.linalg.eigh(mat)
    root = np.sqrt(np.clip(eigval, 0.0, None))
    return (eigvec * root) @ eigvec.T


def w2_gaussian(a: GaussianSummary, b: GaussianSummary) -> float:
    """Exact 2-Wasserstein distance between two Gaussian summaries.

    The covariance part is tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2});
    it is evaluated in the equivalent Procrustes form ||ra - W rb||_F^2 with
    W the polar factor of ra rb, which is a plain sum of squares and so does
    not cancel catastrophically for nearly identical inputs.
    """
    if a.dimension != b.dimension:
        raise ConfigurationError("summaries have different dimensions")
    diff = a.mean - b.mean
    ra = _sqrtm_psd(a.covariance)
    rb = _sqrtm_psd(b.covariance)
    u, _, vt = np.linalg.svd(ra @ rb)
    bures = float(np.sum((ra - (u @ vt) @ rb) ** 2))
    return math.sqrt(max(0.0, float(diff @ diff) + bures))


def empirical_summary(samples: np.ndarray) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of an (N, p) ensemble."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, p = samples.shape
    if n < p + 1:
        raise ConfigurationError(f"need at least p + 1 = {p + 1} samples, got {n}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = (centered.T @ centered) / (n - 1)
    return GaussianSummary(mean=mean, covariance=cov)


@dataclass
class BoundEvaluation:
    """One evaluation of a W2 convergence bound, split into displayed terms."""

    theorem: str
    initialization_term: float
    discretization_term: float
    total: float
    precondition_ok: bool = True
    terms: dict = field(default_factory=dict)


def theorem1_bound(
    *,
    h: float,
    Q: int,
    R: int,
    m: float,
    M: float,
    p: int,
    w2_init: float,
    n: int,
) -> BoundEvaluation:
    """Vanilla-sampler W2 bound after n outer steps (hbar = M h).

    init = 1.03 e^{-m n h / 2} W2_0,
    disc = 2.1 (hbar^Q + hbar/sqrt(R) + (hbar^{Q-1} + hbar/R) sqrt(kappa hbar)) sqrt(p/m).
    A violated stability precondition flags the result; the bound is still
    reported.
    """
    kappa = M / m
    hbar = M * h
    init = 1.03 * math.exp(-m * n * h / 2.0) * w2_init
    disc = 2.1 * (
        _power(hbar, Q) + hbar / math.sqrt(R) + (_power(hbar, Q - 1) + hbar / R) * math.sqrt(kappa * hbar)
    ) * math.sqrt(p / m)
    return BoundEvaluation(
        theorem="T1",
        initialization_term=init,
        discretization_term=disc,
        total=init + disc,
        precondition_ok=all(c.passed for c in _checks("vanilla", h, R, Q, None, m, M)),
        terms={"initialization": init, "discretization": disc},
    )


def theorem2_bound(
    *,
    h: float,
    Q: int,
    R: int,
    m: float,
    M: float,
    gamma: float,
    p: int,
    w2_init: float,
    f_gap: float,
    n: int,
) -> BoundEvaluation:
    """Kinetic-sampler W2 bound after n outer steps (hbar = gamma h).

    Four displayed terms: 3.04 e^{-mnh} W2_0, 1.1 (e^{-mnh} f_gap / m)^{1/2},
    80.11 (hbar^3/R^2 + hbar^{2Q-1})^{1/2} sqrt(p/m), and
    4.33 (hbar^6/R^3 + hbar^{4Q-2})^{1/2} sqrt(kappa p/m).  `f_gap` is
    E[f(theta_0) - f(theta*)] >= 0.
    """
    if f_gap < 0:
        raise DomainError("initial potential gap must be nonnegative")
    kappa = M / m
    hbar = gamma * h
    decay = math.exp(-m * n * h)
    t1 = 3.04 * decay * w2_init
    t2 = 1.1 * math.sqrt(decay * f_gap / m)
    t3 = 80.11 * math.sqrt(_power(hbar, 3) / R**2 + _power(hbar, 2 * Q - 1)) * math.sqrt(p / m)
    t4 = 4.33 * math.sqrt(_power(hbar, 6) / R**3 + _power(hbar, 4 * Q - 2)) * math.sqrt(kappa * p / m)
    return BoundEvaluation(
        theorem="T2",
        initialization_term=t1 + t2,
        discretization_term=t3 + t4,
        total=t1 + t2 + t3 + t4,
        precondition_ok=all(c.passed for c in _checks("kinetic", h, R, Q, gamma, m, M)),
        terms={
            "contraction": t1,
            "initial_gap": t2,
            "midpoint_variance": t3,
            "refinement_bias": t4,
        },
    )
