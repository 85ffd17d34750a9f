"""Checks of parlmc's output, written apart from parlmc with numpy alone.

Every check returns ``(passed, detail)``.  Statistical bands are wide
(5 or 6 standard errors), so a correct sampler fails one with a chance far
below one in a thousand runs, while the errors the benchmark's tests plant
(noise variance halved or quartered) land many standard errors outside.
"""

from __future__ import annotations

import math

import numpy as np

Z_BAND = 5.0        # standard errors allowed for a mean
Z_W2_BAND = 6.0     # standard deviations of simulated W2 allowed for ensemble size
BATCHES = 20
W2_TRIALS = 200


def cost_model(counters: dict, n: int, R: int, Q: int) -> tuple[bool, str]:
    """n outer steps cost n*Q rounds of R gradient evaluations (the paper's model)."""
    expected = {"gradient_evals": n * Q * R, "sequential_rounds": n * Q}
    got = {key: counters.get(key) for key in expected}
    return got == expected, f"counters {got}, cost model {expected}"


def all_finite(label: str, *arrays) -> tuple[bool, str]:
    ok = all(a is None or bool(np.all(np.isfinite(a))) for a in arrays)
    return ok, f"{label}: {'all finite' if ok else 'non-finite entries'}"


def batch_means(series, exact: float, batches: int = BATCHES) -> tuple[bool, str]:
    """Time average of a stationary series within Z_BAND batch-means errors of `exact`."""
    x = np.asarray(series, dtype=float)
    size = len(x) // batches
    if size < 2:
        return False, f"only {len(x)} samples for {batches} batches"
    means = x[len(x) - size * batches:].reshape(batches, size).mean(axis=1)
    average = float(means.mean())
    band = Z_BAND * float(means.std(ddof=1)) / math.sqrt(batches)
    ok = abs(average - exact) <= band
    return ok, f"time average {average:.4f} over {len(x)} samples, exact {exact:g}, band +-{band:.4f}"


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    eigval, eigvec = np.linalg.eigh(mat)
    return (eigvec * np.sqrt(np.clip(eigval, 0.0, None))) @ eigvec.T


def gaussian_w2(samples: np.ndarray, cov: np.ndarray) -> float:
    """W2 between N(sample mean, sample covariance) and N(0, cov)."""
    mean = samples.mean(axis=0)
    sample_cov = np.cov(samples, rowvar=False)
    root = _sqrtm_psd(cov)
    cross = _sqrtm_psd(root @ sample_cov @ root)
    w2sq = mean @ mean + np.trace(sample_cov) + np.trace(cov) - 2.0 * np.trace(cross)
    return math.sqrt(max(float(w2sq), 0.0))


def w2_ensemble_band(cov: np.ndarray, chains: int, rng: np.random.Generator) -> float:
    """Largest W2 that `chains` exact draws from N(0, cov) plausibly show (mean + 6 sd)."""
    factor = np.linalg.cholesky(cov)
    values = [
        gaussian_w2(rng.standard_normal((chains, cov.shape[0])) @ factor.T, cov)
        for _ in range(W2_TRIALS)
    ]
    return float(np.mean(values) + Z_W2_BAND * np.std(values, ddof=1))


def theorem1_allowance(*, h: float, Q: int, R: int, m: float, M: float, p: int) -> float:
    """Theorem 1's W2 bound for a start drawn from the target (W2_0 = 0)."""
    kappa, hbar = M / m, M * h
    return 2.1 * (
        hbar**Q + hbar / math.sqrt(R) + (hbar ** (Q - 1) + hbar / R) * math.sqrt(kappa * hbar)
    ) * math.sqrt(p / m)


def theorem2_allowance(
    *, h: float, Q: int, R: int, m: float, M: float, gamma: float, p: int, f_gap: float, n: int
) -> float:
    """Theorem 2's W2 bound after n steps from a start drawn from the target (W2_0 = 0)."""
    kappa, hbar = M / m, gamma * h
    gap = 1.1 * math.sqrt(math.exp(-m * n * h) * f_gap / m)
    variance = 80.11 * math.sqrt(hbar**3 / R**2 + hbar ** (2 * Q - 1)) * math.sqrt(p / m)
    bias = 4.33 * math.sqrt(hbar**6 / R**3 + hbar ** (4 * Q - 2)) * math.sqrt(kappa * p / m)
    return gap + variance + bias


def w2_within(samples: np.ndarray, cov: np.ndarray, allowance: float, rng) -> tuple[bool, str]:
    """Ensemble W2 to N(0, cov) within the theorem allowance plus the ensemble-size band."""
    w2 = gaussian_w2(samples, cov)
    band = w2_ensemble_band(cov, samples.shape[0], rng)
    ok = w2 <= allowance + band
    return ok, f"W2 {w2:.4f} <= theorem {allowance:.4f} + ensemble band {band:.4f}"


def velocity_variance(v: np.ndarray, gamma: float) -> tuple[bool, str]:
    """Mean of v^2 / gamma is 1 within Z_BAND chi-square errors.

    In parlmc's parametrization the kinetic diffusion keeps v ~ N(0, gamma I)
    at stationarity, whatever the target.  The velocity relaxes within
    1/gamma, so a wrong noise scale shows after a few steps, where the W2
    allowance of Theorem 2 is still dominated by its initial-gap term.
    """
    ratio = float(np.mean(v * v)) / gamma
    band = Z_BAND * math.sqrt(2.0 / v.size)
    return abs(ratio - 1.0) <= band, f"E[v^2]/gamma = {ratio:.4f}, exact 1, band +-{band:.4f}"


def logistic_gradient(theta: np.ndarray, X: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Gradient of sum_i log(1 + exp(-y_i x_i.theta)) + ridge/2 |theta|^2."""
    u = (theta @ X.T) * y
    sigma_neg = 0.5 * (1.0 - np.tanh(0.5 * u))
    return -(sigma_neg * y) @ X + ridge * theta


def stein_identities(theta: np.ndarray, grad: np.ndarray, center: np.ndarray) -> tuple[bool, str]:
    """E[grad f] = 0 and E[(theta - center) . grad f] = p under exp(-f), each within Z_BAND errors.

    The second identity holds for any constant `center`; centring at the
    minimizer keeps its Monte Carlo error near sqrt(2p / chains).
    """
    chains, p = theta.shape
    se = grad.std(axis=0, ddof=1) / math.sqrt(chains)
    worst = float(np.max(np.abs(grad.mean(axis=0)) / se))
    inner = np.sum((theta - center) * grad, axis=1)
    inner_z = abs(float(inner.mean()) - p) / (float(inner.std(ddof=1)) / math.sqrt(chains))
    ok = worst <= Z_BAND and inner_z <= Z_BAND
    return ok, (
        f"Stein: max |E grad f| = {worst:.2f} se, "
        f"E[(theta - theta*).grad f] = {inner.mean():.3f} vs p={p} ({inner_z:.2f} se), band {Z_BAND:g} se"
    )
