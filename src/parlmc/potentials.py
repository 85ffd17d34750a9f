"""Gradient oracles for smooth, strongly convex potentials.

A potential f is the negative log-density of the target pi ~ exp(-f) and must
satisfy m I <= Hessian(f) <= M I.  Oracles are deterministic and pure: the
only mutable state is the evaluation counter, whose updates are atomic so
gradients may be evaluated from many workers concurrently.

Counter semantics: one :meth:`Potential.gradient` call is one oracle query,
whatever the batch shape of its argument.  An ensemble of chains advancing in
lockstep therefore reports per-chain algorithmic cost (the quantity the
round/evaluation accounting identities are stated for), not cost multiplied
by ensemble size.

Purity is a contract: identical points give identical gradients, so a step's
round 0 (theta in all R slots) is one physical ``_gradient`` call.  The count
``gradient_evals`` stays the nominal n Q R; physical calls are n ((Q-1) R + 1).
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .noise import _take

# Newton tolerance when locating a potential's minimizer numerically.
_MINIMIZER_GTOL = 1e-12


@dataclass(frozen=True)
class PotentialSpec:
    """Dimension and curvature constants of a potential."""

    dimension: int
    strong_convexity: float  # m
    smoothness: float        # M
    minimizer: np.ndarray | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.dimension}")
        if not 0 < self.strong_convexity <= self.smoothness:
            raise ConfigurationError(
                f"need 0 < m <= M, got m={self.strong_convexity}, M={self.smoothness}"
            )
        if self.minimizer is not None and np.asarray(self.minimizer).shape != (self.dimension,):
            raise ConfigurationError("minimizer must be a length-p vector")

    @property
    def condition_number(self) -> float:
        return self.smoothness / self.strong_convexity


class EvalCounter:
    """Thread-safe accounting of oracle queries and sequential rounds."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total_gradient_evals = 0
        self.sequential_rounds = 0

    def add_evals(self, k: int = 1):
        with self._lock:
            self.total_gradient_evals += k

    def add_rounds(self, k: int = 1):
        with self._lock:
            self.sequential_rounds += k

    def reset(self):
        with self._lock:
            self.total_gradient_evals = 0
            self.sequential_rounds = 0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "gradient_evals": self.total_gradient_evals,
                "sequential_rounds": self.sequential_rounds,
            }


class Potential:
    """Base gradient oracle; subclasses implement ``_gradient`` and ``_value``.

    ``pooled`` oracles (the default: user, logistic and sleeping ones) spread their rounds over the shared
    pool, as a call costs more than the ~20 us handoff to a worker; the quadratic, about that cheap, does not.
    """

    pooled = True

    def __init__(self, spec: PotentialSpec):
        self.spec = spec
        self.counter = EvalCounter()

    def _validate(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim < 1 or theta.shape[-1] != self.spec.dimension:
            raise ConfigurationError(
                f"point has trailing dimension {theta.shape[-1] if theta.ndim else 0}, "
                f"potential expects {self.spec.dimension}"
            )
        if not np.isfinite(theta).all():
            raise DomainError("gradient requested at a non-finite point")
        return theta

    def gradient(self, theta) -> np.ndarray:
        """Exact gradient of f, shape-preserving over (..., p); one oracle query."""
        theta = self._validate(theta)
        out = self._gradient(theta)
        self.counter.add_evals(1)
        return out

    def value(self, theta):
        """Potential value f(theta); not counted as an oracle query."""
        return self._value(self._validate(theta))

    def _gradient(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _value(self, theta: np.ndarray):
        raise NotImplementedError


class QuadraticPotential(Potential):
    """f(theta) = 0.5 (theta - mu)^T A (theta - mu) with A symmetric positive definite.

    The canonical strongly log-concave target: pi = N(mu, A^{-1}).  Curvature
    constants are the extreme eigenvalues of A, computed at construction.
    """

    pooled = False  # a call costs about a pool handoff: rounds run on the caller

    def __init__(self, precision: np.ndarray, mean: np.ndarray | None = None):
        a = np.asarray(precision, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigurationError("precision matrix must be square")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ConfigurationError("precision matrix must be symmetric")
        p = a.shape[0]
        mu = np.zeros(p) if mean is None else np.asarray(mean, dtype=float)
        if mu.shape != (p,):
            raise ConfigurationError("mean must have the same dimension as the precision matrix")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0:
            raise ConfigurationError(f"precision matrix must be positive definite (min eig {eigs[0]:.3e})")
        super().__init__(PotentialSpec(p, float(eigs[0]), float(eigs[-1]), minimizer=mu))
        self.precision = 0.5 * (a + a.T)
        self.mean = mu
        self._scratch = threading.local()  # per thread: the work dict of _gradient's theta - mean

    @classmethod
    def from_diagonal(cls, diagonal, mean=None) -> "QuadraticPotential":
        return cls(np.diag(np.asarray(diagonal, dtype=float)), mean)

    def _gradient(self, theta):
        if theta.size < 1024:  # a few chains: a fresh difference costs less than the scratch lookup
            return (theta - self.mean) @ self.precision
        return np.subtract(theta, self.mean, out=_take(vars(self._scratch), "d", theta.shape)) @ self.precision

    def _value(self, theta):
        d = theta - self.mean
        return 0.5 * np.sum(d * (d @ self.precision), axis=-1)

    def target_covariance(self) -> np.ndarray:
        return np.linalg.inv(self.precision)


def _sigmoid_neg(u, e=None, mask=None):
    """sigma(-u) = 1 / (1 + e^u) over u, branch-free: e = exp(copysign(u, -1)) = e^{-|u|} never overflows,
    and the numerator max(e, [u < 0]) is e for u >= 0 and exactly 1 below; scratch `e`, `mask` saves page faults."""
    e = np.exp(np.copysign(u, -1.0, out=e), out=e)
    np.maximum(e, np.less(u, 0.0, out=mask), out=u)
    e += 1.0
    u /= e
    return u


class LogisticRidgePotential(Potential):
    """Ridge-regularized logistic log-loss.

    f(theta) = sum_i log(1 + exp(-y_i x_i^T theta)) + 0.5 lam ||theta||^2,
    labels y_i in {-1, +1}.  m = lam and M = lam + ||X||_op^2 / 4, the exact
    operator norm via singular values so the tuning formulas see sharp
    constants.  The minimizer is located by a Newton solve at construction.
    The signed design Xy = X * y[:, None] is built once: as y = +-1 only signs
    change, so theta @ Xy.T and ridge theta - w @ Xy are bit for bit the margins
    (theta @ X.T) * y and the gradient (w * -y) @ X + ridge theta, w = sigma(-u).
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, ridge: float):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ConfigurationError("design matrix must be 2-D")
        if y.shape != (X.shape[0],):
            raise ConfigurationError("labels must be one per design row")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ConfigurationError("labels must take values in {-1, +1}")
        if ridge <= 0:
            raise ConfigurationError("ridge weight must be positive")
        p = X.shape[1]
        smax = float(np.linalg.svd(X, compute_uv=False)[0]) if min(X.shape) else 0.0
        m = float(ridge)
        M = float(ridge + smax**2 / 4.0)
        self.X = X
        self.y = y
        self._Xy = X * y[:, None]
        self.ridge = float(ridge)
        self._scratch = threading.local()  # per thread: the work dict of _gradient's (..., N) u, e and mask
        minimizer = self._solve_minimizer(p, m, M)
        super().__init__(PotentialSpec(p, m, M, minimizer=minimizer))

    def _margins(self, theta, out=None):
        return np.matmul(theta, self._Xy.T, out=out)  # (..., N)

    def _gradient(self, theta):
        work, shape = vars(self._scratch), theta.shape[:-1] + self.y.shape
        u, e, mask = _take(work, "u", shape), _take(work, "e", shape), _take(work, "mask", shape, bool)
        w = _sigmoid_neg(self._margins(theta, out=u), e, mask)
        return self.ridge * theta - w @ self._Xy

    def _value(self, theta):
        u = self._margins(theta)
        return np.sum(np.logaddexp(0.0, -u), axis=-1) + 0.5 * self.ridge * np.sum(theta * theta, axis=-1)

    def _solve_minimizer(self, p, m, M):
        theta = np.zeros(p)
        for _ in range(100):
            w = _sigmoid_neg(self._margins(theta))
            g = self._gradient(theta)
            if np.linalg.norm(g, np.inf) <= _MINIMIZER_GTOL * M * (1 + np.linalg.norm(theta)):
                break
            hess = self.X.T @ (self.X * (w * (1 - w))[:, None]) + self.ridge * np.eye(p)
            theta = theta - np.linalg.solve(hess, g)
        return theta

    @classmethod
    def from_csv(cls, path, ridge: float) -> "LogisticRidgePotential":
        """Load `y,x1,...,xp` rows; malformed rows raise with their line number."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigurationError(f"{path}: empty file") from None
            expected = ["y"] + [f"x{i}" for i in range(1, len(header))]
            if [c.strip() for c in header] != expected or len(header) < 2:
                raise ConfigurationError(f"{path}: header must be y,x1,...,xp, got {header!r}")
            p = len(header) - 1
            rows, labels = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != p + 1:
                    raise ConfigurationError(f"{path}:{lineno}: expected {p + 1} fields, got {len(row)}")
                try:
                    vals = [float(v) for v in row]
                except ValueError as exc:
                    raise ConfigurationError(f"{path}:{lineno}: non-numeric field ({exc})") from None
                if vals[0] not in (-1.0, 1.0):
                    raise ConfigurationError(f"{path}:{lineno}: label must be -1 or +1, got {vals[0]}")
                if not all(np.isfinite(vals)):
                    raise ConfigurationError(f"{path}:{lineno}: non-finite value")
                labels.append(vals[0])
                rows.append(vals[1:])
        if not rows:
            raise ConfigurationError(f"{path}: no data rows")
        return cls(np.asarray(rows), np.asarray(labels), ridge)


class SyntheticDelayPotential(Potential):
    """Identity quadratic whose gradient sleeps for a fixed delay.

    Stands in for an expensive oracle when measuring round wall-times and
    parallel speedup; the dynamics stay those of f = 0.5 ||theta||^2.
    """

    def __init__(self, dimension: int, delay_seconds: float):
        if delay_seconds < 0:
            raise ConfigurationError("delay must be nonnegative")
        super().__init__(PotentialSpec(dimension, 1.0, 1.0, minimizer=np.zeros(dimension)))
        self.delay_seconds = float(delay_seconds)

    def _gradient(self, theta):
        time.sleep(self.delay_seconds)
        return theta.copy()

    def _value(self, theta):
        return 0.5 * np.sum(theta * theta, axis=-1)


def check_gradient_fd(potential: Potential, theta, step: float = 1e-5) -> float:
    """Max relative deviation of the gradient from central finite differences.

    Relative per component against max(|g_i|, 1); `step` must lie in (0, 1e-3].
    """
    if not 0 < step <= 1e-3:
        raise DomainError(f"finite-difference step must be in (0, 1e-3], got {step}")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ConfigurationError("finite-difference check expects a single point")
    g = potential.gradient(theta)
    fd = np.empty_like(g)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = step
        fd[i] = (potential.value(theta + e) - potential.value(theta - e)) / (2 * step)
    denom = np.maximum(np.abs(g), 1.0)
    return float(np.max(np.abs(fd - g) / denom))
