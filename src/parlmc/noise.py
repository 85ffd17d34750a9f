"""Exact joint simulation of the correlated Gaussians driving the samplers.

One outer iteration of the parallel samplers consumes, per chain:

* stratified midpoints ``U_r`` uniform on ``[(r-1)/R, r/R]``,
* vanilla case: the Brownian increments ``xi_r = sqrt(2) (W(h U_r) - W(0))``
  for each midpoint plus the full increment ``xi = sqrt(2) (W(h) - W(0))``,
* kinetic case: the exponentially weighted integrals
  ``xi_r   = sqrt(2) int_0^{h U_r} (1 - e^{-gamma (h U_r - s)}) dW(s)``,
  ``xi     = sqrt(2) int_0^{h}     (1 - e^{-gamma (h - s)})     dW(s)``,
  ``xi_bar = sqrt(2) int_0^{h}      e^{-gamma (h - s)}          dW(s)``,
  all driven by one Brownian path on ``[0, h]``.

Both draws walk the one Brownian path over the ordered times
``h U_1 <= ... <= h U_R <= h`` with independent Gaussian increments (exact in
h, O(R), no path discretization).  The vanilla walk carries W; the kinetic
walk carries ``D(t) = int_0^t (1 - e^{-gamma (t - s)}) dW`` and
``Y(t) = int_0^t e^{-gamma (t - s)} dW``, a Markov pair whose increments over
each gap are a 2x2 Gaussian.  :func:`kinetic_covariance` is the closed-form
Ito-isometry covariance of the kinetic draw, kept as its reference.

Both draws return ``xi_mid`` in the engine's round shape, slot-major
(R, ..., p), so slot r is one contiguous (..., p) block like theta.  The
midpoints U and the normals are drawn chain-major, so a chain's draw does not
depend on the ensemble size; ``_slot_view`` turns them into slot views.

The refinement weights ``coeff_a_vanilla``/``coeff_b_kinetic`` are the scalar
references.  The engine applies them through ``_drift_walker``, an O(R) walk
over the slot-major gradients that carries prefix sums of the earlier slots:
every full cell j < r weighs the same for every chain, and a chain enters only
through its own partial cell.  The kinetic walk is the drift twin of the
(D, Y) noise walk.

Given a step's per-thread workspace ``work`` (see ``samplers``), the draws
and the walk write into its named buffers: the normals (then the walk's
scratch), the path or the kinetic y (then xi) and D (then the base).

Streams are counter-based (Philox) and keyed by ``(seed, iteration, role)``,
so draws are bit-reproducible and independent of thread scheduling.  The
iteration-k consumption contract used by the samplers is:

* one :func:`draw_midpoints` call on ``stream(seed, k, ROLE_MIDPOINTS)``,
* one ``draw_*_noise`` call on ``stream(seed, k, ROLE_PATH)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, InternalError

ROLE_MIDPOINTS = 0
ROLE_PATH = 1
ROLE_VELOCITY = 2

_SQRT2 = np.sqrt(2.0)

# Eigenvalue tolerance when validating an assembled covariance.
_PSD_TOL = 1e-10
_SPENT_BUFFER = np.zeros(4, np.uint64)  # a new Philox's output buffer: all used (buffer_pos 4)


@lru_cache(maxsize=256)
def _philox_key(seed: int) -> np.ndarray:
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    key.flags.writeable = False  # one cached key is shared by every stream of the seed
    return key


@lru_cache(maxsize=64)
def _strata(R: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (0, 1, .., R-1) and its lower stratum edges (0, 1, .., R-1) / R, made once per R."""
    index = np.arange(R, dtype=float)
    edges = index / R
    index.flags.writeable = edges.flags.writeable = False
    return index, edges


def stream(seed: int, iteration: int, role: int, work: dict | None = None) -> np.random.Generator:
    """Counter-based generator keyed by (seed, iteration, role).

    Distinct keys give non-overlapping Philox streams, so any draw is
    reproducible regardless of which worker or schedule executes it.  Given a
    step's workspace `work`, its one generator is re-keyed: 2 us, not 10, same bits.
    """
    key = _philox_key(int(seed))
    counter = np.array([0, 0, int(role), int(iteration)], dtype=np.uint64)
    if work is None or "rng" not in work:
        rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
        return rng if work is None else work.setdefault("rng", rng)
    work["rng"].bit_generator.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                                       "buffer": _SPENT_BUFFER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return work["rng"]


def psi(x):
    """Exponential-integrator weight (1 - e^{-x}) / x for x >= 0, with psi(0) = 1.

    One quotient: 1 - e^{-x} is expm1-accurate, so there is no cancellation to guard against near zero.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError("psi is defined for nonnegative arguments only")
    out = np.divide(_em1(arr), arr, out=np.ones_like(arr), where=arr != 0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _em1(x):
    """1 - e^{-x}, accurate for small x."""
    return -np.expm1(-x)


def _h(x):
    """x - 2 tanh(x/2) >= 0, the kinetic regime's one cancelling difference: below 0.4 its odd Taylor series
    x^3/12 - x^5/120 + 17 x^7/20160 - ... (8 terms, Horner in x^2), above it the direct form."""
    s = x * x
    series = x * s * (1 / 12 - s * (1 / 120 - s * (17 / 20160 - s * (31 / 362880 - s * (691 / 79833600 - s * (
        5461 / 6227020800 - s * (929569 / 10461394944000 - s * (3202291 / 355687428096000))))))))
    return np.where(x < 0.4, series, x - 2 * np.tanh(x / 2))


def _g1(x):
    """x - (1 - e^{-x}) = (h(x) + x t) / (1 + t) with t = tanh(x/2): nonnegative terms, nothing cancels."""
    t = np.tanh(x / 2)
    return (_h(x) + x * t) / (1 + t)


@dataclass
class VanillaNoiseDraw:
    """Joint Brownian functionals of one vanilla outer iteration."""

    U: np.ndarray        # (..., R) midpoints the draw was conditioned on
    xi_mid: np.ndarray   # (R, ..., p) midpoint increments, sqrt(2) scaled
    xi_full: np.ndarray  # (..., p) full-step increment, sqrt(2) scaled


@dataclass
class KineticNoiseDraw:
    """Joint exponential Brownian functionals of one kinetic outer iteration."""

    U: np.ndarray        # (..., R)
    xi_mid: np.ndarray   # (R, ..., p)
    xi_full: np.ndarray  # (..., p)
    xi_bar: np.ndarray   # (..., p)


def draw_midpoints(R: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw U_r uniform on [(r-1)/R, r/R] for r = 1..R.

    Returns shape (R,) or (size, R).  Values are nondecreasing, as (r-1+u)/R <= r/R <= (r+u')/R holds in
    floating point; neighbours tie only when rounding puts both on their shared stratum edge, a zero gap that
    the draws and the drift walk handle exactly.
    """
    if R < 1:
        raise ConfigurationError(f"number of strata R must be >= 1, got {R}")
    shape = (R,) if size is None else (int(size), R)
    return (_strata(R)[0] + rng.random(shape)) / R


def coeff_a_vanilla(R: int, U, j: int, r: int) -> float:
    """Inner-round weight min{1/R, U_r - (j-1)/R} for 1 <= j <= r <= R."""
    if not 1 <= j <= r <= R:
        raise IndexError(f"need 1 <= j <= r <= R, got j={j}, r={r}, R={R}")
    u = np.asarray(U, dtype=float)
    return float(min(1.0 / R, u[..., r - 1] - (j - 1) / R))


def coeff_b_kinetic(R: int, gamma: float, h: float, U, j: int, r: int) -> float:
    """Kinetic inner-round weight: integral of 1 - e^{-gamma (U_r h - s)}.

    Integration runs over [u1, u2] = [(j-1)h/R, (h/R) min(j, R U_r)]; with
    x = gamma (u2 - u1) and a = gamma (U_r h - u2) the closed form is
    (g1(x) + (1 - e^{-a}) (1 - e^{-x})) / gamma, which has no cancelling difference.
    """
    if not 1 <= j <= r <= R:
        raise IndexError(f"need 1 <= j <= r <= R, got j={j}, r={r}, R={R}")
    if gamma <= 0 or h <= 0:
        raise DomainError("gamma and h must be positive")
    u = np.asarray(U, dtype=float)
    u_r = float(u[..., r - 1])
    u1 = (j - 1) * h / R
    u2 = (h / R) * min(float(j), R * u_r)
    x = gamma * (u2 - u1)
    return float((_g1(x) + _em1(gamma * (u_r * h - u2)) * _em1(x)) / gamma)


def _take(work: dict | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """Uninitialised `dtype` array of `shape` (new if work is None): parlmc's one rule for reusing memory.  Each name
    keeps one byte buffer, sized to its largest request; growing it drops the name's cached views and the old buffer."""
    if work is None:
        return np.empty(shape, dtype)
    view = work.get((name, shape, dtype))
    if view is None:
        size, buf = int(np.prod(shape)) * np.dtype(dtype).itemsize, work.get(name)
        if buf is None or buf.size < size:
            for key in [key for key in work if type(key) is tuple and key[0] == name]:
                del work[key]
            raw = np.empty(size + 63, np.uint8)  # cut to start on a 64-byte line: BLAS and ufunc loops run faster
            buf = work[name] = raw[-raw.ctypes.data % 64 :][:size]
        view = work[name, shape, dtype] = buf[:size].view(dtype).reshape(shape)
    return view


def _slot_view(a: np.ndarray, *axes: int) -> np.ndarray:
    """View of chain-major `a` with its negative `axes` (default -1) first, in order (np.moveaxis costs ~7 us)."""
    return a.transpose(_slot_order(a.ndim, axes or (-1,)))


@lru_cache(maxsize=64)
def _slot_order(ndim: int, axes: tuple) -> tuple:
    front = tuple(ndim + ax for ax in axes)
    return front + tuple(i for i in range(ndim) if i not in front)


def _drift_walker(R: int, h: float, U, gamma: float | None = None, work: dict | None = None):
    """walk(grads, out=None): every slot's refinement drift from slot-major (R, ..., p) gradients.

    The weights depend on U, h, gamma and R alone, so one walker serves all of a step's rounds; a walk is O(R).

    Slot r's state is theta_r = base_r - drift_r + xi_r with drift_r the
    weighted sum of g_1..g_r, each weight a function of U (..., R) alone.  The
    walk carries A_r = sum_{j<r} g_j; a chain enters only through its own
    partial cell of length L_r = h U_r - (r-1) h / R.

    Vanilla (h coeff_a_vanilla): drift_r = (h/R) A_r + L_r g_r.
    Kinetic (coeff_b_kinetic): with x = gamma h / R and em1(x) = 1 - e^{-x},
    the walk also carries B_r = e^{-x} B_{r-1} + g_{r-1} and
    E_r = E_{r-1} + em1(x) B_{r-1}, and
    drift_r = (g1(x) A_r + em1(x) E_r) / gamma
              + em1(gamma L_r) em1(x) / gamma B_r + g1(gamma L_r) / gamma g_r.
    No term is a cancelling difference.  Every operation is elementwise over
    chains, so the bits do not depend on how an ensemble is split.
    """
    cell = h * _slot_view(np.asarray(U, dtype=float) - _strata(R)[1])[..., None]  # (R, ..., 1)
    if gamma is None:
        scale, own = h / R, cell
    else:
        x = gamma * h / R
        em1x, decay = _em1(x), np.exp(-x)
        scale = _g1(x) / gamma
        gain = _em1(gamma * cell) * (em1x / gamma)
        own = _g1(gamma * cell) / gamma

    def walk(grads, out=None):
        out = np.empty(grads.shape) if out is None else out
        out[0] = 0.0
        for r in range(1, R):
            np.add(out[r - 1], grads[r - 1], out=out[r])                # A_r
        out *= scale
        if gamma is not None:
            B, E, tmp = (_take(work, name, grads.shape[1:]) for name in ("B", "E", "tmp"))
            B[...] = E[...] = 0.0
            for r in range(1, R):
                E += np.multiply(em1x, B, out=tmp)                      # E_r, from B_{r-1}
                B *= decay
                B += grads[r - 1]                                        # B_r
                out[r] += np.multiply(em1x / gamma, E, out=tmp)
                out[r] += np.multiply(gain[r], B, out=tmp)
        out += np.multiply(own, grads, out=_take(work, "z", grads.shape))
        return out

    return walk


def _time_grid(R: int, h: float, U) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints U as floats, and the times (h U_1..h U_R, h); U must hold R midpoints per chain."""
    u = np.asarray(U, dtype=float)
    if u.shape[-1:] != (R,):
        raise ConfigurationError(f"midpoints U of shape {u.shape} do not hold R = {R} midpoints per chain")
    times = np.empty(u.shape[:-1] + (R + 1,))
    np.multiply(u, h, out=times[..., :R])
    times[..., R] = h
    return u, times


def _gaps(times: np.ndarray) -> np.ndarray:
    """Lengths of the R+1 intervals between consecutive path times, from 0."""
    dt = np.empty(times.shape)
    dt[..., 0] = times[..., 0]
    np.subtract(times[..., 1:], times[..., :-1], out=dt[..., 1:])
    if (dt < 0).any():
        raise InternalError("midpoint times are not nondecreasing")
    return dt


def draw_vanilla_noise(
    R: int,
    h: float,
    p: int,
    U: np.ndarray,
    rng: np.random.Generator,
    work: dict | None = None,
) -> VanillaNoiseDraw:
    """Exact joint draw of (xi_1..xi_R, xi) given the midpoints U, one chain per row of U.

    Builds the Brownian path at the ordered times h U_1 <= ... <= h U_R <= h by
    summing independent increments, then scales by sqrt(2).  Per coordinate,
    Cov(xi_r, xi_s) = 2 h min(U_r, U_s), Cov(xi_r, xi) = 2 h U_r, Var(xi) = 2h.
    """
    u, times = _time_grid(R, h, U)
    dt = _gaps(times)
    z = rng.standard_normal(out=_take(work, "z", times.shape + (p,)))  # drawn chain-major
    # Slot-major (R+1, ..., p) path: one in-place slice add per slot (np.cumsum along axis 0 is slower).
    path = _take(work, "path", (R + 1,) + times.shape[:-1] + (p,))
    np.multiply(_slot_view(np.sqrt(dt))[..., None], _slot_view(z, -2), out=path)
    for k in range(1, R + 1):
        path[k] += path[k - 1]
    path *= _SQRT2
    return VanillaNoiseDraw(U=u, xi_mid=path[:R], xi_full=path[R])


def kinetic_covariance(R: int, gamma: float, h: float, U: np.ndarray) -> np.ndarray:
    """Per-coordinate covariance of (xi_1..xi_R, xi, xi_bar), closed form.

    Entry (i, j) equals 2 int_0^h g_i(s) g_j(s) ds by the Ito isometry, where
    g_r(s) = 1{s <= h U_r} (1 - e^{-gamma (h U_r - s)}) for the midpoints,
    g for xi uses h in place of h U_r, and g for xi_bar is e^{-gamma (h - s)}.
    Every entry is a sum of nonnegative terms built from e^{-x}, tanh(x/2)
    and h(x) = x - 2 tanh(x/2), so none cancels at small gamma h.
    The reference for :func:`draw_kinetic_noise`; raises InternalError if the
    result is not PSD to 1e-10.
    """
    if gamma <= 0 or h <= 0:
        raise DomainError("gamma and h must be positive")
    u, taus = _time_grid(R, h, U)  # taus: (..., R+1)

    x = gamma * np.minimum(taus[..., :, None], taus[..., None, :])  # gamma times the earlier time
    gap = gamma * np.abs(taus[..., :, None] - taus[..., None, :])
    g2 = _h(x) + np.tanh(x / 2) * _em1(x) ** 2 / 2  # x - 2(1 - e^{-x}) + (1 - e^{-2x})/2
    block = (_em1(gap) * _g1(x) + np.exp(-gap) * g2) / gamma  # (..., R+1, R+1)

    cross_bar = np.exp(-gamma * (h - taus)) * _em1(gamma * taus) ** 2 / (2.0 * gamma)  # (..., R+1)
    var_bar = _em1(2.0 * gamma * h) / (2.0 * gamma)

    cov = np.zeros(u.shape[:-1] + (R + 2, R + 2))
    cov[..., :-1, :-1] = block
    cov[..., :-1, -1] = cov[..., -1, :-1] = cross_bar
    cov[..., -1, -1] = var_bar
    cov *= 2.0

    eigs = np.linalg.eigvalsh(cov)
    if np.any(eigs < -_PSD_TOL):
        raise InternalError(
            f"assembled kinetic covariance has eigenvalue {eigs.min():.3e} < -{_PSD_TOL:g} "
            f"(gamma={gamma}, h={h})"
        )
    return cov


def draw_kinetic_noise(
    R: int,
    gamma: float,
    h: float,
    p: int,
    U: np.ndarray,
    rng: np.random.Generator,
    work: dict | None = None,
) -> KineticNoiseDraw:
    """Exact joint draw of (xi_1..xi_R, xi, xi_bar) given the midpoints U, one chain per row of U.

    Walks (D, Y) over the ordered times h U_1 <= ... <= h U_R <= h.  A gap of
    length dt (x = gamma dt) adds a fresh Gaussian (d, y): Var y =
    (1 - e^{-2x}) / (2 gamma), and d = tanh(x/2) y plus an independent normal
    of variance (x - 2 tanh(x/2)) / gamma (both 0 on a tied gap, x = 0).
    Then D <- D + (1 - e^{-x}) Y + d and Y <- e^{-x} Y + y.  The draw reads
    xi_r = sqrt(2) D(h U_r), xi = sqrt(2) D(h), xi_bar = sqrt(2) Y(h).
    Coordinates are independent; chain c takes its own block of normals.
    """
    u, times = _time_grid(R, h, U)
    # Slot-major (R+1, p, ...) walk: each broadcast is one pass over the chains, not C passes of p.
    x = _slot_view(gamma * _gaps(times))[:, None]             # (R+1, 1, ...)
    slope, cond_sd = np.tanh(x / 2), np.sqrt(_h(x) / gamma)  # y first, then d given y
    z = _slot_view(rng.standard_normal(out=_take(work, "z", times.shape + (2, p))), -3, -2, -1)  # chain-major
    y = np.multiply(np.sqrt(_em1(2.0 * x) / (2.0 * gamma)), z[:, 0], out=_take(work, "y", z[:, 0].shape))
    D = np.multiply(cond_sd, z[:, 1], out=_take(work, "D", y.shape))  # each gap's d, then D in place
    gain, decay, Y, tmp = _em1(x), np.exp(-x), _take(work, "B", y.shape[1:]), _take(work, "tmp", y.shape[1:])
    Y[...] = 0.0
    for k in range(R + 1):
        D[k] += np.multiply(slope[k], y[k], out=tmp)
        D[k] += np.multiply(gain[k], Y, out=tmp)
        D[k] += D[k - 1] if k else 0.0
        Y *= decay[k]
        Y += y[k]
    n = D.ndim
    xi = y.reshape(D.shape[:1] + D.shape[2:] + D.shape[1:2])  # y is spent: xi takes its memory
    np.multiply(D.transpose((0, *range(2, n), 1)), _SQRT2, out=xi)  # slot-major (R+1, ..., p)
    xi_bar = np.multiply(Y.transpose((*range(1, n - 1), 0)), _SQRT2, order="C")
    return KineticNoiseDraw(U=u, xi_mid=xi[:R], xi_full=xi[R], xi_bar=xi_bar)
