"""Noise module: stratified midpoints, exact joint draws, coefficient formulas.

Expected values tagged as quadrature oracles were computed with mpmath /
scipy.integrate.quad against the defining integrals and frozen here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from parlmc import (
    DomainError,
    coeff_a_vanilla,
    coeff_b_kinetic,
    draw_kinetic_noise,
    draw_midpoints,
    draw_vanilla_noise,
    kinetic_covariance,
    psi,
    stream,
)
from parlmc.errors import ConfigurationError, InternalError
from parlmc.noise import ROLE_MIDPOINTS, ROLE_PATH, _drift_walker

# Frozen quadrature-oracle values (mpmath, 40 digits).
B_ORACLE_J1 = 0.19356576966960984  # gamma=1, h=1, R=2, U_2=0.75, j=1
B_ORACLE_J2 = 0.02880078307140487  # gamma=1, h=1, R=2, U_2=0.75, j=2
VAR_XI_BAR = 0.18126924692201814   # gamma=1, h=0.1
VAR_XI_FULL = 0.0006189190658564340

# Frozen 40-digit evaluations (mpmath) of the closed form of coeff_b_kinetic at R=4, h=0.1,
# U=(0.2, 0.3, 0.7, 0.9), keyed by gamma h; each row lists (j, r) for r = 1..4, then j = 1..r.
B_KINETIC_40_DIGITS = {
    1e-06: (1.9999998666666736e-09, 4.374999552083367e-09, 1.2499999791666664e-10, 1.4374995802084163e-08,
            8.124998614583496e-09, 1.9999998666666724e-09, 1.9374992427085325e-08, 1.3124996489583972e-08,
            6.874998989583439e-09, 1.1249999437500025e-09),
    0.0001: (1.9999866667333335e-07, 4.374955208670571e-07, 1.2499979166692705e-08, 1.4374580216628783e-06,
             8.124861459975245e-07, 1.9999866667333325e-07, 1.937424272823268e-06, 1.3124648964704341e-06,
             6.874898959378899e-07, 1.1249943750210942e-07),
    0.01: (1.9986673330667557e-05, 4.370524203705439e-05, 1.2497916927057288e-06, 0.0001433310366453322,
           8.111162237504926e-05, 1.9986673330667547e-05, 0.00019299469435977567, 0.00013089959456212249,
           6.864906280598119e-05, 1.124437710874235e-05),
    1.0: (0.0018730753077981863, 0.003958879618100386, 0.00012294245007140087, 0.010895715216963623,
          0.006889739854379144, 0.0018730753077981852, 0.013452388297958308, 0.010172573072537676,
          0.005961206961058151, 0.001070797642505781),
    50.0: (0.018000090799859526, 0.024835830614556846, 0.003164169997247797, 0.024999999999661623,
           0.024999909200478856, 0.018000090799859522, 0.024999999999999988, 0.02499999999587771,
           0.02499889383538201, 0.013001106168740298),
}

# Frozen 50-digit evaluations (mpmath) of the kinetic gap functions at GAP_XS, both sides of every series cut:
# h = x - 2 tanh(x/2), g1 = x - (1 - e^{-x}), g2 = x - 2(1 - e^{-x}) + (1 - e^{-2x})/2, g3 = (1 - e^{-x}) - (1 - e^{-2x})/2.
GAP_XS = (1e-10, 1e-06, 0.001, 0.0099, 0.01, 0.0199, 0.02, 0.021, 0.1, 0.3999, 0.4, 1.0, 5.0, 20.0, 60.0)
GAP_40_DIGITS = {
    "h": (8.333333333333334e-32, 8.333333333332499e-20, 8.333332500000085e-11, 8.085745751615137e-08,
          8.333250000843246e-08, 6.566905777420243e-07, 6.666400010793214e-07, 7.717159673437074e-07,
          8.325008424005562e-05, 0.005245464796848713, 0.005249359550191999, 0.07576568547998049,
          3.0267714036971394, 18.000000008244616, 58.0),
    "g1": (4.999999999833334e-21, 4.999998333333749e-13, 4.998333749916681e-07, 4.8843682957151566e-05,
           4.983374916805358e-05, 0.00019669807524271484, 0.00019867330675530222, 0.00021896456945958822,
           0.0048374180359595734, 0.07028708139195482, 0.07032004603563931, 0.36787944117144233,
           4.006737946999086, 19.000000002061153, 59.0),
    "g2": (3.333333333083334e-31, 3.3333308333344993e-19, 3.3308344995834563e-10, 3.210425657449471e-07,
           3.308449584560374e-07, 2.5880218736427456e-06, 2.627037348999722e-06, 3.0388526769002305e-06,
           0.00030945953292821707, 0.015964743335297907, 0.01597561001266781, 0.1680912407245783,
           3.5134531940332896, 18.500000004122306, 58.5),
    "g3": (4.9999999995000005e-21, 4.999995000002916e-13, 4.995002915417097e-07, 4.852264039140662e-05,
           4.950290420959754e-05, 0.0001941100533690721, 0.0001960462694063025, 0.00021592571678268798,
           0.0045279585030313565, 0.054322338056656906, 0.0543444360229715, 0.19978820044686402,
           0.49328475296579577, 0.49999999793884636, 0.5),
}


def _kinetic_integrands(R, gamma, h, U):
    taus = np.append(np.asarray(U) * h, h)

    def g(i):
        if i < R + 1:
            t = taus[i]
            return lambda s: (1 - np.exp(-gamma * (t - s))) if s <= t else 0.0
        return lambda s: np.exp(-gamma * (h - s))

    return g, taus


def _full_weights(R, h, U, gamma=None):
    """The engine's slot walk as one lower-triangular matrix per chain.

    Slot j's gradient is the identity basis vector e_j, so coordinate j of
    slot r's drift is the weight of g_j in theta_r.
    """
    U = np.asarray(U, dtype=float)
    basis = np.eye(R).reshape((R,) + (1,) * (U.ndim - 1) + (R,))
    drift = _drift_walker(R, h, U, gamma)(np.broadcast_to(basis, (R,) + U.shape[:-1] + (R,)))
    weights = np.moveaxis(drift, 0, -2)
    assert not np.triu(weights, 1).any()
    return weights


class TestPsi:
    def test_limit_at_zero(self):
        assert psi(0.0) == 1.0

    def test_reference_value(self):
        assert psi(1.0) == pytest.approx(0.6321205588285577, abs=1e-15)

    def test_tiny_argument_series(self):
        x = 1e-12
        assert abs(psi(x) - (1 - x / 2)) < 1e-15

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            psi(-1e-9)

    def test_decreasing(self):
        xs = np.linspace(0.0, 20.0, 4001)
        vals = psi(xs)
        assert np.all(np.diff(vals) < 0)


class TestStream:
    @pytest.mark.parametrize("method", ["random", "standard_normal"])
    def test_rekeyed_stream_equals_a_fresh_one(self, method):
        work = {}
        for seed, k, role in [(3, 0, 0), (3, 0, 1), (3, 1, 0), (3, 1, 1), (3, 7, 2), (11, 7, 2), (11, 2**40, 1)]:
            rekeyed = stream(seed, k, role, work)
            assert rekeyed is work["rng"]  # one generator per workspace
            got, want = getattr(rekeyed, method)(37), getattr(stream(seed, k, role), method)(37)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            rekeyed.integers(0, 2**31, size=3, dtype=np.uint32)  # leave a half-used word and buffer behind


class TestMidpoints:
    def test_single_stratum_uniform(self):
        u = draw_midpoints(1, stream(0, 0, ROLE_MIDPOINTS))
        assert u.shape == (1,)
        assert 0.0 <= u[0] < 1.0

    def test_stratified_mean(self):
        u = draw_midpoints(4, stream(1, 0, ROLE_MIDPOINTS), size=100_000)
        # U_3 is uniform on [0.5, 0.75]: mean 0.625, sd of the mean estimator
        m = u[:, 2].mean()
        se = (0.25 / np.sqrt(12)) / np.sqrt(100_000)
        assert abs(m - 0.625) < 3 * se

    def test_bounds_and_order(self):
        u = draw_midpoints(8, stream(2, 5, ROLE_MIDPOINTS), size=2000)
        r = np.arange(8)
        assert np.all(u >= r / 8) and np.all(u <= (r + 1) / 8)
        assert np.all(np.diff(u, axis=-1) > 0)

    def test_deterministic_given_seed(self):
        a = draw_midpoints(4, stream(9, 3, ROLE_MIDPOINTS))
        b = draw_midpoints(4, stream(9, 3, ROLE_MIDPOINTS))
        assert np.array_equal(a, b)

    def test_zero_strata_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_midpoints(0, stream(0, 0, ROLE_MIDPOINTS))

    @pytest.mark.parametrize("R", [3, 9])
    @pytest.mark.parametrize("size", [None, 2])
    def test_stratum_boundary_ties_are_used_as_drawn(self, R, size):
        # (r + (1 - 2^-53)) / R rounds to (r + 1) / R at these R: U_r and U_{r+1} tie.
        top = 1.0 - 2.0**-53
        assert (0 + top) / R == 1 / R and (2 + top) / R == 3 / R

        class Colliding:
            def random(self, shape):
                return np.resize(np.where(np.arange(R) % 2 == 0, top, 0.0), shape)

        u = draw_midpoints(R, Colliding(), size=size)
        assert u.shape == ((R,) if size is None else (size, R))
        tied = u[..., 1:] == u[..., :-1]
        assert tied.any() and np.all(u[..., 1:] >= u[..., :-1])
        r = np.arange(R)
        assert np.all(u >= r / R) and np.all(u <= (r + 1) / R)
        # A tie is a zero gap: both draws give the tied slots equal xi, and the walk stays finite there.
        tied = np.moveaxis(tied, -1, 0)  # slot-major, like xi_mid
        for d in (draw_vanilla_noise(R, 0.1, 3, u, stream(19, 0, ROLE_PATH)),
                  draw_kinetic_noise(R, 2.0, 0.1, 3, u, stream(19, 0, ROLE_PATH))):
            assert all(np.isfinite(a).all() for a in vars(d).values())
            assert np.array_equal(d.xi_mid[1:][tied], d.xi_mid[:-1][tied])
        grads = np.random.default_rng(19).standard_normal((R,) + u.shape[:-1] + (3,))
        for gamma in (None, 2.0):
            assert np.isfinite(_drift_walker(R, 0.1, u, gamma)(grads)).all()


class TestVanillaCoefficients:
    def test_direct_evaluation(self):
        U = np.array([0.1, 0.3, 0.65, 0.9])
        assert coeff_a_vanilla(4, U, 1, 3) == pytest.approx(0.25)
        assert coeff_a_vanilla(4, U, 2, 3) == pytest.approx(0.25)
        assert coeff_a_vanilla(4, U, 3, 3) == pytest.approx(0.15)

    def test_single_stratum_reduction(self):
        assert coeff_a_vanilla(1, np.array([0.37]), 1, 1) == pytest.approx(0.37)

    def test_boundary_zero(self):
        U = np.array([0.0, 0.5])
        assert coeff_a_vanilla(2, U, 1, 1) == 0.0

    def test_index_error(self):
        with pytest.raises(IndexError):
            coeff_a_vanilla(4, np.array([0.1, 0.3, 0.6, 0.9]), 3, 2)

    def test_matrix_matches_scalar(self):
        rng = stream(6, 0, ROLE_MIDPOINTS)
        for R in (1, 4, 24, 122):
            U = draw_midpoints(R, rng, size=3)
            want = np.array([[[coeff_a_vanilla(R, u, j, r) if j <= r else 0.0 for j in range(1, R + 1)]
                              for r in range(1, R + 1)] for u in U])
            got = _full_weights(R, 0.1, U) / 0.1
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.all(got >= 0.0) and np.all(got <= 1 / R + 1e-15)


class TestKineticCoefficients:
    def test_quadrature_oracle(self):
        U = np.array([0.25, 0.75])
        assert coeff_b_kinetic(2, 1.0, 1.0, U, 1, 2) == pytest.approx(B_ORACLE_J1, abs=1e-13)
        assert coeff_b_kinetic(2, 1.0, 1.0, U, 2, 2) == pytest.approx(B_ORACLE_J2, abs=1e-13)

    def test_vanishing_friction_limit(self):
        U = np.array([0.25, 0.75])
        assert abs(coeff_b_kinetic(2, 1e-14, 1.0, U, 1, 2)) < 1e-12

    @pytest.mark.parametrize("gamma_h", sorted(B_KINETIC_40_DIGITS))
    def test_frozen_40_digit_values(self, gamma_h):
        # Small gamma h is where L - e^{-a} em1(gamma L) / gamma would cancel; the weight keeps full precision.
        R, h, U = 4, 0.1, np.array([0.2, 0.3, 0.7, 0.9])
        got = [coeff_b_kinetic(R, gamma_h / h, h, U, j, r) for r in range(1, R + 1) for j in range(1, r + 1)]
        np.testing.assert_allclose(got, B_KINETIC_40_DIGITS[gamma_h], rtol=1e-14, atol=0.0)

    def test_bounds(self):
        rng = stream(4, 0, ROLE_MIDPOINTS)
        for R in (1, 2, 4, 8):
            U = draw_midpoints(R, rng)
            for r in range(1, R + 1):
                for j in range(1, r + 1):
                    b = coeff_b_kinetic(R, 2.0, 0.05, U, j, r)
                    u2 = (0.05 / R) * min(j, R * U[r - 1])
                    u1 = (j - 1) * 0.05 / R
                    assert 0.0 <= b <= u2 - u1 + 1e-15

    def test_matrix_matches_scalar(self):
        rng = stream(6, 0, ROLE_MIDPOINTS)
        for R in (1, 4, 24, 122):
            U = draw_midpoints(R, rng, size=3)
            for gamma_h in (0.05, 0.1, 1.0, 5.0):
                gamma, h = 2.0, gamma_h / 2.0
                want = np.array([[[coeff_b_kinetic(R, gamma, h, u, j, r) if j <= r else 0.0
                                   for j in range(1, R + 1)] for r in range(1, R + 1)] for u in U])
                got = _full_weights(R, h, U, gamma)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (R, gamma_h)
            # At gamma h = 1e-4, against an independent quadrature of the defining integral.
            gamma, h, u = 2.0, 5e-5, U[0]
            got = _full_weights(R, h, u, gamma)
            want = np.zeros((R, R))
            for r in range(1, R + 1):
                for j in range(1, r + 1):
                    hi = (h / R) * min(j, R * u[r - 1])
                    want[r - 1, j - 1] = quad(lambda s: -np.expm1(-gamma * (h * u[r - 1] - s)),
                                              (j - 1) * h / R, hi, epsabs=0.0, epsrel=1e-13)[0]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), R

    def test_prefix_sum_telescopes(self):
        # sum_{j<=r} b_j equals the integral over [0, U_r h]: h U_r - (1 - e^{-gamma h U_r}) / gamma
        gamma, h, R = 1.3, 0.7, 4
        U = np.arange(1, R + 1) / R  # right endpoints: each b_j covers its full stratum
        for r in range(1, R + 1):
            total = sum(coeff_b_kinetic(R, gamma, h, U, j, r) for j in range(1, r + 1))
            closed = h * U[r - 1] - (1 - np.exp(-gamma * h * U[r - 1])) / gamma
            oracle = quad(lambda s: 1 - np.exp(-gamma * (U[r - 1] * h - s)), 0, U[r - 1] * h)[0]
            assert total == pytest.approx(closed, rel=1e-12)
            assert total == pytest.approx(oracle, rel=1e-10)


class TestVanillaNoise:
    def test_full_increment_variance(self):
        U = draw_midpoints(1, stream(6, 0, ROLE_MIDPOINTS), size=100_000)
        d = draw_vanilla_noise(1, 0.1, 1, U, stream(6, 0, ROLE_PATH))
        var = d.xi_full[:, 0].var(ddof=1)
        se = 0.2 * np.sqrt(2 / (100_000 - 1))
        assert abs(var - 0.2) < 3 * se

    def test_midpoint_cross_covariance(self):
        U = np.array([0.3, 0.7])
        d = draw_vanilla_noise(2, 0.1, 1, np.broadcast_to(U, (100_000, 2)), stream(7, 0, ROLE_PATH))
        cov = np.cov(d.xi_mid[0, :, 0], d.xi_mid[1, :, 0])[0, 1]
        # 2 h min(U) = 0.06; SE of the covariance estimator
        se = np.sqrt((2 * 0.1 * 0.3 * 2 * 0.1 * 0.7 + 0.06**2) / (100_000 - 1))
        assert abs(cov - 0.06) < 3 * se

    def test_terminal_gap_variance(self):
        U = np.array([0.4])
        d = draw_vanilla_noise(1, 0.1, 1, np.broadcast_to(U, (100_000, 1)), stream(8, 0, ROLE_PATH))
        gap = d.xi_full[:, 0] - d.xi_mid[0, :, 0]
        target = 2 * 0.1 * (1 - 0.4)
        se = target * np.sqrt(2 / (100_000 - 1))
        assert abs(gap.var(ddof=1) - target) < 3 * se

    def test_deterministic_given_seed(self):
        U = draw_midpoints(3, stream(10, 2, ROLE_MIDPOINTS))
        a = draw_vanilla_noise(3, 0.05, 4, U, stream(10, 2, ROLE_PATH))
        b = draw_vanilla_noise(3, 0.05, 4, U, stream(10, 2, ROLE_PATH))
        assert np.array_equal(a.xi_mid, b.xi_mid) and np.array_equal(a.xi_full, b.xi_full)


class TestKineticCovariance:
    def test_xi_bar_variance(self):
        cov = kinetic_covariance(1, 1.0, 0.1, np.array([0.5]))
        assert cov[2, 2] == pytest.approx(VAR_XI_BAR, rel=1e-13)

    def test_xi_full_variance(self):
        cov = kinetic_covariance(1, 1.0, 0.1, np.array([0.5]))
        assert cov[1, 1] == pytest.approx(VAR_XI_FULL, rel=1e-12)

    def test_large_friction_limit(self):
        cov = kinetic_covariance(1, 1e3, 0.1, np.array([0.5]))
        assert cov[2, 2] == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("R", [1, 2, 4, 8])
    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1])
    def test_matches_quadrature_on_grid(self, R, eta):
        gamma = 2.0
        h = eta / gamma
        # stratum midpoints plus one seeded draw
        for U in ((np.arange(R) + 0.5) / R, draw_midpoints(R, stream(11, R, ROLE_MIDPOINTS))):
            cov = kinetic_covariance(R, gamma, h, U)
            g, taus = _kinetic_integrands(R, gamma, h, U)
            for i in range(R + 2):
                for j in range(i + 1):
                    val = 2 * quad(
                        lambda s: g(i)(s) * g(j)(s), 0, h,
                        points=list(taus), limit=200, epsabs=1e-16, epsrel=1e-13,
                    )[0]
                    assert cov[i, j] == pytest.approx(val, rel=1e-10, abs=1e-18)

    def test_symmetric_psd(self):
        U = draw_midpoints(6, stream(12, 0, ROLE_MIDPOINTS))
        cov = kinetic_covariance(6, 3.0, 0.02, U)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-10


class _IdentityBasis:
    """Generator stand-in whose normals are an identity basis, one column per variate."""

    def standard_normal(self, out):
        out[...] = np.eye(out.shape[-1]).reshape(out.shape)
        return out


def _kinetic_linear_map(R, gamma, h, U):
    """The (R+2, 2(R+1)) matrix L the kinetic draw applies to its standard normals."""
    d = draw_kinetic_noise(R, gamma, h, 2 * (R + 1), np.asarray(U), _IdentityBasis())
    return np.concatenate([d.xi_mid, d.xi_full[None], d.xi_bar[None]], axis=0)


class TestGapFunctions:
    @pytest.mark.parametrize("name", sorted(GAP_40_DIGITS))
    def test_frozen_40_digit_values(self, name):
        # At gamma = 1 and h = x: one full cell weighs g1(x); Var xi = 2 g2(x) and Cov(xi, xi_bar) = 2 g3(x).
        if name == "h":
            from parlmc.noise import _h
            got = [float(_h(x)) for x in GAP_XS]
        elif name == "g1":
            got = [coeff_b_kinetic(1, 1.0, x, [1.0], 1, 1) for x in GAP_XS]
        else:
            entry = (1, 1) if name == "g2" else (1, 2)
            got = [kinetic_covariance(1, 1.0, x, np.array([0.5]))[entry] / 2 for x in GAP_XS]
        np.testing.assert_allclose(got, GAP_40_DIGITS[name], rtol=1e-13, atol=0.0)


class TestKineticNoise:
    @pytest.mark.parametrize("R", [1, 2, 24, 122, 274])
    @pytest.mark.parametrize("gamma_h", [1e-4, 0.1, 1.0, 5.0])
    def test_linear_map_reproduces_covariance(self, R, gamma_h):
        gamma = 2.0
        h = gamma_h / gamma
        U = draw_midpoints(R, stream(15, R, ROLE_MIDPOINTS))
        L = _kinetic_linear_map(R, gamma, h, U)
        ana = kinetic_covariance(R, gamma, h, U)
        sd = np.sqrt(np.diag(ana))
        assert np.max(np.abs(L @ L.T - ana) / np.outer(sd, sd)) < 1e-11

    def test_tied_times_stay_finite(self):
        U = np.array([0.3, 0.3])
        L = _kinetic_linear_map(2, 1.0, 0.1, U)
        assert np.all(np.isfinite(L))
        ana = kinetic_covariance(2, 1.0, 0.1, U)
        sd = np.sqrt(np.diag(ana))
        assert np.max(np.abs(L @ L.T - ana) / np.outer(sd, sd)) < 1e-11

    def test_monte_carlo_covariance(self):
        R, gamma, h = 2, 1.0, 0.1
        U = np.array([0.2, 0.8])
        d = draw_kinetic_noise(R, gamma, h, 1, np.broadcast_to(U, (100_000, R)), stream(13, 0, ROLE_PATH))
        x = np.concatenate([d.xi_mid[:, :, 0].T, d.xi_full, d.xi_bar], axis=1)
        emp = np.cov(x, rowvar=False)
        ana = kinetic_covariance(R, gamma, h, U)
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / (100_000 - 1))
        assert np.all(np.abs(emp - ana) < 3 * se)

    def test_position_noise_higher_order_than_velocity(self):
        # Var(xi_full) ~ h^3 while Var(xi_bar) ~ h: ratio vanishes as h -> 0
        cov = kinetic_covariance(1, 1.0, 1e-4, np.array([0.5]))
        assert cov[1, 1] / cov[2, 2] < 1e-3

    def test_deterministic_given_seed(self):
        U = draw_midpoints(2, stream(14, 1, ROLE_MIDPOINTS))
        a = draw_kinetic_noise(2, 1.0, 0.1, 3, U, stream(14, 1, ROLE_PATH))
        b = draw_kinetic_noise(2, 1.0, 0.1, 3, U, stream(14, 1, ROLE_PATH))
        assert np.array_equal(a.xi_bar, b.xi_bar) and np.array_equal(a.xi_mid, b.xi_mid)


@pytest.mark.parametrize("kinetic", [False, True])
def test_ensemble_xi_mid_is_slot_major(kinetic):
    # xi_mid has the engine's round shape (R, C, p); chain 0 is the 1-chain draw of the same stream.
    R, h, p = 5, 0.1, 3
    U = draw_midpoints(R, stream(16, 0, ROLE_MIDPOINTS), size=7)

    def draw(u):
        rng = stream(16, 0, ROLE_PATH)
        if kinetic:
            return draw_kinetic_noise(R, 2.0, h, p, u, rng)
        return draw_vanilla_noise(R, h, p, u, rng)

    whole, single = draw(U), draw(U[0])
    assert whole.xi_mid.shape == (R, 7, p)
    assert whole.xi_mid.flags.c_contiguous
    assert np.array_equal(whole.xi_mid[:, 0], single.xi_mid)


@pytest.mark.parametrize("R", [3, 5])
def test_draws_reject_midpoints_of_another_width(R):
    # U holds 4 midpoints per chain; R = 3 once skewed xi_full's variance and R = 5 raised IndexError.
    U = draw_midpoints(4, stream(17, 0, ROLE_MIDPOINTS), size=6)
    with pytest.raises(ConfigurationError, match=f"R = {R}"):
        draw_vanilla_noise(R, 0.1, 1, U, stream(17, 0, ROLE_PATH))
    with pytest.raises(ConfigurationError, match=f"R = {R}"):
        draw_kinetic_noise(R, 2.0, 0.1, 1, U, stream(17, 0, ROLE_PATH))
    with pytest.raises(ConfigurationError, match=f"R = {R}"):
        kinetic_covariance(R, 2.0, 0.1, U[0])


@pytest.mark.parametrize("U", [[0.6, 0.3], [[0.1, 0.4], [0.2, 0.15]]])
def test_draws_reject_decreasing_midpoints(U):
    # A user-supplied U out of order would give a negative gap: an internal invariant, loud in both draws.
    with pytest.raises(InternalError, match="nondecreasing"):
        draw_vanilla_noise(2, 0.1, 3, np.array(U), stream(18, 0, ROLE_PATH))
    with pytest.raises(InternalError, match="nondecreasing"):
        draw_kinetic_noise(2, 2.0, 0.1, 3, np.array(U), stream(18, 0, ROLE_PATH))


@st.composite
def _walks(draw):
    """R in 1..40, h, gamma None or gamma h in 1e-6..50, and 1 or 2 chains of stratified U with boundary ties."""
    R, C = draw(st.integers(1, 40)), draw(st.integers(1, 2))
    h = draw(st.floats(1e-3, 2.0))
    gamma = draw(st.none() | st.floats(1e-6, 50.0).map(lambda gh: gh / h))
    # Offsets of 0 and 1 put U_r on its stratum's edges, so neighbours tie at (r + 1) / R.
    offsets = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=C * R, max_size=C * R))
    U = (np.arange(R) + np.reshape(offsets, (C, R))) / R
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return R, h, gamma, U, rng.standard_normal((R, C, 3))


class TestDriftWalkerProperty:
    @settings(max_examples=60)
    @given(_walks())
    def test_walk_equals_the_scalar_weight_sums(self, drawn):
        R, h, gamma, U, G = drawn
        got = _drift_walker(R, h, U, gamma)(G)
        want, scale = np.zeros_like(G), np.zeros_like(G)
        for c, u in enumerate(U):
            for r in range(1, R + 1):
                for j in range(1, r + 1):
                    w = h * coeff_a_vanilla(R, u, j, r) if gamma is None else coeff_b_kinetic(R, gamma, h, u, j, r)
                    cell = (h / R) * min(float(j), R * u[r - 1]) - (j - 1) * h / R  # the weight's integration range
                    want[r - 1, c] += w * G[j - 1, c]
                    scale[r - 1, c] += cell * abs(G[j - 1, c])
        # Relative to the terms' scale, sum of cell length x |gradient|: for the vanilla weights this is plain
        # relative error; TestKineticCoefficients pins the scalar kinetic weights themselves to 1e-14.
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@st.composite
def _noise_shapes(draw):
    """R in 1..40, h, gamma h in 1e-6..50, and stratified U whose neighbours tie on stratum edges, 0 and 1.

    No subnormal offset: a subnormal time has too few bits for any relative bound (draw_midpoints makes none).
    """
    R, h = draw(st.integers(1, 40)), draw(st.floats(1e-3, 2.0))
    gamma = draw(st.floats(1e-6, 50.0)) / h
    offsets = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, allow_subnormal=False),
                            min_size=R, max_size=R))
    return R, h, gamma, (np.arange(R) + np.array(offsets)) / R


class TestExactNoiseProperty:
    """Both draws are linear in their normals, so an identity basis of normals gives the map L, and L L^T
    must be the covariance: kinetic_covariance, and 2 h min(U_r, U_s) with U_{R+1} = 1 for the vanilla path."""

    @settings(max_examples=100)
    @given(_noise_shapes())
    def test_identity_basis_gives_the_covariance(self, drawn):
        R, h, gamma, U = drawn
        vanilla = draw_vanilla_noise(R, h, R + 1, U, _IdentityBasis())
        times = np.append(U, 1.0)
        for L, cov in ((np.concatenate([vanilla.xi_mid, vanilla.xi_full[None]]),
                        2 * h * np.minimum(times[:, None], times[None, :])),
                       (_kinetic_linear_map(R, gamma, h, U), kinetic_covariance(R, gamma, h, U))):
            sd = np.sqrt(np.diag(cov))  # 0 on a midpoint tied to time 0, where L's row must be exactly 0
            assert np.all(np.abs(L @ L.T - cov) <= 1e-12 * np.outer(sd, sd))


def test_streams_differ_across_keys():
    base = stream(21, 0, ROLE_PATH).standard_normal(4)
    assert not np.array_equal(base, stream(21, 1, ROLE_PATH).standard_normal(4))
    assert not np.array_equal(base, stream(21, 0, ROLE_MIDPOINTS).standard_normal(4))
    assert not np.array_equal(base, stream(22, 0, ROLE_PATH).standard_normal(4))


@pytest.mark.parametrize("seed, iteration, role", [(0, 0, ROLE_PATH), (21, 7, ROLE_MIDPOINTS),
                                                   (2**40 + 3, 123456, ROLE_PATH), (9, 1, 2)])
def test_cached_key_stream_matches_fresh_derivation(seed, iteration, role):
    stream(seed, iteration, role)  # warm the key cache
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.array([0, 0, role, iteration], dtype=np.uint64)
    fresh = np.random.Generator(np.random.Philox(counter=counter, key=key))
    assert np.array_equal(stream(seed, iteration, role).standard_normal(16), fresh.standard_normal(16))
    assert np.array_equal(stream(seed, iteration, role).random(16), stream(seed, iteration, role).random(16))


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: coeff_b_kinetic(2, 1.0, 1.0, [0.25, 0.75], 2, 1), IndexError, "need 1 <= j <= r <= R",
                 id="b-index"),
    pytest.param(lambda: coeff_b_kinetic(2, 0.0, 1.0, [0.25, 0.75], 1, 2), DomainError, "must be positive",
                 id="b-gamma"),
    pytest.param(lambda: coeff_b_kinetic(2, 1.0, -1.0, [0.25, 0.75], 1, 2), DomainError, "must be positive",
                 id="b-h"),
    pytest.param(lambda: kinetic_covariance(2, -1.0, 0.1, np.array([0.25, 0.75])), DomainError, "must be positive",
                 id="covariance-gamma"),
])
def test_input_checks(make, error, message):
    with pytest.raises(error, match=message):
        make()
