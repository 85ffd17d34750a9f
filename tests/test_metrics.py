"""W2 closed form, empirical summaries, and the convergence-bound evaluators."""

import math
import re

import numpy as np
import pytest

from parlmc import (
    ConfigurationError,
    DomainError,
    GaussianSummary,
    empirical_summary,
    theorem1_bound,
    theorem2_bound,
    w2_gaussian,
)

# Frozen direct evaluations (mpmath, 40 digits).
T1_DISC_EXAMPLE = 0.038670556214854337  # hbar=0.01, Q=3, R=4, kappa=10, p=10, m=1
T2_TERM3_EXAMPLE = 11.329264848170864   # hbar=0.1, Q=2, R=1, p=10, m=1
T2_TERM4_EXAMPLE = 0.061235447250755016  # same, kappa=10


def _summary(mean, cov):
    return GaussianSummary(mean=np.asarray(mean, float), covariance=np.asarray(cov, float))


class TestW2Gaussian:
    def test_identical_is_zero(self):
        a = _summary([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert w2_gaussian(a, a) < 1e-8

    def test_translation(self):
        a = _summary([0.0, 0.0], np.eye(2))
        b = _summary([3.0, 4.0], np.eye(2))
        assert w2_gaussian(a, b) == pytest.approx(5.0, abs=1e-10)

    def test_1d_scale(self):
        a = _summary([0.0], [[1.0]])
        b = _summary([0.0], [[4.0]])
        assert w2_gaussian(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.standard_normal((8, 3))
            y = rng.standard_normal((9, 3))
            a, b = empirical_summary(x), empirical_summary(y)
            assert abs(w2_gaussian(a, b) - w2_gaussian(b, a)) < 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            summaries = [empirical_summary(rng.standard_normal((10, 3)) * s + m)
                         for s, m in [(1.0, 0.0), (2.0, 1.0), (0.5, -1.0)]]
            a, b, c = summaries
            assert w2_gaussian(a, c) <= w2_gaussian(a, b) + w2_gaussian(b, c) + 1e-8

    def test_mean_term_lower_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = empirical_summary(rng.standard_normal((12, 4)))
            b = empirical_summary(rng.standard_normal((12, 4)) + rng.standard_normal(4))
            assert w2_gaussian(a, b) ** 2 >= np.sum((a.mean - b.mean) ** 2) - 1e-10

    def test_commuting_covariances_reduce(self):
        rng = np.random.default_rng(20)
        lam = rng.uniform(0.5, 3.0, 4)
        nu = rng.uniform(0.5, 3.0, 4)
        dmu = rng.standard_normal(4)
        a = _summary(np.zeros(4), np.diag(lam))
        b = _summary(dmu, np.diag(nu))
        closed = math.sqrt(np.sum(dmu**2) + np.sum((np.sqrt(lam) - np.sqrt(nu)) ** 2))
        assert w2_gaussian(a, b) == pytest.approx(closed, abs=1e-10)

    def test_rejects_non_psd(self):
        with pytest.raises(DomainError):
            _summary([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            _summary([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


class TestEmpiricalSummary:
    def test_constant_samples(self):
        s = empirical_summary(np.tile([2.0, -1.0], (10, 1)))
        assert np.allclose(s.mean, [2.0, -1.0])
        assert np.allclose(s.covariance, 0.0)

    def test_unbiased_divisor(self):
        s = empirical_summary(np.array([[0.0], [2.0]]))
        assert s.mean[0] == pytest.approx(1.0)
        assert s.covariance[0, 0] == pytest.approx(2.0)

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((100_000, 2))
        s = empirical_summary(x)
        assert np.all(np.abs(s.covariance - np.eye(2)) < 3 * np.sqrt(2 / 100_000))

    def test_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            empirical_summary(np.zeros((3, 3)))


class TestTheorem1Bound:
    def test_discretization_example(self):
        b = theorem1_bound(h=0.001, Q=3, R=4, m=1.0, M=10.0, p=10, w2_init=0.0, n=10)
        assert b.discretization_term == pytest.approx(T1_DISC_EXAMPLE, rel=1e-12)

    def test_initialization_vanishes(self):
        early = theorem1_bound(h=0.01, Q=3, R=4, m=1.0, M=10.0, p=10, w2_init=2.0, n=0)
        late = theorem1_bound(h=0.01, Q=3, R=4, m=1.0, M=10.0, p=10, w2_init=2.0, n=10_000)
        assert early.initialization_term == pytest.approx(1.03 * 2.0)
        assert late.initialization_term < 1e-8
        assert late.total == pytest.approx(late.discretization_term, rel=1e-6)

    def test_refinement_limits(self):
        wide = theorem1_bound(h=0.001, Q=40, R=10**14, m=1.0, M=10.0, p=10, w2_init=0.0, n=1)
        assert wide.discretization_term < 1e-6
        wider = theorem1_bound(h=0.001, Q=60, R=10**18, m=1.0, M=10.0, p=10, w2_init=0.0, n=1)
        assert wider.discretization_term < wide.discretization_term

    def test_total_is_sum(self):
        b = theorem1_bound(h=0.005, Q=2, R=2, m=1.0, M=10.0, p=4, w2_init=1.0, n=5)
        assert b.total == pytest.approx(b.initialization_term + b.discretization_term)

    def test_precondition_flagged_not_fatal(self):
        b = theorem1_bound(h=0.1, Q=2, R=1, m=1.0, M=10.0, p=2, w2_init=1.0, n=5)
        assert not b.precondition_ok
        assert b.total > 0


class TestTheorem2Bound:
    def test_terms_example(self):
        b = theorem2_bound(h=0.1, Q=2, R=1, m=1.0, M=10.0, gamma=1.0, p=10,
                           w2_init=0.0, f_gap=0.0, n=10)
        assert b.terms["midpoint_variance"] == pytest.approx(T2_TERM3_EXAMPLE, rel=1e-12)
        assert b.terms["refinement_bias"] == pytest.approx(T2_TERM4_EXAMPLE, rel=1e-12)

    def test_start_at_minimizer_kills_gap_term(self):
        b = theorem2_bound(h=0.001, Q=3, R=4, m=1.0, M=10.0, gamma=50.0, p=10,
                           w2_init=1.0, f_gap=0.0, n=3)
        assert b.terms["initial_gap"] == 0.0

    def test_initialization_vanishes(self):
        b = theorem2_bound(h=0.001, Q=3, R=4, m=1.0, M=10.0, gamma=50.0, p=10,
                           w2_init=1.0, f_gap=2.0, n=100_000)
        assert b.initialization_term < 1e-8

    def test_total_is_sum(self):
        b = theorem2_bound(h=0.001, Q=3, R=4, m=1.0, M=10.0, gamma=50.0, p=10,
                           w2_init=1.0, f_gap=2.0, n=10)
        assert b.total == pytest.approx(sum(b.terms.values()))

    def test_negative_gap_rejected(self):
        with pytest.raises(DomainError):
            theorem2_bound(h=0.001, Q=3, R=4, m=1.0, M=10.0, gamma=50.0, p=10,
                           w2_init=1.0, f_gap=-1.0, n=10)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: GaussianSummary(np.zeros(2), np.eye(3)), "mean must be (p,) and covariance (p, p)",
                 id="summary-shape"),
    pytest.param(lambda: w2_gaussian(_summary(np.zeros(2), np.eye(2)), _summary(np.zeros(3), np.eye(3))),
                 "summaries have different dimensions", id="w2-dimensions"),
    pytest.param(lambda: empirical_summary(np.zeros((3, 3))), "need at least p + 1 = 4 samples, got 3",
                 id="summary-too-few-samples"),
])
def test_input_checks(make, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        make()
