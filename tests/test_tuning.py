"""Parameter-selection formulas, precondition margins, and their properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parlmc import (
    ConfigurationError,
    PotentialSpec,
    PreconditionWarning,
    QuadraticPotential,
    SamplerConfig,
    TuneRequest,
    check_preconditions,
    iters_limited,
    run,
    theorem1_bound,
    theorem2_bound,
    tune,
    tune_kinetic,
    tune_vanilla,
)
from parlmc.tuning import kinetic_stability_lhs, vanilla_stability_lhs

# Frozen direct evaluations (mpmath, 40 digits).
PRE_FAIL_EXAMPLE = 0.17324555320336759   # hbar=0.1, Q=2, R=1, kappa=1
PRE_PASS_EXAMPLE = 0.0029279074841227312  # hbar=0.01, Q=3, R=4, kappa=10
ITERS_VANILLA_EXAMPLE = 5.666015869513721  # kappa=1, eps=1/e, R=1


def _req(eps, kappa, regime, m=1.0, p=10, w2=3.0, R=None):
    return TuneRequest(epsilon=eps, m=m, M=m * kappa, p=p, regime=regime, w2_init=w2, R=R)


class TestTuneVanilla:
    def test_reference_point(self):
        plan = tune_vanilla(_req(0.5, 100.0, "vanilla"))
        assert plan.R == 7
        assert plan.Q == 5
        assert plan.h == pytest.approx(0.1 / 100.0)  # M h = 0.1
        assert plan.sequential_rounds == plan.n * plan.Q
        assert plan.total_gradient_evals == plan.n * plan.Q * plan.R

    def test_near_unit_precision(self):
        plan = tune_vanilla(_req(0.999, 1.0, "vanilla"))
        assert plan.R >= 1  # ceil(0.28 * 2) before any stability repair

    def test_step_size_rule(self):
        for M in (0.5, 3.0, 40.0):
            plan = tune_vanilla(TuneRequest(epsilon=0.3, m=0.1, M=M, p=5,
                                            regime="vanilla", w2_init=1.0))
            assert plan.h * M == pytest.approx(0.1)

    def test_missing_w2_warns(self):
        plan = tune_vanilla(TuneRequest(epsilon=0.3, m=1.0, M=10.0, p=5, regime="vanilla"))
        assert any("W2" in w for w in plan.warnings)
        assert plan.n >= 1

    def test_n_clamped_positive(self):
        plan = tune_vanilla(TuneRequest(epsilon=0.9, m=1.0, M=2.0, p=10_000,
                                        regime="vanilla", w2_init=1e-6))
        assert plan.n == 1

    def test_wrong_regime_rejected(self):
        with pytest.raises(ConfigurationError):
            tune_vanilla(_req(0.5, 100.0, "kinetic"))

    def test_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            _req(1.5, 100.0, "vanilla")
        with pytest.raises(ConfigurationError):
            _req(0.0, 100.0, "vanilla")


class TestTuneKinetic:
    def test_reference_point(self):
        plan = tune_kinetic(_req(0.5, 100.0, "kinetic"))
        assert plan.R == 28
        assert plan.Q == 8
        assert plan.gamma == pytest.approx(5.0 * 100.0)
        assert plan.gamma * plan.h == pytest.approx(0.1)

    def test_friction_rule(self):
        for M in (0.5, 7.0):
            plan = tune_kinetic(TuneRequest(epsilon=0.2, m=0.1, M=M, p=5,
                                            regime="kinetic", w2_init=1.0))
            assert plan.gamma == pytest.approx(5 * M)
            assert plan.h == pytest.approx(0.02 / M)


class TestPreconditionChecks:
    def test_vanilla_fail_example(self):
        lhs = vanilla_stability_lhs(0.1, 2, 1, 1.0)
        assert lhs == pytest.approx(PRE_FAIL_EXAMPLE, rel=1e-12)
        assert lhs > 0.1

    def test_vanilla_pass_example(self):
        lhs = vanilla_stability_lhs(0.01, 3, 4, 10.0)
        assert lhs == pytest.approx(PRE_PASS_EXAMPLE, rel=1e-12)
        assert lhs < 0.1

    def test_kinetic_fail_example(self):
        lhs = kinetic_stability_lhs(0.1, 2, 1, 10.0)
        assert lhs == pytest.approx(2e-5, rel=1e-12)
        assert lhs > 1e-6

    def test_report_shape(self):
        from types import SimpleNamespace

        spec = SimpleNamespace(strong_convexity=1.0, smoothness=10.0)
        cfg = SimpleNamespace(h=0.001, R=4, Q=3, gamma=50.0)
        checks = check_preconditions(cfg, spec, "kinetic")
        by_name = {c.name: c for c in checks}
        assert set(by_name) == {"friction_lower_bound", "kinetic_stability"}
        assert all(c.passed for c in checks)
        assert by_name["friction_lower_bound"].margin == pytest.approx(50.0 - 5 * 10.0)
        stab = by_name["kinetic_stability"]
        assert stab.margin == pytest.approx(stab.threshold - stab.value)

    def test_kinetic_without_gamma_names_gamma(self):
        with pytest.raises(ConfigurationError, match="gamma"):
            check_preconditions(SamplerConfig(h=1.0, n=1, R=2, Q=4), PotentialSpec(2, 1.0, 2.0), "kinetic")


class TestOverflow:
    """hbar^{4Q-2} and hbar^Q overflow a float at a large hbar and Q: each formula reads inf instead of raising,
    so the check fails, run warns and the bound is inf."""

    def test_formulas_read_inf(self):
        assert vanilla_stability_lhs(2e3, 400, 2, 2.0) == math.inf
        assert kinetic_stability_lhs(1e4, 40, 2, 2.0) == math.inf
        vanilla = theorem1_bound(h=1e3, Q=400, R=2, m=1.0, M=2.0, p=2, w2_init=1.0, n=1)
        kinetic = theorem2_bound(h=1.0, Q=40, R=2, m=1.0, M=2.0, gamma=1e4, p=2, w2_init=1.0, f_gap=1.0, n=1)
        for bound in (vanilla, kinetic):
            assert bound.total == bound.discretization_term == math.inf and not bound.precondition_ok
        # Integer h and M make an integer hbar.
        assert check_preconditions(SamplerConfig(h=1000, n=1, R=2, Q=400), PotentialSpec(2, 1, 2),
                                   "vanilla")[0].value == math.inf

    def test_check_fails_and_run_warns(self):
        config = SamplerConfig(h=1.0, n=1, R=2, Q=40, gamma=1e4)
        stability = check_preconditions(config, PotentialSpec(2, 1.0, 2.0), "kinetic")[1]
        assert (stability.value, stability.passed, stability.margin) == (math.inf, False, -math.inf)
        with pytest.warns(PreconditionWarning, match="kinetic_stability fails: value inf"):
            run("prklmc", config, QuadraticPotential(np.diag([1.0, 2.0])))


@st.composite
def _rule_points(draw):
    """A regime, h, R, Q, gamma (below 5 M too, and at it) and 0 < m <= M, on both sides of each inequality."""
    regime = draw(st.sampled_from(["vanilla", "kinetic"]))
    m = draw(st.floats(1e-2, 10.0))
    M = m * draw(st.sampled_from([1.0]) | st.floats(1.0, 1e4))
    gamma = M * draw(st.sampled_from([5.0]) | st.floats(0.5, 20.0)) if regime == "kinetic" else None
    h = draw(st.floats(1e-4, 1.0)) / (gamma or M)
    return regime, h, draw(st.integers(1, 64)), draw(st.integers(1, 8)), gamma, m, M


class TestOneStabilityRule:
    """The theorem bounds and the tuner flag a precondition exactly when the checks report it."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(_rule_points(), st.integers(0, 1000))
    def test_bound_flag_is_the_checks(self, point, n):
        regime, h, R, Q, gamma, m, M = point
        checks = check_preconditions(SamplerConfig(h=h, n=n, R=R, Q=Q, gamma=gamma), PotentialSpec(3, m, M), regime)
        shared = dict(h=h, Q=Q, R=R, m=m, M=M, p=3, w2_init=1.0, n=n)
        bound = theorem1_bound(**shared) if gamma is None else theorem2_bound(**shared, gamma=gamma, f_gap=0.5)
        assert bound.precondition_ok == all(c.passed for c in checks)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.sampled_from(["vanilla", "kinetic"]), st.floats(0.01, 0.99), st.floats(1e-2, 10.0),
           st.floats(1.0, 1e5), st.integers(1, 1000), st.sampled_from([None, 0.0]) | st.floats(0.0, 10.0))
    @example("vanilla", 0.5, 1.0, 1.0, 1, 2.2e-313)  # (m/p) w2^2 underflows to 0
    def test_plan_preconditions_are_the_checks(self, regime, eps, m, kappa, p, w2):
        plan = tune(TuneRequest(epsilon=eps, m=m, M=m * kappa, p=p, regime=regime, w2_init=w2))
        assert plan.preconditions == check_preconditions(plan, PotentialSpec(p, m, m * kappa), regime)


class TestTunedPlansSatisfyPreconditions:
    """Grid property: every tuned plan passes its own stability checks.

    The literal vanilla width rule lands at R=1 for small kappa with large
    eps, where the inequality fails by a hair; tune_vanilla widens R
    minimally and flags it, so the property holds across the grid.
    """

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0, 1e4])
    def test_vanilla_grid(self, eps, kappa):
        plan = tune_vanilla(_req(eps, kappa, "vanilla"))
        assert all(c.passed for c in plan.preconditions)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0, 1e4])
    def test_kinetic_grid(self, eps, kappa):
        plan = tune_kinetic(_req(eps, kappa, "kinetic"))
        assert all(c.passed for c in plan.preconditions)

    def test_repair_is_minimal_and_flagged(self):
        plan = tune_vanilla(_req(0.9, 1.0, "vanilla"))
        assert plan.R == 2  # literal rule gives 1, which fails the inequality
        assert any("widened" in w for w in plan.warnings)
        narrower = vanilla_stability_lhs(0.1, plan.Q, plan.R - 1, 1.0)
        assert narrower > 0.1


class TestKineticWidthAdvantage:
    """Kinetic tuning needs fewer parallel units once eps is genuinely small.

    (The advantage is asymptotic; at moderate eps the 10/eps term still
    dominates, so the property is asserted on the small-eps region where it
    holds by direct evaluation.)
    """

    @pytest.mark.parametrize("eps", [0.005, 0.01, 0.02])
    @pytest.mark.parametrize("kappa", [10.0, 100.0, 1e3, 1e4])
    def test_kinetic_width_smaller(self, eps, kappa):
        rv = tune_vanilla(_req(eps, kappa, "vanilla")).R
        rk = tune_kinetic(_req(eps, kappa, "kinetic")).R
        assert rk <= rv


class TestItersLimited:
    def test_vanilla_example(self):
        n = iters_limited("vanilla", 1.0, 1.0 / math.e, 1)
        assert n == math.ceil(ITERS_VANILLA_EXAMPLE)

    def test_wide_limit_is_mixing_floor(self):
        # R -> infinity: expression tends to kappa log(1/eps)
        kappa, eps = 50.0, 0.1
        floor = kappa * math.log(1 / eps)
        n = iters_limited("vanilla", kappa, eps, 10**12)
        assert floor <= n <= floor + 1

    def test_kinetic_beats_vanilla_at_shared_width(self):
        assert iters_limited("kinetic", 100.0, 0.1, 10) < iters_limited("vanilla", 100.0, 0.1, 10)

    def test_monotone_in_width_and_kappa(self):
        for regime in ("vanilla", "kinetic"):
            values = [iters_limited(regime, 100.0, 0.1, R) for R in (1, 2, 4, 8, 64)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            kappas = [iters_limited(regime, k, 0.1, 4) for k in (1.0, 10.0, 100.0)]
            assert all(a <= b for a, b in zip(kappas, kappas[1:]))

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            iters_limited("vanilla", 10.0, 0.1, 0)
