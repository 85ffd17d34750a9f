"""Tests of the benchmark itself: each check passes on parlmc's output and
fails on a wrong answer, and the tracer neither perturbs nor miscounts a run.

    python3 -m pytest perfbench
"""

import bootstrap

bootstrap.configure()

import math  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402
import parlmc.noise  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import window_floor  # noqa: E402
from tracer import ROOT, ROUND, Tracer, layer_totals  # noqa: E402


def scale_noise(monkeypatch, variance_factor):
    """Make every parlmc noise draw return its Gaussians with variance times `variance_factor`."""
    factor = math.sqrt(variance_factor)
    for name in ("draw_vanilla_noise", "draw_kinetic_noise"):
        draw = getattr(parlmc.noise, name)

        def scaled(*args, _draw=draw, **kwargs):
            out = _draw(*args, **kwargs)
            out.xi_mid = factor * out.xi_mid
            out.xi_full = factor * out.xi_full
            if hasattr(out, "xi_bar"):
                out.xi_bar = factor * out.xi_bar
            return out

        monkeypatch.setattr(parlmc.noise, name, scaled)


def run_checks(name, seed, blocks, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, seed, tmp_path)
    session, _ = workloads.setup(w, inputs)
    out = workloads.run_blocks(session, seed, session.initial, 0, count=blocks)
    return out.verdicts + workloads.final_checks(session, inputs, out.state, out.snapshots, out.steps, seed)


def passed(verdicts):
    return all(ok for ok, _ in verdicts)


@pytest.mark.parametrize("name, blocks", [("single-chain", 400), ("vanilla-tuned", 40),
                                          ("kinetic-tuned", 10), ("logistic-parallel", 20)])
def test_checks_pass_on_parlmc_and_fail_on_halved_noise_variance(name, blocks, tmp_path, monkeypatch):
    assert passed(run_checks(name, 11, blocks, tmp_path))
    scale_noise(monkeypatch, 0.5)
    assert not passed(run_checks(name, 11, blocks, tmp_path))


def test_cost_model_and_finiteness_fail_on_wrong_counts():
    assert checks.cost_model({"gradient_evals": 24, "sequential_rounds": 6}, n=2, R=4, Q=3)[0]
    assert not checks.cost_model({"gradient_evals": 23, "sequential_rounds": 6}, n=2, R=4, Q=3)[0]
    assert not checks.cost_model({"gradient_evals": 24, "sequential_rounds": 8}, n=2, R=4, Q=3)[0]
    assert not checks.all_finite("x", np.array([1.0, np.nan]))[0]
    assert checks.all_finite("x", np.ones(3), None)[0]


def test_window_floor_is_the_median_of_each_group_minimum():
    assert window_floor([5, 1, 5, 5, 2, 5, 9, 3, 9], windows=3) == 2
    assert window_floor([4.0, 1.0], windows=3) == 2.5  # fewer blocks than windows: the plain median


def test_w2_check_sees_a_halved_covariance_under_theorem1():
    rng = np.random.default_rng(3)
    cov = np.diag(1.0 / workloads.DESK_DIAG)
    allowance = checks.theorem1_allowance(h=0.01, Q=5, R=37, m=1.0, M=10.0, p=10)
    exact = rng.standard_normal((1000, 10)) @ np.sqrt(cov)
    assert checks.w2_within(exact, cov, allowance, rng)[0]
    assert not checks.w2_within(exact * math.sqrt(0.5), cov, allowance, rng)[0]


def test_gaussian_w2_matches_closed_form_for_diagonal_covariances():
    cov = np.diag([1.0, 4.0])
    samples = np.array([[1.0, 2.0], [-1.0, -2.0], [1.0, -2.0], [-1.0, 2.0]])  # mean 0, covariance diag(4/3, 16/3)
    expected = math.sqrt((math.sqrt(4 / 3) - 1) ** 2 + (math.sqrt(16 / 3) - 2) ** 2)
    assert checks.gaussian_w2(samples, cov) == pytest.approx(expected, rel=1e-12)


def test_batch_means_rejects_a_shifted_series():
    rng = np.random.default_rng(5)
    series = 10.0 + rng.standard_normal(4000)
    assert checks.batch_means(series, 10.0)[0]
    assert not checks.batch_means(series - 1.0, 10.0)[0]


@pytest.mark.parametrize("name", ["single-chain", "kinetic-tuned", "logistic-parallel"])
def test_traced_blocks_match_untraced_bitwise_and_split_sums_to_wall(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, 2, tmp_path)
    session, _ = workloads.setup(w, inputs)
    plain = workloads.run_blocks(session, 2, session.initial, 0, count=3)
    with Tracer() as tracer:
        traced = workloads.run_blocks(session, 2, session.initial, 0, count=3,
                                      wrap=lambda fn: tracer.wrap(fn, "metrics.record"))
    assert np.array_equal(plain.state.theta, traced.state.theta)
    if plain.state.v is not None:
        assert np.array_equal(plain.state.v, traced.state.v)
    assert parlmc.samplers.run.__name__ == "run"  # hooks removed on exit

    totals = layer_totals(tracer.spans, threading.main_thread().ident)
    assert totals[ROUND]["count"] == 3 * w.block_steps * session.config.Q
    assert all(t["self"] >= -1e-9 for t in totals.values())
    main = sum(t["self"] for layer, t in totals.items() if layer not in (ROUND, "potentials.gradient"))
    split = main + totals[ROUND]["busy"]
    assert split == pytest.approx(totals[ROOT]["busy"], rel=1e-9)
    assert split <= sum(traced.wall) <= 1.05 * split


def test_layer_totals_subtract_the_union_of_overlapping_gradients():
    main, pool_a, pool_b = 1, 2, 3
    spans = [
        ("samplers.run", main, 0.0, 10.0),
        (ROUND, main, 1.0, 5.0),
        ("potentials.gradient", pool_a, 1.5, 3.5),
        ("potentials.gradient", pool_b, 2.0, 4.0),
    ]
    totals = layer_totals(spans, main)
    assert totals[ROUND]["self"] == pytest.approx(4.0 - 2.5)
    assert totals["potentials.gradient"]["busy"] == pytest.approx(4.0)
    assert totals["samplers.run"]["self"] == pytest.approx(6.0)
