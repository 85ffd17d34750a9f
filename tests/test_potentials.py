"""Potential oracles: gradients, curvature constants, accounting, CSV ingestion."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from parlmc import (
    ConfigurationError,
    DomainError,
    LogisticRidgePotential,
    QuadraticPotential,
    SyntheticDelayPotential,
    check_gradient_fd,
    execute_round,
)
from parlmc.noise import _take
from parlmc.potentials import _sigmoid_neg


class TestQuadraticGradient:
    def test_identity(self):
        pot = QuadraticPotential(np.eye(2))
        assert np.allclose(pot.gradient([1.0, 2.0]), [1.0, 2.0])

    def test_shifted_diagonal(self):
        pot = QuadraticPotential.from_diagonal([1.0, 10.0], mean=[1.0, 0.0])
        assert np.allclose(pot.gradient([2.0, 1.0]), [1.0, 10.0])

    def test_spec_constants_are_extreme_eigenvalues(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        pot = QuadraticPotential(a)
        eigs = np.linalg.eigvalsh(a)
        assert pot.spec.strong_convexity == pytest.approx(eigs[0])
        assert pot.spec.smoothness == pytest.approx(eigs[-1])
        assert pot.spec.condition_number == pytest.approx(eigs[-1] / eigs[0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigurationError):
            QuadraticPotential(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ConfigurationError):
            QuadraticPotential(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_dimension_mismatch(self, quad_2d):
        with pytest.raises(ConfigurationError):
            quad_2d.gradient([1.0, 2.0, 3.0])

    def test_nonfinite_input(self, quad_2d):
        with pytest.raises(DomainError):
            quad_2d.gradient([np.nan, 0.0])

    def test_grown_scratch_drops_its_views(self):
        # Each growth of the scratch buffer drops the views cut from the smaller one, so none keeps it alive.
        pot = QuadraticPotential.from_diagonal(np.linspace(1.0, 10.0, 10))
        rng = np.random.default_rng(13)
        thetas = [rng.standard_normal((chains, 10)) for chains in (1000, 10, 2000, 10, 4000, 10, 8000)]
        tracemalloc.start()
        try:
            for theta in thetas:
                pot._gradient(theta)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.25 * 8000 * 10 * 8  # about one (8000, 10) buffer
        mask = _take({}, "mask", (7, 3), bool)
        assert mask.dtype == bool and mask.shape == (7, 3) and mask.ctypes.data % 64 == 0


class TestLogisticGradient:
    def test_single_datum_at_origin(self):
        pot = LogisticRidgePotential(np.array([[1.0, 0.0]]), np.array([1.0]), ridge=1.0)
        assert np.allclose(pot.gradient([0.0, 0.0]), [-0.5, 0.0])

    def test_constants(self, logistic_small):
        smax = np.linalg.svd(logistic_small.X, compute_uv=False)[0]
        assert logistic_small.spec.strong_convexity == pytest.approx(0.7)
        assert logistic_small.spec.smoothness == pytest.approx(0.7 + smax**2 / 4)

    def test_labels_validated(self):
        with pytest.raises(ConfigurationError):
            LogisticRidgePotential(np.ones((3, 2)), np.array([1.0, 0.0, -1.0]), ridge=1.0)

    def test_minimizer_is_stationary(self, logistic_small):
        spec = logistic_small.spec
        g = logistic_small.gradient(spec.minimizer)
        bound = 1e-8 * spec.smoothness * (1 + np.linalg.norm(spec.minimizer))
        assert np.linalg.norm(g) <= bound


class TestCurvatureSandwich:
    """Testable forms of m I <= Hessian <= M I over random pairs."""

    @pytest.mark.parametrize("fixture", ["quad_2d", "logistic_small"])
    def test_monotonicity_and_lipschitz(self, fixture, request):
        pot = request.getfixturevalue(fixture)
        m, M = pot.spec.strong_convexity, pot.spec.smoothness
        p = pot.spec.dimension
        rng = np.random.default_rng(99)
        a = rng.standard_normal((1200, p)) * 2
        b = rng.standard_normal((1200, p)) * 2
        ga = pot.gradient(a)
        gb = pot.gradient(b)
        diff = a - b
        gdiff = ga - gb
        inner = np.sum(gdiff * diff, axis=-1)
        sq = np.sum(diff * diff, axis=-1)
        assert np.all(inner >= m * sq * (1 - 1e-10))
        assert np.all(np.sum(gdiff**2, axis=-1) <= (M**2) * sq * (1 + 1e-10))


class TestBatchAndCounter:
    def test_batch_matches_elementwise(self, quad_2d):
        rng = np.random.default_rng(5)
        points = [rng.standard_normal(2) for _ in range(6)]
        batched = execute_round(np.stack(points), quad_2d, width=3)
        for point, g in zip(points, batched):
            assert np.array_equal(g, quad_2d.gradient(point))

    def test_round_accounting(self, quad_2d):
        quad_2d.counter.reset()
        points = np.zeros((4, 2))
        execute_round(points, quad_2d, width=4)
        assert quad_2d.counter.sequential_rounds == 1
        execute_round(points, quad_2d, width=2)
        assert quad_2d.counter.sequential_rounds == 3  # += ceil(4/2)
        assert quad_2d.counter.total_gradient_evals == 8

    def test_gradient_vanishes_at_minimizer(self, quad_2d):
        [g] = execute_round(np.stack([quad_2d.spec.minimizer]), quad_2d, width=1)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_concurrent_counting_exact(self, quad_2d):
        quad_2d.counter.reset()
        execute_round(np.zeros((64, 2)), quad_2d, width=8)
        assert quad_2d.counter.total_gradient_evals == 64
        assert quad_2d.counter.sequential_rounds == 8


class TestFiniteDifferences:
    def test_quadratic_near_exact(self, quad_2d):
        rng = np.random.default_rng(1)
        for _ in range(5):
            err = check_gradient_fd(quad_2d, rng.standard_normal(2), step=1e-5)
            assert err < 1e-8

    def test_logistic(self, logistic_small):
        rng = np.random.default_rng(2)
        for _ in range(5):
            err = check_gradient_fd(logistic_small, rng.standard_normal(3), step=1e-5)
            assert err < 1e-6

    def test_zero_step_rejected(self, quad_2d):
        with pytest.raises(DomainError):
            check_gradient_fd(quad_2d, np.zeros(2), step=0.0)


class TestCsvIngestion:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, "y,x1,x2\n1,0.5,-1.0\n-1,0.1,0.2\n1,-0.3,0.9\n")
        pot = LogisticRidgePotential.from_csv(path, ridge=0.5)
        assert pot.spec.dimension == 2
        assert pot.X.shape == (3, 2)
        assert np.array_equal(pot.y, [1.0, -1.0, 1.0])

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "label,x1\n1,0.5\n")
        with pytest.raises(ConfigurationError, match="header"):
            LogisticRidgePotential.from_csv(path, ridge=0.5)

    def test_bad_label_reports_line(self, tmp_path):
        path = self._write(tmp_path, "y,x1\n1,0.5\n2,0.3\n")
        with pytest.raises(ConfigurationError, match=":3:"):
            LogisticRidgePotential.from_csv(path, ridge=0.5)

    def test_short_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, "y,x1,x2\n1,0.5,0.2\n-1,0.1\n")
        with pytest.raises(ConfigurationError, match=":3:"):
            LogisticRidgePotential.from_csv(path, ridge=0.5)

    def test_non_numeric_reports_line(self, tmp_path):
        path = self._write(tmp_path, "y,x1\n1,abc\n")
        with pytest.raises(ConfigurationError, match=":2:"):
            LogisticRidgePotential.from_csv(path, ridge=0.5)


def test_delay_potential_sleeps():
    pot = SyntheticDelayPotential(2, 0.01)
    import time

    t0 = time.perf_counter()
    pot.gradient(np.ones(2))
    assert time.perf_counter() - t0 >= 0.01


def _reference_sigmoid_neg(u):
    """The logistic weight as first written, on fresh arrays."""
    e = np.abs(u)
    np.exp(np.negative(e, out=e), out=e)
    w = np.where(u >= 0, e, 1.0)
    e += 1.0
    w /= e
    return w


def _reference_gradient(pot, theta):
    u = theta @ pot.X.T
    u *= pot.y
    w = _reference_sigmoid_neg(u)
    w *= -pot.y
    return w @ pot.X + pot.ridge * theta


@pytest.fixture
def logistic_wide():
    rng = np.random.default_rng(2402)
    X = rng.standard_normal((300, 7))
    y = np.where(rng.random(300) < 0.5, -1.0, 1.0)
    return LogisticRidgePotential(X, y, ridge=0.4)


class TestLogisticScratch:
    """The logistic oracle's per-thread scratch keeps the bits of the fresh-array formula."""

    def test_bits_across_shape_changes(self, logistic_wide):
        rng = np.random.default_rng(8)
        for chains in (7, None, 50, 1, 7, None, 50):
            theta = 2.0 * rng.standard_normal((7,) if chains is None else (chains, 7))
            got = logistic_wide._gradient(theta)
            assert np.array_equal(got, _reference_gradient(logistic_wide, theta))
            assert got.shape == theta.shape

    def test_returned_gradient_is_not_scratch(self, logistic_wide):
        theta = np.random.default_rng(9).standard_normal((7, 7))
        first = logistic_wide.gradient(theta)
        kept = first.copy()
        logistic_wide.gradient(-theta)
        assert np.array_equal(first, kept)

    def test_threads_on_different_chain_counts(self, logistic_wide):
        rng = np.random.default_rng(10)
        thetas = {chains: rng.standard_normal((chains, 7)) for chains in (7, 50)}
        serial = {chains: logistic_wide._gradient(theta) for chains, theta in thetas.items()}
        errors = []

        def caller(chains):
            for _ in range(200):
                if not np.array_equal(logistic_wide._gradient(thetas[chains]), serial[chains]):
                    errors.append(chains)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(chains,)) for chains in thetas]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_alternating_chain_counts_allocate_no_scratch(self):
        # One thread serving two chain counts keeps one buffer per name, sized to the larger count.
        rng = np.random.default_rng(12)
        X, y = rng.standard_normal((2000, 10)), np.where(rng.random(2000) < 0.5, -1.0, 1.0)
        pot = LogisticRidgePotential(X, y, ridge=1.0)
        thetas = [rng.standard_normal((chains, 10)) for chains in (50, 8)]
        for theta in thetas:
            pot._gradient(theta)
        tracemalloc.start()
        try:
            for _ in range(20):
                for theta in thetas:
                    pot._gradient(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2000 * 8  # below one (8, N) float buffer

    def test_value_and_minimizer_unchanged(self, logistic_wide):
        pot = logistic_wide
        theta = np.random.default_rng(11).standard_normal((5, 7))
        u = theta @ pot.X.T * pot.y
        value = np.sum(np.logaddexp(0.0, -u), axis=-1) + 0.5 * pot.ridge * np.sum(theta * theta, axis=-1)
        assert np.array_equal(pot.value(theta), value)

        minimizer = np.zeros(7)  # the construction's Newton solve, on the fresh-array formula
        for _ in range(100):
            w = _reference_sigmoid_neg(minimizer @ pot.X.T * pot.y)
            g = _reference_gradient(pot, minimizer)
            if np.linalg.norm(g, np.inf) <= 1e-12 * pot.spec.smoothness * (1 + np.linalg.norm(minimizer)):
                break
            hess = pot.X.T @ (pot.X * (w * (1 - w))[:, None]) + pot.ridge * np.eye(7)
            minimizer = minimizer - np.linalg.solve(hess, g)
        assert np.array_equal(pot.spec.minimizer, minimizer)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestSigmoidNegEdges:
    """The branch-free weight keeps the bits of the fresh-array formula at the edges of exp."""

    EDGES = [0.0, 1e-300, 709.8, 745.5, np.inf]

    @pytest.mark.parametrize("scratch", [False, True])
    def test_bits_at_edges_and_scales(self, scratch):
        rng = np.random.default_rng(12)
        edges = np.array(self.EDGES + [-v for v in self.EDGES])
        scales = [s * rng.standard_normal(500) for s in (1.0, 10.0, 100.0, 800.0)]
        u = np.concatenate([edges, *scales, [np.nan]])
        want = _reference_sigmoid_neg(u)
        bufs = (np.full(u.shape, np.nan), np.ones(u.shape, dtype=bool)) if scratch else ()
        got = _sigmoid_neg(u.copy(), *bufs)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(_bits(got[:-1]), _bits(want[:-1]))
        # e^{-709.8} is subnormal and 1 + it rounds to 1; e^{-745.5} underflows to 0.
        expected = [0.5, 0.5, np.exp(-709.8), 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert np.array_equal(_bits(got[: edges.size]), _bits(expected))


def _reference_minimizer(pot):
    """The construction's Newton solve, on the fresh-array formula."""
    p = pot.spec.dimension
    theta = np.zeros(p)
    for _ in range(100):
        w = _reference_sigmoid_neg(theta @ pot.X.T * pot.y)
        g = _reference_gradient(pot, theta)
        if np.linalg.norm(g, np.inf) <= 1e-12 * pot.spec.smoothness * (1 + np.linalg.norm(theta)):
            break
        hess = pot.X.T @ (pot.X * (w * (1 - w))[:, None]) + pot.ridge * np.eye(p)
        theta = theta - np.linalg.solve(hess, g)
    return theta


@pytest.fixture(scope="module")
def logistic_tall():
    """A 2000 x 10 design, the shape of the logistic benchmark, with informative labels."""
    rng = np.random.default_rng(2000)
    X = 0.05 * rng.standard_normal((2000, 10))
    theta_true = 3.0 * rng.standard_normal(10)
    y = np.where(rng.random(2000) < 0.5 * (1.0 + np.tanh(0.5 * X @ theta_true)), 1.0, -1.0)
    return LogisticRidgePotential(X, y, ridge=1.0)


class TestLogisticTallDesign:
    """Oracle bits at N = 2000, where the BLAS products block over k = 2000."""

    @pytest.mark.parametrize("chains", [1, 50])
    def test_gradient_bits(self, logistic_tall, chains):
        pot = logistic_tall
        theta = pot.spec.minimizer + np.random.default_rng(chains).standard_normal((chains, 10))
        assert np.array_equal(_bits(pot._gradient(theta)), _bits(_reference_gradient(pot, theta)))

    def test_slot_major_round(self, logistic_tall):
        pot = logistic_tall
        points = pot.spec.minimizer + np.random.default_rng(13).standard_normal((4, 50, 10))
        got = execute_round(points, pot)
        for r in range(4):
            assert np.array_equal(_bits(got[r]), _bits(_reference_gradient(pot, points[r])))

    def test_value_and_minimizer(self, logistic_tall):
        pot = logistic_tall
        theta = np.random.default_rng(14).standard_normal((5, 10))
        u = theta @ pot.X.T * pot.y
        value = np.sum(np.logaddexp(0.0, -u), axis=-1) + 0.5 * pot.ridge * np.sum(theta * theta, axis=-1)
        assert np.array_equal(_bits(pot.value(theta)), _bits(value))
        assert np.array_equal(_bits(pot.spec.minimizer), _bits(_reference_minimizer(pot)))
