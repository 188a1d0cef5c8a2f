import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprec import (
    CompositePart,
    DenseOperator,
    ExperimentConfig,
    HuberLoss,
    IdentityPreconditioner,
    LogisticLoss,
    MatrixPreconditioner,
    RegressionData,
    SolverConfig,
    build_from_descriptor,
    huber,
    initial_guess_M,
    logistic,
    make_quadratic,
    make_regression,
    run_adaptive_gm,
    validate_bounds,
)
from polyprec.experiments import build_problem
from polyprec.problems import gradient_step_with_norm
from conftest import random_spd


class TestHuber:
    def test_origin(self):
        assert huber(0.0, 0.1) == (0.0, 0.0)

    def test_quadratic_branch(self):
        value, deriv = huber(0.05, 0.1)
        assert value == pytest.approx(0.0125)
        assert deriv == pytest.approx(0.5)

    def test_linear_branch(self):
        value, deriv = huber(1.0, 0.1)
        assert value == pytest.approx(0.95)
        assert deriv == pytest.approx(1.0)

    @given(st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=50)
    def test_continuous_at_seam(self, mu_h):
        eps = 1e-9 * mu_h
        below = huber(mu_h - eps, mu_h)
        above = huber(mu_h + eps, mu_h)
        assert below[0] == pytest.approx(above[0], abs=1e-8 * mu_h)
        assert below[1] == pytest.approx(above[1], abs=1e-8)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=80)
    def test_derivative_clipped_and_convex(self, t, mu_h):
        value, deriv = huber(t, mu_h)
        assert value >= 0.0
        assert abs(deriv) <= 1.0
        # Derivative of a convex function is nondecreasing.
        _, deriv_right = huber(t + 1e-3, mu_h)
        assert deriv_right >= deriv - 1e-12


class TestLogistic:
    def test_origin(self):
        value, deriv = logistic(0.0)
        assert value == pytest.approx(np.log(2.0))
        assert deriv == pytest.approx(0.5)

    def test_large_negative_stable(self):
        value, deriv = logistic(-700.0)
        assert value == pytest.approx(0.0, abs=1e-300)
        assert deriv == pytest.approx(0.0, abs=1e-300)

    def test_large_positive_stable(self):
        value, deriv = logistic(700.0)
        assert value == pytest.approx(700.0)
        assert deriv == pytest.approx(1.0)

    @given(st.floats(min_value=-800.0, max_value=800.0))
    @settings(max_examples=80)
    def test_finite_and_bounded(self, t):
        value, deriv = logistic(t)
        assert np.isfinite(value) and value >= 0.0
        assert 0.0 <= deriv <= 1.0

    def test_matches_logaddexp_within_ulps(self):
        # Reference: softplus as np.logaddexp(0, t), the derivative from it.
        t = np.concatenate([np.linspace(-800.0, 800.0, 40001), [0.0, -0.0, 700, -700, 745, -745]])
        expected = np.logaddexp(0.0, t)
        value, deriv = logistic(t)

        def ulps(a, b):  # both nonnegative, so the bit patterns order like the values
            return np.abs(a.view(np.int64) - b.view(np.int64)).max()

        assert ulps(value, expected) <= 4
        assert ulps(deriv, np.exp(t - expected)) <= 16

    def test_non_finite_inputs_map_as_logaddexp(self):
        t = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            value, deriv = logistic(t)
            expected = np.logaddexp(0.0, t)
            np.testing.assert_array_equal(deriv, np.exp(t - expected))
        np.testing.assert_array_equal(value, [np.inf, 0.0, np.nan])
        np.testing.assert_array_equal(value, expected)


def _build_with_data(monkeypatch, config):
    """The config's objective and the RegressionData it was made from."""
    import polyprec.datasets as datasets

    captured = []

    def capture(data):
        captured.append(data)
        return make_regression(data)

    monkeypatch.setattr(datasets, "make_regression", capture)
    obj = build_problem(config)
    return obj, captured[0]


class CountedLogistic(LogisticLoss):
    def __init__(self):
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return super().__call__(t)


class TestMakeRegression:
    def test_single_row_huber(self):
        data = RegressionData(
            rows=np.array([[1.0, 0.0]]), targets=np.array([0.0]), loss=HuberLoss(1.0)
        )
        obj = make_regression(data)
        x = np.array([0.5, 0.0])
        assert obj.value(x) == pytest.approx(0.125)
        assert np.allclose(obj.gradient(x), [0.5, 0.0])

    def test_logistic_at_origin(self, rng):
        m, n = 7, 3
        data = RegressionData(
            rows=rng.standard_normal((m, n)), targets=np.zeros(m), loss=LogisticLoss()
        )
        obj = make_regression(data)
        assert obj.value(np.zeros(n)) == pytest.approx(m * np.log(2.0))

    def test_curvature_matches_dense_gram(self, rng):
        rows = rng.standard_normal((11, 4))
        data = RegressionData(rows=rows, targets=np.zeros(11), loss=LogisticLoss())
        obj = make_regression(data)
        v = rng.standard_normal(4)
        assert np.allclose(
            obj.curvature.matvec(v), rows.T @ rows @ v, rtol=1e-10, atol=1e-12
        )

    def test_constants(self):
        data = RegressionData(
            rows=np.ones((2, 2)), targets=np.zeros(2), loss=HuberLoss(0.1)
        )
        obj = make_regression(data)
        assert obj.L == pytest.approx(10.0)
        assert obj.mu == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RegressionData(
                rows=np.empty((0, 3)), targets=np.empty(0), loss=LogisticLoss()
            )

    @pytest.mark.parametrize(
        "synthetic, rows, loss",
        [((40, 4, 1, 10), 50, "logistic"), ((1000, 300, 1, 100), 300, "huber:0.1")],
    )
    def test_cached_oracle_matches_fresh_objective(self, monkeypatch, synthetic, rows, loss):
        obj, data = _build_with_data(
            monkeypatch, ExperimentConfig(synthetic=synthetic, rows=rows, loss=loss)
        )
        rng = np.random.default_rng(21)
        points = [rng.standard_normal(obj.n) for _ in range(5)]
        order = [0, 0, 3, 1, 3, 4, 2, 2, 0, 4, 1, 1]
        for i, kind in zip(order, rng.integers(2, size=len(order))):
            fresh = make_regression(data)
            if kind == 0:
                assert obj.value(points[i]) == fresh.value(points[i])
            else:
                assert np.array_equal(obj.gradient(points[i]), fresh.gradient(points[i]))
        # Mutating the caller's array in place must not leave a stale entry.
        x = points[0].copy()
        obj.value(x)
        x += 0.5
        assert obj.value(x) == make_regression(data).value(x)
        obj.gradient(x)
        x -= 1.0
        assert np.array_equal(obj.gradient(x), make_regression(data).gradient(x))

    def test_one_loss_evaluation_per_point(self, monkeypatch):
        config = ExperimentConfig(synthetic=(40, 4, 1, 10), rows=50, loss="logistic")
        _, data = _build_with_data(monkeypatch, config)
        loss = CountedLogistic()
        obj = make_regression(RegressionData(data.rows, data.targets, loss))
        prec = build_from_descriptor("sympoly:2", obj.curvature)
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        loss.calls = 0
        run = run_adaptive_gm(obj, prec, SolverConfig(max_iters=20, initial_guess=guess.value))
        assert run.iterations == 20
        # The start point once, then one evaluation per line-search trial: the
        # accepted trial's value and gradient serve the telemetry and next step.
        assert loss.calls <= 1 + run.total_ls_trials()


class TestMakeQuadratic:
    def test_value_and_gradient(self):
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        x = np.ones(2)
        assert obj.value(x) == pytest.approx(1.5)
        assert np.allclose(obj.gradient(x), [2.0, 1.0])

    def test_readouts_touch_no_counter(self, rng):
        B = random_spd(rng, 4)
        obj = make_quadratic(B, rng.standard_normal(4))
        x = rng.standard_normal(4)
        assert obj.full_value(x) == obj.raw_value(x) == pytest.approx(obj.value(x))
        # Only the counted oracle call spends its product.
        assert (B.matvecs, obj.f_evals) == (1, 1)

    def test_stationary_point(self, rng):
        B = random_spd(rng, 5)
        b = rng.standard_normal(5)
        obj = make_quadratic(B, b)
        assert np.allclose(obj.gradient(obj.x_star), 0.0, atol=1e-9)

    def test_constants_tight(self, rng):
        B = random_spd(rng, 4)
        obj = make_quadratic(B, rng.standard_normal(4))
        assert obj.L == 1.0 and obj.mu == 1.0
        report = validate_bounds(obj, trials=5, seed=0)
        assert report.passed


class TestGradientStep:
    def test_plain_step(self, rng):
        op = random_spd(rng, 2)
        y = gradient_step_with_norm(
            2.0,
            IdentityPreconditioner(),
            op,
            np.array([1.0, 1.0]),
            np.array([2.0, -2.0]),
            CompositePart.zero(),
        )[0]
        assert np.allclose(y, [0.0, 2.0])

    def test_scaled_direction(self):
        op = DenseOperator(np.diag([2.0, 1.0]))
        prec = MatrixPreconditioner(np.diag([2.0, 1.0]), descriptor="coeffs")
        y = gradient_step_with_norm(
            1.0, prec, op, np.zeros(2), np.array([1.0, 1.0]), CompositePart.zero()
        )[0]
        assert np.allclose(y, [-2.0, -1.0])

    def test_zero_gradient_fixed_point(self, rng):
        op = random_spd(rng, 3)
        x = rng.standard_normal(3)
        y = gradient_step_with_norm(
            1.0, IdentityPreconditioner(), op, x, np.zeros(3), CompositePart.zero()
        )[0]
        assert np.allclose(y, x)

    def test_custom_psi_requires_oracle(self, rng):
        op = random_spd(rng, 3)
        psi = CompositePart(kind="custom", value=lambda y: 0.0, prox=None)
        with pytest.raises(ValueError, match="oracle"):
            gradient_step_with_norm(1.0, IdentityPreconditioner(), op, np.zeros(3), np.ones(3), psi)

    def test_custom_psi_oracle_used(self, rng):
        # Quadratic regularizer under the identity metric has a closed form.
        sigma = 0.5

        def prox(M, prec, op, x, g):
            y = (M * x - g) / (M + sigma)
            return y, float((y - x) @ (y - x))

        psi = CompositePart(kind="custom", value=lambda y: 0.5 * sigma * float(y @ y), prox=prox)
        op = random_spd(rng, 3)
        x = rng.standard_normal(3)
        g = rng.standard_normal(3)
        y = gradient_step_with_norm(2.0, IdentityPreconditioner(), op, x, g, psi)[0]
        assert np.allclose(y, (2.0 * x - g) / 2.5)

    def test_step_optimality_identity(self, rng):
        # P g = M (x - y) must hold without inverting the preconditioner.
        from polyprec import build_sympoly

        op = random_spd(rng, 5)
        prec = build_sympoly(op, 2, "exact")
        x = rng.standard_normal(5)
        g = rng.standard_normal(5)
        M = 3.0
        y = gradient_step_with_norm(M, prec, op, x, g, CompositePart.zero())[0]
        lhs = prec.apply(op, g)
        rhs = M * (x - y)
        assert np.allclose(lhs, rhs, rtol=1e-10)


class TestValidateBounds:
    def test_quadratic_tight(self, rng):
        B = random_spd(rng, 6)
        obj = make_quadratic(B, rng.standard_normal(6))
        report = validate_bounds(obj, trials=10, seed=4)
        assert report.passed
        assert report.max_grad_rel_err <= 1e-5

    def test_huber_regression(self, rng):
        rows = rng.standard_normal((20, 6))
        targets = rng.standard_normal(20)
        obj = make_regression(RegressionData(rows, targets, HuberLoss(0.1)))
        report = validate_bounds(obj, trials=10, seed=5)
        assert report.passed

    def test_logistic_regression(self, rng):
        rows = rng.standard_normal((20, 6))
        obj = make_regression(RegressionData(rows, np.zeros(20), LogisticLoss()))
        report = validate_bounds(obj, trials=10, seed=6)
        assert report.passed


class TestConvexityProbe:
    def test_midpoint_inequality_all_objectives(self, rng):
        B = random_spd(rng, 5)
        rows = rng.standard_normal((12, 5))
        objectives = [
            make_quadratic(B, rng.standard_normal(5)),
            make_regression(RegressionData(rows, rng.standard_normal(12), HuberLoss(0.1))),
            make_regression(RegressionData(rows, np.zeros(12), LogisticLoss())),
        ]
        for obj in objectives:
            for _ in range(10):
                x = rng.standard_normal(5)
                y = rng.standard_normal(5)
                mid = obj.value(0.5 * x + 0.5 * y)
                assert mid <= 0.5 * obj.value(x) + 0.5 * obj.value(y) + 1e-10
