import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprec import (
    DenseOperator,
    IdentityPreconditioner,
    SolverConfig,
    SyntheticSpectrumSpec,
    build_from_descriptor,
    build_sympoly,
    compute_alpha_beta,
    initial_guess_M,
    make_quadratic,
    make_regression,
    quadratic_growth_predicate,
    run_adaptive_fgm,
    run_adaptive_gm,
    run_fgm,
    run_gm,
    run_krylov_gm,
    solve_coefficient_equation,
    synth_regression,
)
from polyprec import CompositeObjective, HuberLoss, LogisticLoss, RegressionData
from conftest import random_spd


def gapped_quadratic(rng, n=10, cond=1e3):
    spectrum = np.logspace(0, np.log10(cond), n)[::-1]
    B = random_spd(rng, n, spectrum=spectrum)
    return make_quadratic(B, rng.standard_normal(n))


def logistic_bench(rng, n=30, m=120):
    lift, r = np.linalg.qr(rng.standard_normal((m, n)))
    lift = lift * np.sign(np.diag(r))
    spectrum = np.array([80.0, 10.0] + [1.0] * (n - 2))
    q, r2 = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r2))
    design = lift @ np.diag(np.sqrt(spectrum)) @ q.T
    planted = rng.standard_normal(n)
    labels = np.where(design @ planted > 0, 1.0, -1.0)
    labels[rng.random(m) < 0.2] *= -1.0
    folded = -labels[:, None] * design
    return make_regression(RegressionData(folded, np.zeros(m), LogisticLoss()))


class TestCoefficientEquation:
    def test_unit(self):
        assert solve_coefficient_equation(1.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_golden_ratio(self):
        assert solve_coefficient_equation(1.0, 0.0, 1.0) == pytest.approx(
            (1.0 + np.sqrt(5.0)) / 2.0
        )

    def test_strongly_convex_case(self):
        assert solve_coefficient_equation(4.0, 1.0, 0.0) == pytest.approx(1.0 / 3.0)

    def test_rejects_m_not_above_rho(self):
        with pytest.raises(ValueError):
            solve_coefficient_equation(1.0, 1.0, 0.0)

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=100)
    def test_root_satisfies_equation(self, M, rho_frac, A):
        rho = rho_frac * M
        a = solve_coefficient_equation(M, rho, A)
        assert a > 0
        lhs = M * a * a / (A + a)
        rhs = 1.0 + rho * (A + a)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestRunGM:
    def test_descent_and_contraction(self, rng):
        B = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(3))
        config = SolverConfig(
            max_iters=60, step_constant=3.0, x0=np.ones(3), keep_iterates=True
        )
        run = run_gm(obj, IdentityPreconditioner(), config)
        values = run.f_values()
        assert np.all(np.diff(values) <= 1e-14)
        dists = [np.linalg.norm(x) for x in run.iterates_x]  # x* = 0
        assert all(b <= a + 1e-14 for a, b in zip(dists, dists[1:]))

    def test_stationary_start(self, rng):
        B = random_spd(rng, 4)
        obj = make_quadratic(B, rng.standard_normal(4))
        config = SolverConfig(max_iters=5, step_constant=2.0, x0=obj.x_star.copy())
        run = run_gm(obj, IdentityPreconditioner(), config)
        assert np.allclose(run.x, obj.x_star, atol=1e-12)

    def test_gap_target_stops(self, rng):
        obj = gapped_quadratic(rng, n=6, cond=10)
        config = SolverConfig(
            max_iters=10_000,
            step_constant=compute_alpha_beta(IdentityPreconditioner(), obj.curvature).beta,
            gap_target=1e-6,
            f_star=obj.f_star,
            x0=np.ones(6),
        )
        run = run_gm(obj, IdentityPreconditioner(), config)
        assert run.termination == "gap_target"
        assert run.records[-1].f_value - obj.f_star <= 1e-6

    def test_requires_step_constant(self, rng):
        obj = gapped_quadratic(rng, n=4, cond=10)
        with pytest.raises(ValueError, match="step_constant"):
            run_gm(obj, IdentityPreconditioner(), SolverConfig())

    def test_record_budget(self, rng):
        obj = gapped_quadratic(rng, n=4, cond=10)
        config = SolverConfig(max_iters=17, step_constant=50.0)
        run = run_gm(obj, IdentityPreconditioner(), config)
        assert len(run.records) <= config.max_iters + 1


class TestRunFGM:
    def test_weight_growth_convex(self, rng):
        obj = gapped_quadratic(rng)
        M = compute_alpha_beta(IdentityPreconditioner(), obj.curvature).beta
        config = SolverConfig(max_iters=150, step_constant=M, x0=np.ones(10))
        run = run_fgm(obj, IdentityPreconditioner(), config)
        for record in run.records[1:]:
            assert record.A_k >= record.k**2 / (4.0 * M) * (1.0 - 1e-12)

    def test_weight_growth_strongly_convex(self, rng):
        obj = gapped_quadratic(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        M = bounds.beta
        rho = bounds.alpha  # mu = 1
        config = SolverConfig(max_iters=150, step_constant=M, rho=rho, x0=np.ones(10))
        run = run_fgm(obj, IdentityPreconditioner(), config)
        q = np.sqrt(rho / M)
        for record in run.records[1:]:
            floor = 1.0 / (M * (1.0 - q) ** (record.k - 1))
            assert record.A_k >= floor * (1.0 - 1e-12)

    def test_coefficient_identity_every_iteration(self, rng):
        obj = gapped_quadratic(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        config = SolverConfig(
            max_iters=100, step_constant=bounds.beta, rho=bounds.alpha, x0=np.ones(10)
        )
        run = run_fgm(obj, IdentityPreconditioner(), config)
        M = bounds.beta
        rho = bounds.alpha
        prev_A = 0.0
        for record in run.records[1:]:
            a = record.A_k - prev_A
            lhs = M * a * a / record.A_k
            rhs = 1.0 + rho * record.A_k
            assert abs(lhs - rhs) <= 1e-10 * rhs
            prev_A = record.A_k

    def test_potential_nonincreasing(self, rng):
        # Lyapunov combination of gap and prox-center distance on a quadratic.
        obj = gapped_quadratic(rng, n=8, cond=100)
        prec = build_sympoly(obj.curvature, 1, "exact")
        bounds = compute_alpha_beta(prec, obj.curvature)
        M = bounds.beta
        rho = bounds.alpha
        config = SolverConfig(
            max_iters=80, step_constant=M, rho=rho, x0=np.ones(8), keep_iterates=True
        )
        run = run_fgm(obj, prec, config)
        dense_prec = np.zeros((8, 8))
        power = np.eye(8)
        for c in prec.coefficients.coeffs:
            dense_prec += c * power
            power = power @ obj.curvature.to_dense()
        x_star = obj.x_star
        potentials = []
        for record, x, v in zip(run.records, run.iterates_x, run.iterates_v):
            diff = x_star - v
            dist_sq = float(diff @ np.linalg.solve(dense_prec, diff))
            gap = record.f_value - obj.f_star
            potentials.append(record.A_k * gap + 0.5 * (1.0 + rho * record.A_k) * dist_sq)
        scale = max(abs(p) for p in potentials)
        assert all(b <= a + 1e-8 * scale for a, b in zip(potentials, potentials[1:]))

    def test_rho_zero_collapses_interpolation(self, rng):
        from polyprec import FGMState, fgm_step

        obj = gapped_quadratic(rng, n=5, cond=10)
        x0 = rng.standard_normal(5)
        v0 = rng.standard_normal(5)
        state = FGMState(x=x0, v=v0, A=2.0)
        new_state, y, _, _ = fgm_step(obj, IdentityPreconditioner(), 10.0, 0.0, state)
        a = new_state.A - state.A
        theta = a / new_state.A
        assert np.allclose(y, (1 - theta) * x0 + theta * v0, rtol=1e-12)

    def test_first_step_starts_at_x0(self, rng):
        from polyprec import FGMState, fgm_step

        obj = gapped_quadratic(rng, n=5, cond=10)
        x0 = rng.standard_normal(5)
        state = FGMState(x=x0, v=x0.copy(), A=0.0)
        _, y, _, _ = fgm_step(obj, IdentityPreconditioner(), 10.0, 0.0, state)
        assert np.allclose(y, x0, rtol=1e-14)

    def test_run_to_convergence(self, rng):
        # Strongly convex rate supports reaching deep accuracy within the cap.
        obj = gapped_quadratic(rng, n=10, cond=1e3)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        config = SolverConfig(
            max_iters=2000,
            step_constant=bounds.beta,
            rho=bounds.alpha,
            gap_target=1e-9,
            f_star=obj.f_star,
            x0=np.ones(10),
        )
        run = run_fgm(obj, IdentityPreconditioner(), config)
        assert run.termination == "gap_target"


class TestPredicate:
    def test_holds_for_conservative_constant(self, rng):
        obj = gapped_quadratic(rng, n=5, cond=10)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        x = rng.standard_normal(5)
        g = obj.gradient(x)
        M = bounds.beta * obj.L
        y = x - g / M
        assert quadratic_growth_predicate(M, IdentityPreconditioner(), x, y, obj, g=g)

    def test_trivial_equal_points(self, rng):
        obj = gapped_quadratic(rng, n=4, cond=10)
        x = rng.standard_normal(4)
        assert quadratic_growth_predicate(
            0.5, IdentityPreconditioner(), x, x.copy(), obj, step_norm_sq=0.0
        )

    def test_one_dimensional_counterexample(self):
        B = DenseOperator(np.array([[1.0]]))
        obj = make_quadratic(B, np.zeros(1))
        x = np.array([1.0])
        y = np.array([0.0])
        assert not quadratic_growth_predicate(
            0.5, IdentityPreconditioner(), x, y, obj, step_norm_sq=1.0
        )


class TestAdaptiveGM:
    def test_accepted_constants_bounded(self, rng):
        obj = gapped_quadratic(rng, n=8, cond=100)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        beta_L = bounds.beta * obj.L
        config = SolverConfig(max_iters=100, initial_guess=beta_L / 8, x0=np.ones(8))
        run = run_adaptive_gm(obj, IdentityPreconditioner(), config)
        assert all(r.M_k <= 2.0 * beta_L * (1.0 + 1e-12) for r in run.records[1:])

    def test_exact_guess_accepts_immediately(self, rng):
        obj = gapped_quadratic(rng, n=6, cond=50)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        config = SolverConfig(
            max_iters=1, initial_guess=bounds.beta * obj.L, x0=np.ones(6)
        )
        run = run_adaptive_gm(obj, IdentityPreconditioner(), config)
        assert run.records[1].ls_trials == 1  # zero doublings

    def test_average_trials_small_logistic(self, rng):
        obj = logistic_bench(rng)
        prec = IdentityPreconditioner()
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        config = SolverConfig(max_iters=200, initial_guess=guess.value)
        run = run_adaptive_gm(obj, prec, config)
        avg = run.total_ls_trials() / run.iterations
        assert avg <= 2.5

    def test_descent(self, rng):
        obj = logistic_bench(rng)
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(obj.n), 1.0)
        config = SolverConfig(max_iters=50, initial_guess=guess.value)
        run = run_adaptive_gm(obj, IdentityPreconditioner(), config)
        values = run.f_values()
        assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))

    def test_no_stall_at_rounding_floor(self):
        # At the rounding floor the trial step y equals x while <g, Pg>/(2M)
        # has not yet underflowed; the general model must still accept it
        # instead of doubling M towards the cap.
        spec = SyntheticSpectrumSpec(lam1=1000, lam2=300, tail=1, n=10, seed=0)
        obj, _ = synth_regression(spec, HuberLoss(0.1))
        prec = build_from_descriptor("cutting:2", obj.curvature)
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        run = run_adaptive_gm(obj, prec, SolverConfig(max_iters=600, initial_guess=guess.value))
        assert max(r.ls_trials for r in run.records) <= 10


class TestAdaptiveFGM:
    def test_isotropic_matches_fixed_run(self, rng):
        # On an isotropic quadratic every halved trial is rejected, so the
        # adaptive trajectory reproduces the fixed-step one exactly.
        B = DenseOperator(2.0 * np.eye(5))
        obj_fixed = make_quadratic(B, np.ones(5))
        obj_adapt = make_quadratic(DenseOperator(2.0 * np.eye(5)), np.ones(5))
        x0 = np.full(5, 3.0)
        fixed = run_fgm(
            obj_fixed,
            IdentityPreconditioner(),
            SolverConfig(max_iters=30, step_constant=2.0, x0=x0, keep_iterates=True),
        )
        adaptive = run_adaptive_fgm(
            obj_adapt,
            IdentityPreconditioner(),
            SolverConfig(max_iters=30, initial_guess=2.0, x0=x0, keep_iterates=True),
        )
        for xf, xa in zip(fixed.iterates_x, adaptive.iterates_x):
            assert np.allclose(xf, xa, rtol=1e-13, atol=1e-13)

    def test_rejected_trials_leave_state_unchanged(self, rng):
        from polyprec import FGMState, fgm_step

        obj = gapped_quadratic(rng, n=6, cond=100)
        x0 = rng.standard_normal(6)
        state = FGMState(x=x0, v=x0.copy(), A=0.0)
        before = (state.x.copy(), state.v.copy(), state.A)
        fgm_step(obj, IdentityPreconditioner(), 0.01, 0.0, state)  # a rejected trial
        assert np.array_equal(state.x, before[0])
        assert np.array_equal(state.v, before[1])
        assert state.A == before[2]

    def test_weight_growth_degraded_constant(self, rng):
        obj = logistic_bench(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        beta_L = bounds.beta * obj.L
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(obj.n), 1.0)
        assert guess.value <= beta_L * (1.0 + 1e-9)
        config = SolverConfig(max_iters=100, initial_guess=guess.value)
        run = run_adaptive_fgm(obj, IdentityPreconditioner(), config)
        for record in run.records[1:]:
            assert record.A_k >= record.k**2 / (16.0 * beta_L) * (1.0 - 1e-12)

    def test_determinism(self, rng):
        obj_a = logistic_bench(np.random.default_rng(5))
        obj_b = logistic_bench(np.random.default_rng(5))
        config = SolverConfig(max_iters=40, initial_guess=1.0)
        run_a = run_adaptive_fgm(obj_a, IdentityPreconditioner(), config)
        run_b = run_adaptive_fgm(obj_b, IdentityPreconditioner(), config)
        for ra, rb in zip(run_a.records, run_b.records):
            assert ra.f_value == rb.f_value
            assert ra.M_k == rb.M_k
            assert ra.matvecs == rb.matvecs


def run_method(method, obj, config):
    if method == "krylov":
        return run_krylov_gm(obj, config, 2)
    runner = {
        "gm": run_gm,
        "fgm": run_fgm,
        "adaptive-gm": run_adaptive_gm,
        "adaptive-fgm": run_adaptive_fgm,
    }[method]
    return runner(obj, IdentityPreconditioner(), config)


@pytest.mark.parametrize("method", ["gm", "fgm", "adaptive-gm", "adaptive-fgm", "krylov"])
class TestLoopContract:
    """What the shared iteration loop guarantees for every method."""

    def run(self, method, **overrides):
        obj = gapped_quadratic(np.random.default_rng(7), n=6, cond=10)
        beta_L = compute_alpha_beta(IdentityPreconditioner(), obj.curvature).beta * obj.L
        options = dict(
            step_constant=beta_L, initial_guess=beta_L / 4, x0=np.ones(6), f_star=obj.f_star
        )
        options.update(overrides)
        return obj, run_method(method, obj, SolverConfig(**options))

    def test_start_record(self, method):
        _, run = self.run(method, max_iters=3)
        first = run.records[0]
        assert first.k == 0
        assert first.grad_map == np.inf
        assert first.ls_trials == 0

    def test_keep_iterates(self, method):
        _, run = self.run(method, max_iters=5, keep_iterates=True)
        assert len(run.iterates_x) == len(run.records)
        if method in ("fgm", "adaptive-fgm"):
            assert len(run.iterates_v) == len(run.records)
        else:
            assert run.iterates_v is None

    def test_gap_target_stops(self, method):
        obj, run = self.run(method, max_iters=10_000, gap_target=1e-6)
        assert run.termination == "gap_target"
        gaps = run.f_values() - obj.f_star
        assert gaps[-1] <= 1e-6
        assert np.all(gaps[:-1] > 1e-6)

    def test_grad_map_tol_stops(self, method):
        _, run = self.run(method, max_iters=10_000, tol=1e-6)
        assert run.termination == "grad_map_tol"
        grad_maps = [r.grad_map for r in run.records]
        assert grad_maps[-1] <= 1e-6
        assert all(g > 1e-6 for g in grad_maps[:-1])


class TestCompositeRuns:
    def _ridge_objective(self, rng, sigma):
        # Smooth quadratic plus a custom quadratic regularizer through the
        # prox oracle; the identity-metric step has a closed form.
        from polyprec import CompositePart, make_quadratic

        B = random_spd(rng, 5)
        b = rng.standard_normal(5)
        obj = make_quadratic(B, b)

        def prox(M, prec, op, x, g):
            y = (M * x - g) / (M + sigma)
            return y, float((y - x) @ (y - x))

        obj.psi = CompositePart(
            kind="custom",
            value=lambda y: 0.5 * sigma * float(y @ y),
            prox=prox,
        )
        target = np.linalg.solve(B.to_dense() + sigma * np.eye(5), b)
        return obj, target

    def test_gm_reaches_regularized_optimum(self, rng):
        sigma = 0.7
        obj, target = self._ridge_objective(rng, sigma)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        run = run_gm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=4000, step_constant=bounds.beta, x0=np.ones(5)),
        )
        assert np.allclose(run.x, target, atol=1e-8)

    def test_adaptive_fgm_reaches_regularized_optimum(self, rng):
        sigma = 0.7
        obj, target = self._ridge_objective(rng, sigma)
        run = run_adaptive_fgm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=600, initial_guess=0.5, x0=np.ones(5)),
        )
        assert np.allclose(run.x, target, atol=1e-8)


class TestInitialGuess:
    def test_quadratic_rayleigh(self):
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.array([1.0, 0.0]), 1.0)
        assert guess.value == pytest.approx(2.0)
        assert not guess.flagged

    def test_linear_objective_flagged(self, rng):
        op = random_spd(rng, 3)
        c = rng.standard_normal(3)
        obj = CompositeObjective(
            n=3,
            value=lambda x: float(c @ x),
            gradient=lambda x: c,
            curvature=op,
            L=1.0,
            mu=0.0,
        )
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(3), 1.0)
        assert guess.flagged
        assert guess.value == pytest.approx(2.0**-6)

    def test_stationary_start_flagged(self, rng):
        B = random_spd(rng, 3)
        obj = make_quadratic(B, np.zeros(3))
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(3), 7.0)
        assert guess.flagged
        assert guess.value == pytest.approx(7.0)

    def test_never_exceeds_curvature_bound_huber(self, rng):
        for trial in range(20):
            local = np.random.default_rng(trial)
            rows = local.standard_normal((15, 5))
            targets = local.standard_normal(15)
            obj = make_regression(RegressionData(rows, targets, HuberLoss(0.1)))
            bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
            guess = initial_guess_M(
                obj, IdentityPreconditioner(), local.standard_normal(5), 1.0
            )
            assert guess.value <= bounds.beta * obj.L * (1.0 + 1e-9)
