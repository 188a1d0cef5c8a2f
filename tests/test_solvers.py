import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprec import (
    DenseOperator,
    IdentityPreconditioner,
    SolverConfig,
    build_from_descriptor,
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
from polyprec import CompositeObjective, HuberLoss, LogisticLoss
from polyprec.solvers import ROUNDING_FLOOR
from conftest import random_spd, record_iterates


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
    return make_regression(folded, np.zeros(m), LogisticLoss())


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
        config = SolverConfig(max_iters=60, x0=np.ones(3))
        iterates = record_iterates(obj)
        run = run_gm(obj, IdentityPreconditioner(), config, 3.0)
        values = run.f_values()
        assert np.all(np.diff(values) <= 1e-14)
        dists = [np.linalg.norm(x) for x in iterates]  # x* = 0
        assert all(b <= a + 1e-14 for a, b in zip(dists, dists[1:]))

    def test_stationary_start(self, rng):
        B = random_spd(rng, 4)
        obj = make_quadratic(B, rng.standard_normal(4))
        config = SolverConfig(max_iters=5, x0=obj.x_star.copy())
        run = run_gm(obj, IdentityPreconditioner(), config, 2.0)
        assert np.allclose(run.x, obj.x_star, atol=1e-12)

    def test_gap_target_stops(self, rng):
        obj = gapped_quadratic(rng, n=6, cond=10)
        config = SolverConfig(
            max_iters=10_000,
            gap_target=1e-6,
            f_star=obj.f_star,
            x0=np.ones(6),
        )
        M = compute_alpha_beta(IdentityPreconditioner(), obj.curvature).beta
        run = run_gm(obj, IdentityPreconditioner(), config, M)
        assert run.termination == "gap_target"
        assert run.records[-1].f_value - obj.f_star <= 1e-6

    def test_record_budget(self, rng):
        obj = gapped_quadratic(rng, n=4, cond=10)
        config = SolverConfig(max_iters=17)
        run = run_gm(obj, IdentityPreconditioner(), config, 50.0)
        assert len(run.records) <= config.max_iters + 1


class TestRunFGM:
    def test_weight_growth_convex(self, rng):
        obj = gapped_quadratic(rng)
        M = compute_alpha_beta(IdentityPreconditioner(), obj.curvature).beta
        config = SolverConfig(max_iters=150, x0=np.ones(10))
        run = run_fgm(obj, IdentityPreconditioner(), config, M)
        for record in run.records[1:]:
            assert record.A_k >= record.k**2 / (4.0 * M) * (1.0 - 1e-12)

    def test_weight_growth_strongly_convex(self, rng):
        obj = gapped_quadratic(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        M = bounds.beta
        rho = bounds.alpha  # mu = 1
        config = SolverConfig(max_iters=150, x0=np.ones(10))
        run = run_fgm(obj, IdentityPreconditioner(), config, M, rho)
        q = np.sqrt(rho / M)
        for record in run.records[1:]:
            floor = 1.0 / (M * (1.0 - q) ** (record.k - 1))
            assert record.A_k >= floor * (1.0 - 1e-12)

    def test_coefficient_identity_every_iteration(self, rng):
        obj = gapped_quadratic(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        config = SolverConfig(max_iters=100, x0=np.ones(10))
        run = run_fgm(obj, IdentityPreconditioner(), config, bounds.beta, bounds.alpha)
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
        prec = build_from_descriptor("sympoly:1", obj.curvature)
        bounds = compute_alpha_beta(prec, obj.curvature)
        M = bounds.beta
        rho = bounds.alpha
        config = SolverConfig(max_iters=80, x0=np.ones(8))
        iterates = record_iterates(obj)
        run = run_fgm(obj, prec, config, M, rho)
        # Prox centres from the records: x_k = (1 - theta_k) x_{k-1} + theta_k v_k
        # with theta_k = (A_k - A_{k-1}) / A_k, and v_0 = x_0.
        centres = [iterates[0]]
        for prev, record, x_prev, x in zip(run.records, run.records[1:], iterates, iterates[1:]):
            theta = (record.A_k - prev.A_k) / record.A_k
            centres.append((x - (1.0 - theta) * x_prev) / theta)
        dense_prec = np.zeros((8, 8))
        power = np.eye(8)
        for c in prec.coeffs:
            dense_prec += c * power
            power = power @ obj.curvature.to_dense()
        x_star = obj.x_star
        potentials = []
        for record, v in zip(run.records, centres):
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
            gap_target=1e-9,
            f_star=obj.f_star,
            x0=np.ones(10),
        )
        run = run_fgm(obj, IdentityPreconditioner(), config, bounds.beta, bounds.alpha)
        assert run.termination == "gap_target"


class TestPredicate:
    def test_holds_for_conservative_constant(self, rng):
        obj = gapped_quadratic(rng, n=5, cond=10)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        x = rng.standard_normal(5)
        g = obj.gradient(x)
        M = bounds.beta * obj.L
        y = x - g / M
        step_norm_sq = float(g @ g) / M**2
        assert quadratic_growth_predicate(M, x, y, g, step_norm_sq, obj.value(x), obj.value(y))

    def test_trivial_equal_points(self, rng):
        obj = gapped_quadratic(rng, n=4, cond=10)
        x = rng.standard_normal(4)
        f_x = obj.value(x)
        assert quadratic_growth_predicate(0.5, x, x.copy(), obj.gradient(x), 0.0, f_x, f_x)

    def test_one_dimensional_counterexample(self):
        B = DenseOperator(np.array([[1.0]]))
        obj = make_quadratic(B, np.zeros(1))
        x = np.array([1.0])
        y = np.array([0.0])
        assert not quadratic_growth_predicate(
            0.5, x, y, obj.gradient(x), 1.0, obj.value(x), obj.value(y)
        )


class TestAdaptiveGM:
    def test_accepted_constants_bounded(self, rng):
        obj = gapped_quadratic(rng, n=8, cond=100)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        beta_L = bounds.beta * obj.L
        config = SolverConfig(max_iters=100, x0=np.ones(8))
        run = run_adaptive_gm(obj, IdentityPreconditioner(), config, beta_L / 8)
        assert all(r.M_k <= 2.0 * beta_L * (1.0 + 1e-12) for r in run.records[1:])

    def test_exact_guess_accepts_immediately(self, rng):
        obj = gapped_quadratic(rng, n=6, cond=50)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        config = SolverConfig(max_iters=1, x0=np.ones(6))
        run = run_adaptive_gm(obj, IdentityPreconditioner(), config, bounds.beta * obj.L)
        assert run.records[1].ls_trials == 1  # zero doublings

    def test_average_trials_small_logistic(self, rng):
        obj = logistic_bench(rng)
        prec = IdentityPreconditioner()
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        config = SolverConfig(max_iters=200)
        run = run_adaptive_gm(obj, prec, config, guess)
        avg = run.total_ls_trials() / run.iterations
        assert avg <= 2.5

    def test_descent(self, rng):
        obj = logistic_bench(rng)
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(obj.n), 1.0)
        config = SolverConfig(max_iters=50)
        run = run_adaptive_gm(obj, IdentityPreconditioner(), config, guess)
        values = run.f_values()
        assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))

    def test_no_stall_at_rounding_floor(self):
        # At the rounding floor the trial step y equals x while <g, Pg>/(2M)
        # has not yet underflowed; the general model must still accept it
        # instead of doubling M towards the cap.
        obj = synth_regression((1000, 300, 1, 10), HuberLoss(0.1), seed=0)
        prec = build_from_descriptor("cutting:2", obj.curvature)
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        run = run_adaptive_gm(obj, prec, SolverConfig(max_iters=600), guess)
        assert max(r.ls_trials for r in run.records) <= 10

    def test_non_descent_warning_from_the_library_names_the_method(self, caplog):
        # The CLI's indefinite case (test_io_cli.py), run without a config: the
        # warning names the method alone.
        obj = synth_regression((1000, 300, 1, 100), HuberLoss(0.1), seed=204)
        prec = build_from_descriptor("sympoly:3:stochastic:1:1", obj.curvature)
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        with caplog.at_level(logging.WARNING, logger="polyprec"):
            run_adaptive_gm(obj, prec, SolverConfig(max_iters=2), guess)
        [message] = [r.getMessage() for r in caplog.records if r.name == "polyprec"]
        assert message.startswith("adaptive-gm: iteration 1 accepted a non-descent step")


class TestAdaptiveFGM:
    def test_isotropic_matches_fixed_run(self, rng):
        # On an isotropic quadratic every halved trial is rejected, so the
        # adaptive trajectory reproduces the fixed-step one exactly.
        B = DenseOperator(2.0 * np.eye(5))
        obj_fixed = make_quadratic(B, np.ones(5))
        obj_adapt = make_quadratic(DenseOperator(2.0 * np.eye(5)), np.ones(5))
        x0 = np.full(5, 3.0)
        fixed_iterates = record_iterates(obj_fixed)
        adapt_iterates = record_iterates(obj_adapt)
        run_fgm(obj_fixed, IdentityPreconditioner(), SolverConfig(max_iters=30, x0=x0), 2.0)
        run_adaptive_fgm(
            obj_adapt, IdentityPreconditioner(), SolverConfig(max_iters=30, x0=x0), 2.0
        )
        assert len(fixed_iterates) == len(adapt_iterates) == 31
        for xf, xa in zip(fixed_iterates, adapt_iterates):
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
        assert guess <= beta_L * (1.0 + 1e-9)
        config = SolverConfig(max_iters=100)
        run = run_adaptive_fgm(obj, IdentityPreconditioner(), config, guess)
        for record in run.records[1:]:
            assert record.A_k >= record.k**2 / (16.0 * beta_L) * (1.0 - 1e-12)

    def test_determinism(self, rng):
        obj_a = logistic_bench(np.random.default_rng(5))
        obj_b = logistic_bench(np.random.default_rng(5))
        config = SolverConfig(max_iters=40)
        run_a = run_adaptive_fgm(obj_a, IdentityPreconditioner(), config, 1.0)
        run_b = run_adaptive_fgm(obj_b, IdentityPreconditioner(), config, 1.0)
        for ra, rb in zip(run_a.records, run_b.records):
            assert ra.f_value == rb.f_value
            assert ra.M_k == rb.M_k
            assert ra.matvecs == rb.matvecs


def _search_starts(run):
    """The constant each search of an adaptive run started from: an accepted
    M after t trials was reached by t - 1 doublings."""
    return [r.M_k / 2.0 ** (r.ls_trials - 1) for r in run.records[1:]]


class TestSearchStart:
    # Each search starts at the curvature the last accepted step measured,
    # clipped to [M/2, M]; the doubling search's guarantees must survive it.
    @given(
        st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=8),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(["identity", "sympoly:1"]),
        st.integers(min_value=-6, max_value=6),
        st.sampled_from([run_adaptive_gm, run_adaptive_fgm]),
    )
    @settings(max_examples=60, deadline=None)
    def test_doubling_search_bounds_hold(self, spectrum, seed, precond, scale, runner):
        # The bounds hold in exact arithmetic. With the minimizer at the origin
        # and f* = 0 the predicate's rounding stays relative to f, so no run
        # reaches the rounding floor, where noise rejects trials and lifts M.
        rng = np.random.default_rng(seed)
        op = random_spd(rng, len(spectrum), spectrum=np.sort(spectrum)[::-1])
        obj = make_quadratic(op, np.zeros(len(spectrum)))
        prec = build_from_descriptor(precond, op)
        beta_L = compute_alpha_beta(prec, op).beta * obj.L
        M0 = beta_L * 2.0**scale
        config = SolverConfig(max_iters=25, x0=rng.standard_normal(len(spectrum)))
        run = runner(obj, prec, config, M0)
        accepted = [r.M_k for r in run.records[1:]]
        assert max(accepted) <= max(M0, 2.0 * beta_L) * (1.0 + 1e-9)
        trials = np.cumsum([r.ls_trials for r in run.records[1:]])
        for k, (total, M_k) in enumerate(zip(trials, accepted), start=1):
            assert total <= 2 * k + np.log2(M_k / M0) + 1e-9
        assert _search_starts(run)[0] == M0
        for M_prev, start in zip(accepted, _search_starts(run)[1:]):
            assert M_prev / 2.0 <= start <= M_prev

    def test_a_non_descent_step_starts_the_next_search_at_half(self):
        # An accepted step whose squared norm is negative measures no curvature
        # (its estimate would be at least M), so the next search starts at M/2.
        obj = synth_regression((1000, 300, 1, 100), HuberLoss(0.1), seed=204)
        prec = build_from_descriptor("sympoly:3:stochastic:1:1", obj.curvature)
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        run = run_adaptive_gm(obj, prec, SolverConfig(max_iters=10), guess)
        starts = _search_starts(run)[1:]
        after = [(r.M_k, start) for r, start in zip(run.records[1:], starts) if r.grad_map == 0]
        assert after  # grad_map reads 0 for a squared step norm <= 0
        assert all(start == M / 2.0 for M, start in after)


RUNNERS = {
    "gm": run_gm,
    "fgm": run_fgm,
    "adaptive-gm": run_adaptive_gm,
    "adaptive-fgm": run_adaptive_fgm,
}


def run_method(method, obj, config, M):
    """Run ``method`` at constant ``M``; krylov picks its own, L."""
    if method == "krylov":
        return run_krylov_gm(obj, config, 2)
    return RUNNERS[method](obj, IdentityPreconditioner(), config, M)


@pytest.mark.parametrize("method", list(RUNNERS))
@pytest.mark.parametrize("M", [0, -1])
def test_runners_reject_a_non_positive_constant(method, M):
    obj = gapped_quadratic(np.random.default_rng(7), n=4, cond=10)
    with pytest.raises(ValueError, match=f"^run requires a positive step constant, got {M}$"):
        RUNNERS[method](obj, IdentityPreconditioner(), SolverConfig(max_iters=3), M)


@pytest.mark.parametrize("method", ["gm", "fgm", "adaptive-gm", "adaptive-fgm", "krylov"])
class TestLoopContract:
    """What the shared iteration loop guarantees for every method."""

    def problem(self, method, **overrides):
        obj = gapped_quadratic(np.random.default_rng(7), n=6, cond=10)
        beta_L = compute_alpha_beta(IdentityPreconditioner(), obj.curvature).beta * obj.L
        # gm/fgm step with the fixed beta*L; the adaptive searches start below it.
        M = beta_L if method in ("gm", "fgm") else beta_L / 4
        options = dict(x0=np.ones(6), f_star=obj.f_star)
        options.update(overrides)
        return obj, SolverConfig(**options), M

    def run(self, method, **overrides):
        obj, config, M = self.problem(method, **overrides)
        return obj, run_method(method, obj, config, M)

    def test_start_record(self, method):
        _, run = self.run(method, max_iters=3)
        first = run.records[0]
        assert first.k == 0
        assert first.grad_map == np.inf
        assert first.ls_trials == 0

    def test_one_readout_per_record(self, method):
        # record_iterates (conftest) relies on one objective readout per record.
        obj, config, M = self.problem(method, max_iters=5)
        iterates = record_iterates(obj)
        run = run_method(method, obj, config, M)
        assert len(iterates) == len(run.records)
        assert np.array_equal(iterates[0], np.ones(6))
        assert np.array_equal(iterates[-1], run.x)

    def test_gap_target_stops(self, method):
        obj, run = self.run(method, max_iters=10_000, gap_target=1e-6)
        assert run.termination == "gap_target"
        gaps = run.f_values() - obj.f_star
        assert gaps[-1] <= 1e-6
        assert np.all(gaps[:-1] > 1e-6)

    def test_gap_target_met_at_the_cap(self, method):
        # The record at the cap is checked too: a budget that ends on the
        # iteration that meets the target reports the target.
        _, free = self.run(method, max_iters=10_000, gap_target=1e-6)
        k = free.iterations
        _, capped = self.run(method, max_iters=k, gap_target=1e-6)
        assert (capped.termination, capped.iterations) == ("gap_target", k)
        _, short = self.run(method, max_iters=k - 1, gap_target=1e-6)
        assert (short.termination, short.iterations) == ("max_iters", k - 1)

    def test_grad_map_tol_stops(self, method):
        _, run = self.run(method, max_iters=10_000, tol=1e-6)
        assert run.termination == "grad_map_tol"
        grad_maps = [r.grad_map for r in run.records]
        assert grad_maps[-1] <= 1e-6
        assert all(g > 1e-6 for g in grad_maps[:-1])


class TestRoundingFloor:
    """A run with a tolerance stops once no step can lower f in floating point."""

    def run(self, tol):
        obj = synth_regression((40, 4, 1, 10), LogisticLoss(), seed=0, rows=50)
        prec = build_from_descriptor("inverse", obj.curvature)
        guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        config = SolverConfig(max_iters=500, tol=tol)
        return run_adaptive_fgm(obj, prec, config, guess)

    def test_unreachable_tolerance_stops_at_floor(self):
        run = self.run(tol=1e-300)
        assert run.termination == "rounding_floor"
        assert run.iterations < 500
        last = run.records[-1]
        assert last.grad_map**2 <= ROUNDING_FLOOR * last.M_k * abs(last.f_value)

    def test_no_tolerance_runs_to_the_cap(self):
        assert self.run(tol=0.0).termination == "max_iters"


class TestCostAccounting:
    """Telemetry readouts are free: only the method's own products count."""

    def test_quadratic_runs_count_method_matvecs_only(self):
        obj = gapped_quadratic(np.random.default_rng(11), n=8, cond=100)
        B = obj.curvature
        prec = build_from_descriptor("sympoly:2", B)
        beta = compute_alpha_beta(prec, B).beta
        run = run_gm(obj, prec, SolverConfig(max_iters=10), beta * obj.L)
        # One gradient and a degree-2 apply per iteration.
        assert run.total_matvecs() == 10 * 3

        obj = gapped_quadratic(np.random.default_rng(11), n=8, cond=100)
        run = run_krylov_gm(obj, SolverConfig(max_iters=10), 2)
        # Three Lanczos products and one gradient per iteration.
        assert np.diff([r.matvecs for r in run.records]).tolist() == [3 + 1] * 10


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

        obj.psi = CompositePart(lambda y: 0.5 * sigma * float(y @ y), prox)
        target = np.linalg.solve(B.to_dense() + sigma * np.eye(5), b)
        return obj, target

    def test_gm_reaches_regularized_optimum(self, rng):
        sigma = 0.7
        obj, target = self._ridge_objective(rng, sigma)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        run = run_gm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=4000, x0=np.ones(5)),
            bounds.beta,
        )
        assert np.allclose(run.x, target, atol=1e-8)

    def test_adaptive_fgm_reaches_regularized_optimum(self, rng):
        sigma = 0.7
        obj, target = self._ridge_objective(rng, sigma)
        run = run_adaptive_fgm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=600, x0=np.ones(5)),
            0.5,
        )
        assert np.allclose(run.x, target, atol=1e-8)

    @pytest.mark.parametrize("precond, composite_matvecs", [("sympoly:2", 212), ("cutting:2", 208)])
    def test_adaptive_gm_zero_part_matches_the_smooth_run(self, precond, composite_matvecs):
        # A zero part whose prox is the closed-form step sends every trial
        # through the prox: the same run bit for bit, but the preconditioner
        # is applied at each trial (tau matvecs) instead of once per iteration.
        from polyprec import CompositePart

        def prox(M, prec, op, x, g):
            pg = prec.apply(op, g)
            return x - pg / M, float(g @ pg) / (M * M)

        runs = []
        for psi in (None, CompositePart(lambda y: 0.0, prox)):
            obj = synth_regression((1000.0, 300.0, 1.0, 100), HuberLoss(0.1), 204, None)
            prec = build_from_descriptor(precond, obj.curvature)
            guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
            obj.psi = psi
            runs.append(run_adaptive_gm(obj, prec, SolverConfig(max_iters=60), guess))
        smooth, composite = runs
        assert np.array_equal(smooth.x, composite.x)
        for a, b in zip(smooth.records, composite.records, strict=True):
            assert replace(a, matvecs=0, time_ms=0) == replace(b, matvecs=0, time_ms=0)
        assert smooth.total_matvecs() == 60 * 2
        assert composite.total_matvecs() == 2 * composite.total_ls_trials() == composite_matvecs


def test_fixed_step_above_the_curvature_stops_non_finite():
    # M = 1 against the top eigenvalue 100: each step multiplies that
    # coordinate's error by -99 until the objective overflows.
    obj = make_quadratic(DenseOperator(np.diag([100.0, 10.0, 1.0])), np.ones(3))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        RuntimeError, match="^gm: objective became non-finite"
    ):
        run_gm(obj, IdentityPreconditioner(), SolverConfig(max_iters=1000), 1.0)


class TestInitialGuess:
    def test_quadratic_rayleigh(self):
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.array([1.0, 0.0]), 1.0)
        assert guess == pytest.approx(2.0)

    def test_linear_objective_flagged(self, rng):
        op = random_spd(rng, 3)
        c = rng.standard_normal(3)
        obj = CompositeObjective(
            value=lambda x: float(c @ x),
            gradient=lambda x: c,
            curvature=op,
            L=1.0,
            mu=0.0,
        )
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(3), 1.0)
        assert guess == pytest.approx(2.0**-6)

    def test_stationary_start_flagged(self, rng):
        B = random_spd(rng, 3)
        obj = make_quadratic(B, np.zeros(3))
        guess = initial_guess_M(obj, IdentityPreconditioner(), np.zeros(3), 7.0)
        assert guess == pytest.approx(7.0)

    def test_never_exceeds_curvature_bound_huber(self, rng):
        for trial in range(20):
            local = np.random.default_rng(trial)
            rows = local.standard_normal((15, 5))
            targets = local.standard_normal(15)
            obj = make_regression(rows, targets, HuberLoss(0.1))
            bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
            guess = initial_guess_M(
                obj, IdentityPreconditioner(), local.standard_normal(5), 1.0
            )
            assert guess <= bounds.beta * obj.L * (1.0 + 1e-9)
