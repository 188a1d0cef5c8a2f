from collections import Counter

import numpy as np
import pytest

import polyprec.krylov
from polyprec import (
    ChebyshevPreconditioner,
    CompositePart,
    DenseOperator,
    HuberLoss,
    SolverConfig,
    build_from_descriptor,
    build_gram,
    compute_alpha_beta,
    make_quadratic,
    make_regression,
    run_krylov_gm,
    solve_gram,
    spectral_decomposition,
    synth_regression,
)
from polyprec.krylov import KrylovPreconditioner
from conftest import random_spd, record_iterates


def huber_bench(rng, m=24, n=8):
    rows = rng.standard_normal((m, n))
    targets = rng.standard_normal(m)
    return make_regression(rows, targets, HuberLoss(0.1))


def krylov_step(obj, x, tau):
    """The krylov method's step at x: gm at M = L with the Krylov preconditioner."""
    return x - KrylovPreconditioner(tau).apply(obj.curvature, obj.gradient(x)) / obj.L


class TestBuildGram:
    def test_small_quadratic_entries(self):
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        g = obj.gradient(np.array([1.0, 1.0]))
        basis, projected = build_gram(B, g, 0)
        rhs = basis.T @ g
        assert np.allclose(basis @ rhs, [2.0, 1.0])  # the gradient, in the basis
        # One basis vector g/|g|: the matrix is its Rayleigh quotient, rhs |g|.
        assert np.allclose(obj.L * projected, [[9.0 / 5.0]])
        assert np.allclose(rhs, [np.sqrt(5.0)])

    def test_stationary_point_all_zero(self, rng):
        B = random_spd(rng, 4)
        obj = make_quadratic(B, np.zeros(4))
        g = obj.gradient(np.zeros(4))
        basis, projected = build_gram(B, g, 2)
        assert np.allclose(projected, 0.0)
        assert np.allclose(basis.T @ g, 0.0)

    def test_symmetric_by_construction(self, rng):
        obj = huber_bench(rng)
        _, projected = build_gram(obj.curvature, obj.gradient(rng.standard_normal(8)), 3)
        assert np.array_equal(projected, projected.T)

    def test_matvec_budget(self, rng):
        obj = huber_bench(rng)
        tau = 3
        g = obj.gradient(rng.standard_normal(8))
        before = obj.curvature.matvecs
        build_gram(obj.curvature, g, tau)
        assert obj.curvature.matvecs - before == tau + 1


class TestSolveGram:
    def test_scalar_solve(self):
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        g = obj.gradient(np.array([1.0, 1.0]))
        info = solve_gram(*build_gram(B, g, 0), g)
        assert np.allclose(info.coefficients / obj.L, [5.0 * np.sqrt(5.0) / 9.0])
        assert info.effective_degree == 0

    def test_eigenvector_gradient_truncates(self):
        # Gradient along an eigenvector spans a one-dimensional subspace.
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        x = np.array([1.0, 0.0])
        g = obj.gradient(x)
        info = solve_gram(*build_gram(B, g, 1), g)
        assert info.effective_degree == 0
        # Exact line search along the gradient hits the optimum.
        assert np.allclose(krylov_step(obj, x, 1), [0.0, 0.0], atol=1e-12)

    def test_zero_system_gives_zero_step(self, rng):
        B = random_spd(rng, 3)
        obj = make_quadratic(B, np.zeros(3))
        g = obj.gradient(np.zeros(3))
        info = solve_gram(*build_gram(B, g, 2), g)
        assert np.allclose(info.coefficients, 0.0)
        assert np.allclose(krylov_step(obj, np.zeros(3), 2), 0.0)

    def test_diagonal_system(self):
        info = solve_gram(np.eye(3), 2.0 * np.eye(3), np.array([2.0, 4.0, 6.0]))
        assert np.allclose(info.coefficients, [1.0, 2.0, 3.0])


class TestKrylovStep:
    def test_steepest_descent_step(self):
        B = DenseOperator(np.diag([2.0, 1.0]))
        obj = make_quadratic(B, np.zeros(2))
        new_x = krylov_step(obj, np.array([1.0, 1.0]), 0)
        assert np.allclose(new_x, [-1.0 / 9.0, 4.0 / 9.0])
        assert obj.value(new_x) == pytest.approx(1.0 / 9.0)

    def test_zero_coefficients_keep_point(self, rng, monkeypatch):
        B = random_spd(rng, 3)
        obj = make_quadratic(B, np.zeros(3))
        x = rng.standard_normal(3)
        solved = polyprec.krylov.solve_gram

        def zeroed(basis, projected, v):
            info = solved(basis, projected, v)
            info.coefficients[:] = 0.0
            return info

        monkeypatch.setattr(polyprec.krylov, "solve_gram", zeroed)
        assert np.allclose(krylov_step(obj, x, 1), x)

    def test_full_space_single_step(self, rng):
        # Full-degree subspace solves the quadratic in one step.
        for _ in range(5):
            n = 5
            B = random_spd(rng, n, lam_low=0.5, lam_high=9.0)
            obj = make_quadratic(B, rng.standard_normal(n))
            x = rng.standard_normal(n)
            new_x = krylov_step(obj, x, n - 1)
            assert np.allclose(new_x, obj.x_star, rtol=1e-7, atol=1e-8)

    def test_no_scalar_form(self):
        with pytest.raises(ValueError, match="no scalar form"):
            KrylovPreconditioner(2).eval_at(np.ones(3))


class TestRunKrylovGM:
    def test_rejects_composite(self, rng):
        obj = huber_bench(rng)
        obj.psi = CompositePart(lambda y: 0.0, lambda M, prec, op, x, g: (x, 0.0))
        with pytest.raises(ValueError, match="smooth"):
            run_krylov_gm(obj, SolverConfig(max_iters=3), 1)

    def test_monotone_on_benchmarks(self, rng):
        B = random_spd(rng, 8, lam_low=0.5, lam_high=50.0)
        benchmarks = [make_quadratic(B, rng.standard_normal(8)), huber_bench(rng)]
        for obj in benchmarks:
            config = SolverConfig(max_iters=40, x0=rng.standard_normal(obj.n))
            run = run_krylov_gm(obj, config, 2)
            values = run.f_values()
            assert np.all(np.diff(values) <= 1e-10 * np.maximum(np.abs(values[:-1]), 1.0))

    def test_tau_zero_equals_exact_line_search(self, rng):
        # Cauchy steps in closed form are the oracle trajectory.
        for trial in range(5):
            local = np.random.default_rng(100 + trial)
            n = 7
            B = random_spd(local, n, lam_low=0.5, lam_high=30.0)
            obj = make_quadratic(B, local.standard_normal(n))
            x0 = local.standard_normal(n)
            iterates = record_iterates(obj)
            run_krylov_gm(obj, SolverConfig(max_iters=25, x0=x0), 0)
            mat = B.to_dense()
            x = x0.copy()
            for iterate in iterates:
                assert np.allclose(iterate, x, rtol=1e-12, atol=1e-12)
                g = mat @ x - (mat @ obj.x_star)
                if float(g @ g) == 0.0:
                    continue
                t = float(g @ g) / float(g @ (mat @ g))
                x = x - t * g

    def test_matvec_budget_per_iteration(self, rng):
        obj = huber_bench(rng)
        tau = 3
        iters = 10
        run = run_krylov_gm(obj, SolverConfig(max_iters=iters, x0=np.ones(8)), tau)
        assert run.total_matvecs() == iters * (tau + 1)
        assert run.records[-1].grad_evals == iters

    def test_matvecs_follow_effective_degree(self):
        # On the gapped problem the gradient soon lies in the 98-fold tail
        # eigenspace, so most iterations need fewer than tau + 1 matvecs.
        obj = synth_regression((1000.0, 300.0, 1.0, 100), HuberLoss(0.1), seed=204)
        run = run_krylov_gm(obj, SolverConfig(max_iters=200), 3)
        # An iteration of effective degree d spends d + 1 Lanczos products.
        degrees = np.diff([r.matvecs for r in run.records]) - 1
        assert Counter(degrees.tolist()) == {0: 154, 1: 4, 2: 42}

    def test_effective_degree_recorded(self, rng):
        obj = huber_bench(rng)
        run = run_krylov_gm(obj, SolverConfig(max_iters=5, x0=np.ones(8)), 2)
        steps = np.diff([r.matvecs for r in run.records])
        assert steps.size == 5
        assert np.all((1 <= steps) & (steps <= 3))


class TestProjectionOptimality:
    def test_dominates_fixed_polynomial_steps(self, rng):
        # The solved step minimizes the curvature model over the subspace, so
        # it dominates the trace-family and Chebyshev steps of equal degree.
        for trial in range(20):
            local = np.random.default_rng(500 + trial)
            n = 7
            if trial % 2 == 0:
                B = random_spd(local, n, lam_low=0.4, lam_high=60.0)
                obj = make_quadratic(B, local.standard_normal(n))
            else:
                obj = huber_bench(local, m=21, n=n)
                B = DenseOperator(obj.curvature.to_dense())
            dec = spectral_decomposition(B)
            x = local.standard_normal(n)
            mat = B.to_dense()
            g = obj.gradient(x)

            def model(h):
                return float(g @ h) + 0.5 * obj.L * float(h @ (mat @ h))

            for tau in range(4):
                krylov_h = krylov_step(obj, x, tau) - x

                sympoly = build_from_descriptor(f"sympoly:{tau}", B)
                beta = compute_alpha_beta(sympoly, B).beta
                sympoly_h = -sympoly.apply(B, g) / (beta * obj.L)
                slack = 1e-10 * max(1.0, abs(model(sympoly_h)))
                assert model(krylov_h) <= model(sympoly_h) + slack

                if dec.lam_max > dec.lam_min:
                    cheb = ChebyshevPreconditioner(dec.lam_max, dec.lam_min, tau)
                    cheb_h = -cheb.apply(B, g) / obj.L
                    slack = 1e-10 * max(1.0, abs(model(cheb_h)))
                    assert model(krylov_h) <= model(cheb_h) + slack
