import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprec import (
    DenseOperator,
    IdentityPreconditioner,
    IndefinitePreconditionerError,
    MatvecOperator,
    PolynomialCoefficients,
    PolynomialPreconditioner,
    build_from_descriptor,
    build_sympoly,
    chebyshev_T,
    chebyshev_polynomial,
    chebyshev_preconditioner,
    compute_alpha_beta,
    cutting_polynomial,
    cutting_preconditioner,
    gamma_of_polynomial,
    gamma_of_preconditioner,
    inverse_preconditioner,
    parse_descriptor,
    sympoly_coefficients,
    xi_tau,
)
from conftest import random_spd


class TestSympolyCoefficients:
    def test_degree_zero(self):
        p = sympoly_coefficients([], 0)
        assert np.allclose(p.coeffs, [1.0])
        assert p.scale == 1.0

    def test_degree_one(self):
        p = sympoly_coefficients([6.0], 1)
        assert np.allclose(p.unnormalized(), [6.0, -1.0])

    def test_degree_two(self):
        p = sympoly_coefficients([6.0, 14.0], 2)
        assert np.allclose(p.unnormalized(), [11.0, -6.0, 1.0])

    def test_normalization(self):
        p = sympoly_coefficients([6.0, 14.0], 2)
        assert np.max(np.abs(p.coeffs)) == pytest.approx(1.0)
        assert p.scale == pytest.approx(11.0)

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            sympoly_coefficients([], -1)


class TestBuildSympoly:
    def test_action_matches_complement_sums(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = build_sympoly(op, 2, "exact")
        got = prec.apply(op, np.ones(3)) * prec.coefficients.scale
        assert np.allclose(got, [2.0, 3.0, 6.0])

    def test_identity_operator(self):
        op = DenseOperator(np.eye(3))
        prec = build_sympoly(op, 1, "exact")
        got = prec.apply(op, np.ones(3)) * prec.coefficients.scale
        assert np.allclose(got, 2.0 * np.ones(3))

    def test_top_degree_is_scaled_inverse(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = build_sympoly(op, 2, "exact")
        got = prec.apply(op, np.ones(3)) * prec.coefficients.scale
        assert np.allclose(got, [2.0, 3.0, 6.0])  # det(B) * inv(B) @ 1

    def test_tau_beyond_dim_rejected(self):
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="redundant"):
            build_sympoly(op, 3, "exact")

    def test_exact_mode_needs_dense(self):
        op = MatvecOperator(3, lambda v: v)
        with pytest.raises(ValueError, match="dense"):
            build_sympoly(op, 1, "exact")

    def test_stochastic_mode_records_descriptor(self, rng):
        op = random_spd(rng, 4)
        prec = build_sympoly(op, 2, "stochastic", samples=64, seed=5)
        assert prec.descriptor == "sympoly:2:stochastic:64:5"
        again = build_sympoly(op, 2, "stochastic", samples=64, seed=5)
        assert np.array_equal(prec.coefficients.coeffs, again.coefficients.coeffs)

    def test_stochastic_mode_works_matrix_free(self, rng):
        dense = random_spd(rng, 5)
        free = MatvecOperator(5, lambda v: dense.to_dense() @ v)
        prec = build_sympoly(free, 1, "stochastic", samples=4096, seed=9)
        exact = build_sympoly(dense, 1, "exact")
        # Trace estimate within a few percent puts the coefficients close.
        assert np.allclose(
            prec.coefficients.unnormalized(),
            exact.coefficients.unnormalized(),
            rtol=0.1,
        )

    def test_positive_definite_action(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            op = random_spd(rng, n)
            for tau in range(n):
                prec = build_sympoly(op, tau, "exact")
                v = rng.standard_normal(n)
                assert float(prec.apply(op, v) @ v) > 0


class TestApply:
    def test_identity_passthrough(self, rng):
        op = random_spd(rng, 3)
        v = rng.standard_normal(3)
        got = IdentityPreconditioner().apply(op, v)
        assert np.array_equal(got, v)
        # The degree-0 sympoly member is the same constant polynomial 1.
        degree_zero = build_sympoly(op, 0, "exact").apply(op, v)
        assert np.array_equal(degree_zero, got)
        assert op.matvecs == 0

    def test_sympoly_on_basis_vector(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = build_sympoly(op, 1, "exact")
        got = prec.apply(op, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(got * prec.coefficients.scale, [3.0, 0.0, 0.0])

    def test_zero_vector(self, rng):
        op = random_spd(rng, 4)
        prec = build_sympoly(op, 2, "exact")
        assert np.allclose(prec.apply(op, np.zeros(4)), 0.0)


class TestAlphaBeta:
    def test_identity_preconditioner(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        bounds = compute_alpha_beta(IdentityPreconditioner(), op)
        assert bounds.alpha == pytest.approx(1.0)
        assert bounds.beta == pytest.approx(3.0)
        assert bounds.cond == pytest.approx(3.0)

    def test_unnormalized_degree_one(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = PolynomialPreconditioner(PolynomialCoefficients([6.0, -1.0]))
        bounds = compute_alpha_beta(prec, op)
        assert bounds.alpha == pytest.approx(5.0)
        assert bounds.beta == pytest.approx(9.0)

    def test_exact_inverse(self, rng):
        op = random_spd(rng, 5)
        bounds = compute_alpha_beta(inverse_preconditioner(op), op)
        assert bounds.alpha == pytest.approx(1.0, rel=1e-9)
        assert bounds.beta == pytest.approx(1.0, rel=1e-9)

    def test_indefinite_reported(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = PolynomialPreconditioner(PolynomialCoefficients([2.0, -1.0]))
        with pytest.raises(IndefinitePreconditionerError) as excinfo:
            compute_alpha_beta(prec, op)
        assert excinfo.value.alpha < 0

    def test_cond_scale_invariant(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 8))
            op = random_spd(rng, n)
            coeffs = sympoly_coefficients(
                [float(np.sum(spec**k)) for k, spec in
                 [(1, np.sort(np.linalg.eigvalsh(op.to_dense())))] * 1], 1
            )
            base = PolynomialPreconditioner(coeffs)
            scaled = PolynomialPreconditioner(
                PolynomialCoefficients(coeffs.coeffs * 37.5, scale=coeffs.scale)
            )
            c1 = compute_alpha_beta(base, op).cond
            c2 = compute_alpha_beta(scaled, op).cond
            assert c1 == pytest.approx(c2, rel=1e-10)


class TestGamma:
    def test_constant_half(self):
        p = PolynomialCoefficients([0.5])
        assert gamma_of_polynomial(p, [3.0, 2.0, 1.0]) == pytest.approx(0.5)

    def test_exact_inverse_single_point(self):
        p = PolynomialCoefficients([1.0 / 7.0])
        assert gamma_of_polynomial(p, [7.0]) == pytest.approx(0.0, abs=1e-15)

    def test_cutting_example(self):
        p = cutting_polynomial([10.0, 2.0], 1.0, 1)
        assert np.allclose(p.coeffs, [23.0 / 30.0, -1.0 / 15.0])
        assert gamma_of_polynomial(p, [10.0, 2.0, 1.0]) == pytest.approx(0.3)


class TestCutting:
    def test_two_point_spectrum_annihilated(self):
        p = cutting_polynomial([10.0, 1.0], 1.0, 1)
        assert np.allclose(p.coeffs, [1.1, -0.1])
        assert gamma_of_polynomial(p, [10.0, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_degree_zero(self):
        p = cutting_polynomial([10.0], 1.0, 0)
        assert np.allclose(p.coeffs, [2.0 / 11.0])

    def test_bound_over_random_spectra(self, rng):
        # Monomial evaluation at the planted roots carries ~1e-11 rounding
        # residue at higher degrees, so the slack matches the acceptance
        # tolerance rather than the tighter small-degree one below.
        for _ in range(20):
            n = int(rng.integers(3, 12))
            spectrum = np.sort(rng.uniform(0.5, 60.0, n))[::-1]
            tau = int(rng.integers(0, n))
            prec = cutting_preconditioner(spectrum, tau)
            measured = gamma_of_polynomial(prec.coefficients, spectrum)
            lam_edge = spectrum[min(tau, n - 1)]
            bound = (lam_edge - spectrum[-1]) / (lam_edge + spectrum[-1])
            assert measured <= bound + 1e-10

    def test_bound_small_degree_tight(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 8))
            spectrum = np.sort(rng.uniform(0.5, 20.0, n))[::-1]
            tau = int(rng.integers(0, min(4, n)))
            prec = cutting_preconditioner(spectrum, tau)
            measured = gamma_of_polynomial(prec.coefficients, spectrum)
            lam_edge = spectrum[min(tau, n - 1)]
            bound = (lam_edge - spectrum[-1]) / (lam_edge + spectrum[-1])
            assert measured <= bound + 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cutting_polynomial([2.0, -1.0], 0.5, 1)


class TestChebyshev:
    def test_T_examples(self):
        assert chebyshev_T(0, 0.7) == pytest.approx(1.0)
        assert chebyshev_T(2, 0.5) == pytest.approx(-0.5)
        assert chebyshev_T(3, 1.0) == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=12), st.floats(-1.0, 1.0))
    @settings(max_examples=80)
    def test_T_bounded_on_interval(self, k, x):
        assert abs(chebyshev_T(k, x)) <= 1.0 + 1e-12

    def test_degree_zero_polynomial(self):
        p = chebyshev_polynomial(3.0, 1.0, 0)
        assert np.allclose(p.coeffs, [0.5])
        grid = np.linspace(1.0, 3.0, 200)
        assert gamma_of_polynomial(p, grid) == pytest.approx(0.5, abs=1e-12)

    def test_division_exactness(self, rng):
        for _ in range(5):
            lam1 = float(rng.uniform(5.0, 40.0))
            lamn = float(rng.uniform(0.3, 1.5))
            tau = int(rng.integers(0, 9))
            p = chebyshev_polynomial(lam1, lamn, tau)
            assert p.degree == tau
            assert np.all(np.isfinite(p.coeffs))

    def test_bound_on_grid(self, rng):
        for _ in range(10):
            lam1 = float(rng.uniform(5.0, 300.0))
            lamn = float(rng.uniform(0.2, 2.0))
            tau = int(rng.integers(0, 10))
            prec = chebyshev_preconditioner(lam1, lamn, tau)
            grid = np.linspace(lamn, lam1, 1000)
            measured = gamma_of_preconditioner(prec, grid)
            rho = (np.sqrt(lam1) - np.sqrt(lamn)) / (np.sqrt(lam1) + np.sqrt(lamn))
            assert measured <= 2.0 * rho ** (tau + 1) + 1e-10

    def test_high_degree_guarantee(self):
        # Uniform error within eps/2 at the degree picked for eps = 0.1.
        lam1, lamn, eps = 100.0, 1.0, 0.1
        tau = int(np.floor(np.sqrt(lam1 / lamn) * np.log(8.0 / eps)))
        assert tau == 43
        prec = chebyshev_preconditioner(lam1, lamn, tau)
        grid = np.linspace(lamn, lam1, 1000)
        measured = gamma_of_preconditioner(prec, grid)
        rho = (np.sqrt(lam1) - np.sqrt(lamn)) / (np.sqrt(lam1) + np.sqrt(lamn))
        assert measured <= 2.0 * rho ** (tau + 1) + 1e-10
        assert measured <= eps / 2.0

    def test_recurrence_apply_matches_monomial(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 8))
            op = random_spd(rng, n, lam_low=0.5, lam_high=9.0)
            tau = int(rng.integers(0, 7))
            prec = chebyshev_preconditioner(10.0, 0.4, tau)
            v = rng.standard_normal(n)
            via_recurrence = prec.apply(op, v)
            via_monomial = PolynomialPreconditioner(
                chebyshev_polynomial(prec.lam_max, prec.lam_min, prec.tau)
            ).apply(op, v)
            assert np.allclose(via_recurrence, via_monomial, rtol=1e-11, atol=1e-12)

    def test_monomial_cap(self):
        with pytest.raises(ValueError, match="inaccurate"):
            chebyshev_polynomial(10.0, 1.0, 21)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_preconditioner(2.0, 2.0, 3)

    def test_apply_matvec_budget(self, rng):
        op = random_spd(rng, 5)
        prec = chebyshev_preconditioner(9.0, 0.5, 4)
        prec.apply(op, rng.standard_normal(5))
        assert op.matvecs == 4


class TestXi:
    def test_order_zero_is_one(self, rng):
        spectrum = rng.uniform(0.5, 9.0, 7)
        assert xi_tau(spectrum, 0) == pytest.approx(1.0)

    def test_known_321(self):
        assert xi_tau([3.0, 2.0, 1.0], 1) == pytest.approx(3.0 / 5.0)
        assert xi_tau([3.0, 2.0, 1.0], 2) == pytest.approx(1.0 / 3.0)

    def test_gapped(self):
        assert xi_tau([100.0, 1.0, 1.0], 1) == pytest.approx(2.0 / 101.0)

    def test_monotone_and_endpoints(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 13))
            spectrum = np.sort(rng.uniform(0.1, 40.0, n))[::-1]
            xis = [xi_tau(spectrum, tau) for tau in range(n)]
            assert xis[0] == pytest.approx(1.0)
            assert xis[-1] == pytest.approx(spectrum[-1] / spectrum[0], rel=1e-10)
            assert all(b <= a + 1e-12 for a, b in zip(xis, xis[1:]))

    def test_gap_collapse_bounded_by_n(self):
        for gap in (10.0, 100.0, 1000.0):
            n = 24
            spectrum = np.array([gap] + [1.0] * (n - 1))
            assert xi_tau(spectrum, 1) * gap <= n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            xi_tau([2.0, 1.0], 2)


class TestLemmaSpecEquivalence:
    def test_eigen_action_on_random_spd(self, rng):
        # Oracle: complementary symmetric sums via explicit enumeration.
        for _ in range(8):
            n = int(rng.integers(2, 9))
            op = random_spd(rng, n)
            lam, q = np.linalg.eigh(op.to_dense())
            lam = lam[::-1]
            q = q[:, ::-1]
            for tau in range(n):
                traces = [float(np.sum(lam**k)) for k in range(1, tau + 1)]
                coeffs = sympoly_coefficients(traces, tau)
                for i in range(n):
                    sigma = sum(
                        float(np.prod(c))
                        for c in itertools.combinations(np.delete(lam, i), tau)
                    )
                    action = (
                        PolynomialPreconditioner(coeffs).apply(op, q[:, i])
                        * coeffs.scale
                    )
                    err = np.linalg.norm(action - sigma * q[:, i]) / abs(sigma)
                    assert err <= 1e-8


class TestAdjugateIdentity:
    def test_adjugate_small(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            op = random_spd(rng, n, lam_low=0.5, lam_high=20.0)
            mat = op.to_dense()
            prec = build_sympoly(op, n - 1, "exact")
            built = np.zeros((n, n))
            power = np.eye(n)
            for c in prec.coefficients.unnormalized():
                built += c * power
                power = power @ mat
            target = np.linalg.det(mat) * np.linalg.inv(mat)
            err = np.linalg.norm(built - target) / np.linalg.norm(target)
            assert err <= 1e-8


class TestSandwich:
    def test_preconditioned_spectrum_between_bounds(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            op = random_spd(rng, n)
            lam = np.sort(np.linalg.eigvalsh(op.to_dense()))[::-1]
            tau = int(rng.integers(0, n))
            prec = build_sympoly(op, tau, "exact")
            vals = lam * prec.eval_at(lam) * prec.coefficients.scale
            lower = lam[-1] * sum(
                float(np.prod(c)) for c in itertools.combinations(lam[:-1], tau)
            )
            upper = lam[0] * sum(
                float(np.prod(c)) for c in itertools.combinations(lam[1:], tau)
            )
            assert np.all(vals >= lower - 1e-9 * upper)
            assert np.all(vals <= upper * (1.0 + 1e-9))


class TestDescriptors:
    def test_round_trip_forms(self, rng):
        op = random_spd(rng, 6)
        for text in ("identity", "sympoly:2", "chebyshev:3", "cutting:2", "inverse"):
            prec = build_from_descriptor(text, op)
            assert prec.descriptor.startswith(text.split(":")[0])
            v = rng.standard_normal(6)
            assert np.all(np.isfinite(prec.apply(op, v)))

    def test_unknown_rejected(self, rng):
        op = random_spd(rng, 3)
        with pytest.raises(ValueError, match="unknown"):
            build_from_descriptor("ssor:2", op)

    def test_stochastic_sample_count_and_seed(self):
        assert parse_descriptor("sympoly:2:stochastic") == ("sympoly:stochastic", [2])
        assert parse_descriptor(" sympoly:2:stochastic:8:5 ") == ("sympoly:stochastic", [2, 8, 5])
        assert parse_descriptor("cutting:3") == ("cutting", [3])
