import itertools

import numpy as np
import pytest

from polyprec import (
    ChebyshevPreconditioner,
    DenseOperator,
    IdentityPreconditioner,
    GramOperator,
    IndefinitePreconditionerError,
    MatrixPreconditioner,
    MatvecOperator,
    PolynomialPreconditioner,
    build_from_descriptor,
    compute_alpha_beta,
    cutting_preconditioner,
    exact_traces,
    gamma_of_polynomial,
    inverse_preconditioner,
    parse_descriptor,
    spectral_decomposition,
    stochastic_traces,
    sympoly_coefficients,
    xi_tau,
)
from conftest import (
    GAPPED_SPECTRUM,
    chebyshev_monomial,
    convolve_cutting_coefficients,
    random_spd,
    seeded_spectra,
)


class TestSympolyCoefficients:
    def test_degree_zero(self):
        p = sympoly_coefficients([], 0)
        assert np.allclose(p.coeffs, [1.0])
        assert p.scale == 1.0

    def test_degree_one(self):
        p = sympoly_coefficients([6.0], 1)
        assert np.allclose(p.coeffs * p.scale, [6.0, -1.0])

    def test_degree_two(self):
        p = sympoly_coefficients([6.0, 14.0], 2)
        assert np.allclose(p.coeffs * p.scale, [11.0, -6.0, 1.0])

    def test_normalization(self):
        p = sympoly_coefficients([6.0, 14.0], 2)
        assert np.max(np.abs(p.coeffs)) == pytest.approx(1.0)
        assert p.scale == pytest.approx(11.0)

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            sympoly_coefficients([], -1)


class TestBuildSympoly:
    """The sympoly descriptor forms: the trace recursion on exact or estimated traces."""

    @staticmethod
    def assert_same(built, expected):
        assert np.array_equal(built.coeffs, expected.coeffs)
        assert built.scale == expected.scale

    def test_exact_form_is_the_recursion_of_exact_traces(self, rng):
        op = random_spd(rng, 5)
        for tau in range(op.dim):
            traces = exact_traces(op, tau) if tau else np.empty(0)
            expected = sympoly_coefficients(traces, tau)
            self.assert_same(build_from_descriptor(f"sympoly:{tau}", op), expected)

    def test_stochastic_form_defaults_to_256_samples_from_seed_0(self, rng):
        op = random_spd(rng, 5)
        for tau in range(1, op.dim):
            expected = sympoly_coefficients(stochastic_traces(op, tau, 256, 0), tau)
            for text in (f"sympoly:{tau}:stochastic", f"sympoly:{tau}:stochastic:256"):
                self.assert_same(build_from_descriptor(text, op), expected)
            expected = sympoly_coefficients(stochastic_traces(op, tau, 8, 0), tau)
            self.assert_same(build_from_descriptor(f"sympoly:{tau}:stochastic:8", op), expected)

    def test_degree_zero_takes_no_traces(self, rng):
        op = random_spd(rng, 4)
        for text in ("sympoly:0", "sympoly:0:stochastic:8:3"):
            self.assert_same(build_from_descriptor(text, op), sympoly_coefficients([], 0))
        assert op.matvecs == 0

    def test_action_matches_complement_sums(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = build_from_descriptor("sympoly:2", op)
        got = prec.apply(op, np.ones(3)) * prec.scale
        assert np.allclose(got, [2.0, 3.0, 6.0])

    def test_identity_operator(self):
        op = DenseOperator(np.eye(3))
        prec = build_from_descriptor("sympoly:1", op)
        got = prec.apply(op, np.ones(3)) * prec.scale
        assert np.allclose(got, 2.0 * np.ones(3))

    def test_top_degree_is_scaled_inverse(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = build_from_descriptor("sympoly:2", op)
        got = prec.apply(op, np.ones(3)) * prec.scale
        assert np.allclose(got, [2.0, 3.0, 6.0])  # det(B) * inv(B) @ 1

    def test_tau_beyond_dim_rejected(self):
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="^degree 3 of 'sympoly:3' exceeds n-1=2$"):
            build_from_descriptor("sympoly:3", op)

    def test_exact_mode_needs_dense(self):
        op = MatvecOperator(3, lambda v: v)
        with pytest.raises(ValueError, match="dense"):
            build_from_descriptor("sympoly:1", op)

    def test_stochastic_mode_is_seeded(self, rng):
        op = random_spd(rng, 4)
        prec = build_from_descriptor("sympoly:2:stochastic:64:5", op)
        again = build_from_descriptor("sympoly:2:stochastic:64:5", op)
        assert np.array_equal(prec.coeffs, again.coeffs)
        other = build_from_descriptor("sympoly:2:stochastic:64:6", op)
        assert not np.array_equal(prec.coeffs, other.coeffs)

    def test_stochastic_mode_works_matrix_free(self, rng):
        dense = random_spd(rng, 5)
        free = MatvecOperator(5, lambda v: dense.to_dense() @ v)
        prec = build_from_descriptor("sympoly:1:stochastic:4096:9", free)
        exact = build_from_descriptor("sympoly:1", dense)
        # Trace estimate within a few percent puts the coefficients close.
        assert np.allclose(
            prec.coeffs * prec.scale,
            exact.coeffs * exact.scale,
            rtol=0.1,
        )

    def test_positive_definite_action(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            op = random_spd(rng, n)
            for tau in range(n):
                prec = build_from_descriptor(f"sympoly:{tau}", op)
                v = rng.standard_normal(n)
                assert float(prec.apply(op, v) @ v) > 0


class TestApply:
    def test_identity_passthrough(self, rng):
        op = random_spd(rng, 3)
        v = rng.standard_normal(3)
        got = IdentityPreconditioner().apply(op, v)
        assert np.array_equal(got, v)
        # The degree-0 sympoly member is the same constant polynomial 1.
        degree_zero = build_from_descriptor("sympoly:0", op).apply(op, v)
        assert np.array_equal(degree_zero, got)
        assert op.matvecs == 0

    def test_sympoly_on_basis_vector(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = build_from_descriptor("sympoly:1", op)
        got = prec.apply(op, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(got * prec.scale, [3.0, 0.0, 0.0])

    def test_zero_vector(self, rng):
        op = random_spd(rng, 4)
        prec = build_from_descriptor("sympoly:2", op)
        assert np.allclose(prec.apply(op, np.zeros(4)), 0.0)


class TestAlphaBeta:
    def test_identity_preconditioner(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        bounds = compute_alpha_beta(IdentityPreconditioner(), op)
        assert bounds.alpha == pytest.approx(1.0)
        assert bounds.beta == pytest.approx(3.0)
        assert bounds.beta / bounds.alpha == pytest.approx(3.0)

    def test_unnormalized_degree_one(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = PolynomialPreconditioner([6.0, -1.0])
        bounds = compute_alpha_beta(prec, op)
        assert bounds.alpha == pytest.approx(5.0)
        assert bounds.beta == pytest.approx(9.0)

    def test_exact_inverse(self, rng):
        op = random_spd(rng, 5)
        bounds = compute_alpha_beta(inverse_preconditioner(op), op)
        assert bounds.alpha == pytest.approx(1.0, rel=1e-9)
        assert bounds.beta == pytest.approx(1.0, rel=1e-9)

    def test_inverse_of_rank_deficient_operator_reported(self):
        # A feature that never occurs: one Gram eigenvalue is zero up to rounding.
        # On the operator's range the pseudo-inverse is exact.
        design = np.random.default_rng(3).standard_normal((30, 6))
        design[:, 2] = 0.0
        op = GramOperator(design)
        bounds = compute_alpha_beta(inverse_preconditioner(op), op)
        assert bounds.alpha == pytest.approx(1.0, abs=1e-12)
        assert bounds.beta == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_singular_gram_judged_on_its_range(self, seed):
        # The zero eigenvalue rounds to either sign; neither may decide alpha.
        design = np.random.default_rng(seed).standard_normal((30, 6))
        design[:, 2] = 0.0
        lam = np.linalg.eigvalsh(design.T @ design)
        smallest = lam[lam > lam.max() * lam.size * np.finfo(float).eps].min()
        bounds = compute_alpha_beta(IdentityPreconditioner(), GramOperator(design))
        assert bounds.alpha == pytest.approx(smallest, rel=1e-12)

    def test_indefinite_reported(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        prec = PolynomialPreconditioner([2.0, -1.0])
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
            scaled = PolynomialPreconditioner(coeffs.coeffs * 37.5, coeffs.scale)
            b1 = compute_alpha_beta(coeffs, op)
            b2 = compute_alpha_beta(scaled, op)
            assert b1.beta / b1.alpha == pytest.approx(b2.beta / b2.alpha, rel=1e-10)


class TestGamma:
    def test_constant_half(self):
        p = PolynomialPreconditioner([0.5])
        assert gamma_of_polynomial(p, [3.0, 2.0, 1.0]) == pytest.approx(0.5)

    def test_exact_inverse_single_point(self):
        p = PolynomialPreconditioner([1.0 / 7.0])
        assert gamma_of_polynomial(p, [7.0]) == pytest.approx(0.0, abs=1e-15)

    def test_cutting_example(self):
        p = cutting_preconditioner([10.0, 2.0, 1.0], 1)
        assert np.allclose(p.coeffs, [23.0 / 30.0, -1.0 / 15.0])
        assert gamma_of_polynomial(p, [10.0, 2.0, 1.0]) == pytest.approx(0.3)


class TestCutting:
    def test_two_point_spectrum_annihilated(self):
        p = cutting_preconditioner([10.0, 1.0], 1)
        assert np.allclose(p.coeffs, [1.1, -0.1])
        assert gamma_of_polynomial(p, [10.0, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_degree_zero(self):
        p = cutting_preconditioner([10.0, 1.0], 0)
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
            measured = gamma_of_polynomial(prec, spectrum)
            lam_edge = spectrum[min(tau, n - 1)]
            bound = (lam_edge - spectrum[-1]) / (lam_edge + spectrum[-1])
            assert measured <= bound + 1e-10

    def test_bound_small_degree_tight(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 8))
            spectrum = np.sort(rng.uniform(0.5, 20.0, n))[::-1]
            tau = int(rng.integers(0, min(4, n)))
            prec = cutting_preconditioner(spectrum, tau)
            measured = gamma_of_polynomial(prec, spectrum)
            lam_edge = spectrum[min(tau, n - 1)]
            bound = (lam_edge - spectrum[-1]) / (lam_edge + spectrum[-1])
            assert measured <= bound + 1e-12

    @staticmethod
    def _assert_matches_convolution(spectrum):
        for tau in range(spectrum.size):
            prec = cutting_preconditioner(spectrum, tau)
            assert prec.scale == 1.0
            assert np.array_equal(prec.coeffs, convolve_cutting_coefficients(spectrum, tau))

    def test_matches_convolution_bitwise(self):
        for spectrum in seeded_spectra(25):
            self._assert_matches_convolution(spectrum)

    def test_matches_convolution_on_gapped_spectrum(self):
        self._assert_matches_convolution(GAPPED_SPECTRUM)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            cutting_preconditioner([2.0, 0.5, -1.0], 1)

    def test_rejects_ascending(self):
        with pytest.raises(ValueError, match="descending"):
            cutting_preconditioner([1.0, 2.0, 3.0], 1)


class TestChebyshev:
    def test_degree_zero_polynomial(self):
        p = ChebyshevPreconditioner(3.0, 1.0, 0)
        grid = np.linspace(1.0, 3.0, 200)
        assert np.allclose(p.eval_at(grid), 0.5)
        assert gamma_of_polynomial(p, grid) == pytest.approx(0.5, abs=1e-12)

    def test_bound_on_grid(self, rng):
        for _ in range(10):
            lam1 = float(rng.uniform(5.0, 300.0))
            lamn = float(rng.uniform(0.2, 2.0))
            tau = int(rng.integers(0, 10))
            prec = ChebyshevPreconditioner(lam1, lamn, tau)
            grid = np.linspace(lamn, lam1, 1000)
            measured = gamma_of_polynomial(prec, grid)
            rho = (np.sqrt(lam1) - np.sqrt(lamn)) / (np.sqrt(lam1) + np.sqrt(lamn))
            assert measured <= 2.0 * rho ** (tau + 1) + 1e-10

    def test_high_degree_guarantee(self):
        # Uniform error within eps/2 at the degree picked for eps = 0.1.
        lam1, lamn, eps = 100.0, 1.0, 0.1
        tau = int(np.floor(np.sqrt(lam1 / lamn) * np.log(8.0 / eps)))
        assert tau == 43
        prec = ChebyshevPreconditioner(lam1, lamn, tau)
        grid = np.linspace(lamn, lam1, 1000)
        measured = gamma_of_polynomial(prec, grid)
        rho = (np.sqrt(lam1) - np.sqrt(lamn)) / (np.sqrt(lam1) + np.sqrt(lamn))
        assert measured <= 2.0 * rho ** (tau + 1) + 1e-10
        assert measured <= eps / 2.0

    def test_recurrence_apply_matches_monomial(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 8))
            op = random_spd(rng, n, lam_low=0.5, lam_high=9.0)
            tau = int(rng.integers(0, 7))
            prec = ChebyshevPreconditioner(10.0, 0.4, tau)
            v = rng.standard_normal(n)
            via_recurrence = prec.apply(op, v)
            via_monomial = chebyshev_monomial(prec.lam_max, prec.lam_min, prec.tau).apply(op, v)
            assert np.allclose(via_recurrence, via_monomial, rtol=1e-11, atol=1e-12)

    def test_scalar_form_types_and_shapes(self, rng):
        # The types and shapes ``polyval`` gives; the values are the monomial
        # form's at a degree where its expansion is still accurate.
        prec = ChebyshevPreconditioner(10.0, 0.4, 5)
        monomial = chebyshev_monomial(10.0, 0.4, 5)
        points = rng.uniform(0.4, 10.0, 6)
        grid = points.reshape(2, 3)
        for s in (float(points[0]), np.array(points[1]), points, list(points), grid):
            got = prec.eval_at(s)
            expected = np.polynomial.polynomial.polyval(s, monomial.coeffs)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_scalar_form_of_empty_input_is_empty(self):
        for prec in (ChebyshevPreconditioner(10.0, 0.4, 3), PolynomialPreconditioner([1.0, 2.0])):
            for s in ([], np.empty(0), np.empty((0, 3))):
                got = prec.eval_at(s)
                assert isinstance(got, np.ndarray)
                assert got.dtype == float
                assert got.shape == np.shape(s)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            ChebyshevPreconditioner(2.0, 2.0, 3)

    def test_apply_matvec_budget(self, rng):
        op = random_spd(rng, 5)
        prec = ChebyshevPreconditioner(9.0, 0.5, 4)
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
                prec = sympoly_coefficients(traces, tau)
                for i in range(n):
                    sigma = sum(
                        float(np.prod(c))
                        for c in itertools.combinations(np.delete(lam, i), tau)
                    )
                    action = prec.apply(op, q[:, i]) * prec.scale
                    err = np.linalg.norm(action - sigma * q[:, i]) / abs(sigma)
                    assert err <= 1e-8


class TestAdjugateIdentity:
    def test_adjugate_small(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            op = random_spd(rng, n, lam_low=0.5, lam_high=20.0)
            mat = op.to_dense()
            prec = build_from_descriptor(f"sympoly:{n - 1}", op)
            built = np.zeros((n, n))
            power = np.eye(n)
            for c in prec.coeffs * prec.scale:
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
            prec = build_from_descriptor(f"sympoly:{tau}", op)
            vals = lam * prec.eval_at(lam) * prec.scale
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
        kinds = {
            "identity": IdentityPreconditioner,
            "sympoly:2": PolynomialPreconditioner,
            "chebyshev:3": ChebyshevPreconditioner,
            "cutting:2": PolynomialPreconditioner,
            "inverse": MatrixPreconditioner,
        }
        for text, kind in kinds.items():
            prec = build_from_descriptor(text, op)
            assert type(prec) is kind
            if kind is PolynomialPreconditioner:
                assert prec.coeffs.size - 1 == parse_descriptor(text)[1][0]
            v = rng.standard_normal(6)
            assert np.all(np.isfinite(prec.apply(op, v)))

    @pytest.mark.parametrize(
        "text",
        ["identity", "sympoly:3", "sympoly:3:stochastic:16:2", "chebyshev:4", "cutting:3",
         "inverse"],
    )
    def test_scalar_form_is_the_eigen_action(self, rng, text):
        op = random_spd(rng, 6)
        prec = build_from_descriptor(text, op)
        dec = spectral_decomposition(op)
        for lam_i, q_i in zip(dec.eigenvalues, dec.eigenvectors.T):
            expected = prec.eval_at(lam_i) * q_i
            assert np.allclose(prec.apply(op, q_i), expected, rtol=1e-9, atol=1e-12)

    def test_unknown_rejected(self, rng):
        op = random_spd(rng, 3)
        with pytest.raises(ValueError, match="unknown"):
            build_from_descriptor("ssor:2", op)

    def test_stochastic_sample_count_and_seed(self):
        assert parse_descriptor("sympoly:2:stochastic") == ("sympoly:stochastic", [2, 256, 0])
        assert parse_descriptor(" sympoly:2:stochastic:8:5 ") == ("sympoly:stochastic", [2, 8, 5])
        assert parse_descriptor("cutting:3") == ("cutting", [3])

    def test_degree_cap_belongs_to_the_form(self):
        # Given n, sympoly and cutting cap their degree at n - 1; chebyshev does not.
        assert parse_descriptor("sympoly:2:stochastic:8", 3) == ("sympoly:stochastic", [2, 8, 0])
        assert parse_descriptor("chebyshev:9", 3) == ("chebyshev", [9])
        for text in ("sympoly:3", "sympoly:3:stochastic", "cutting:3"):
            with pytest.raises(ValueError, match=f"^degree 3 of '{text}' exceeds n-1=2$"):
                parse_descriptor(text, 3)
            assert parse_descriptor(text)[1][0] == 3
