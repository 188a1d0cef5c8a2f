import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprec import (
    DenseOperator,
    GramOperator,
    HuberLoss,
    MatvecOperator,
    PolynomialPreconditioner,
    build_from_descriptor,
    compute_alpha_beta,
    elementary_symmetric,
    exact_traces,
    inverse_preconditioner,
    lanczos,
    spectral_decomposition,
    stochastic_traces,
    synth_regression,
)
from polyprec.operators import SpectralDecomposition
from conftest import (
    GAPPED_SPECTRUM,
    prefix_elementary_symmetric,
    random_spd,
    seeded_spectra,
)


class TestMatvec:
    def test_diagonal_action(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(op.matvec(np.ones(3)), [3.0, 2.0, 1.0])

    def test_zero_vector(self, rng):
        op = random_spd(rng, 5)
        assert np.allclose(op.matvec(np.zeros(5)), 0.0)

    def test_direct_2x2(self):
        op = DenseOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(op.matvec(np.array([1.0, -1.0])), [1.0, -1.0])

    def test_counter_increments(self, rng):
        op = random_spd(rng, 4)
        op.matvec(np.ones(4))
        op.matvec(np.ones(4))
        assert op.matvecs == 2

    def test_dimension_mismatch(self, rng):
        op = random_spd(rng, 4)
        with pytest.raises(ValueError, match="dimension"):
            op.matvec(np.ones(5))

    def test_symmetry_all_kinds(self, rng):
        dense = random_spd(rng, 6)
        gram = GramOperator(rng.standard_normal((9, 6)))
        wrapped = MatvecOperator(6, lambda v: dense.to_dense() @ v)
        for op in (dense, gram, wrapped):
            for _ in range(5):
                u = rng.standard_normal(6)
                v = rng.standard_normal(6)
                lhs = float(op.matvec(u) @ v)
                rhs = float(u @ op.matvec(v))
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            DenseOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGramOperator:
    def test_tall_design_applies_cached_gram(self, rng):
        design = rng.standard_normal((60, 8))
        op = GramOperator(design)
        v = rng.standard_normal(8)
        expected = design.T @ (design @ v)
        first = op.matvec(v)
        assert np.linalg.norm(first - expected) <= 1e-12 * np.linalg.norm(expected)
        assert op.matvecs == 1
        # Later products come from the n x n Gram, not from the design.
        op.design = np.full_like(design, np.nan)
        second = op.matvec(v)
        assert np.all(np.isfinite(second))
        assert np.array_equal(second, first)
        assert op.matvecs == 2

    def test_square_design_applies_design(self, rng):
        design = rng.standard_normal((8, 8))
        op = GramOperator(design)
        v = rng.standard_normal(8)
        assert np.array_equal(op.matvec(v), design.T @ (design @ v))
        op.design = np.full_like(design, np.nan)
        assert np.all(np.isnan(op.matvec(v)))
        assert op.matvecs == 2


class TestApplyPolynomial:
    def test_constant_is_identity(self, rng):
        op = random_spd(rng, 4)
        v = rng.standard_normal(4)
        p = PolynomialPreconditioner([1.0])
        assert np.allclose(p.apply(op, v), v)
        assert op.matvecs == 0

    def test_trace_shifted(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        p = PolynomialPreconditioner([6.0, -1.0])
        assert np.allclose(p.apply(op, np.ones(3)), [3.0, 4.0, 5.0])

    def test_degree_two(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        p = PolynomialPreconditioner([11.0, -6.0, 1.0])
        assert np.allclose(p.apply(op, np.ones(3)), [2.0, 3.0, 6.0])

    def test_matvec_budget_is_degree(self, rng):
        op = random_spd(rng, 5)
        p = PolynomialPreconditioner(rng.standard_normal(5))
        p.apply(op, rng.standard_normal(5))
        assert op.matvecs == 4

    def test_matches_power_accumulation(self, rng):
        # Oracle: explicit sum of matrix powers.
        for _ in range(10):
            n = int(rng.integers(2, 9))
            op = random_spd(rng, n)
            degree = int(rng.integers(0, 7))
            coeffs = rng.standard_normal(degree + 1)
            v = rng.standard_normal(n)
            expected = np.zeros(n)
            power = np.eye(n)
            for c in coeffs:
                expected += c * (power @ v)
                power = power @ op.to_dense()
            got = PolynomialPreconditioner(coeffs).apply(op, v)
            assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


class TestPolynomialEvaluation:
    @pytest.mark.parametrize("degree", range(9))
    def test_horner_is_polyval_bit_for_bit(self, rng, degree):
        p = PolynomialPreconditioner(rng.standard_normal(degree + 1))
        points = rng.uniform(-3.0, 3.0, 6)
        for s in (float(points[0]), np.array(points[1]), points, list(points)):
            got = p.eval_at(s)
            expected = np.polynomial.polynomial.polyval(s, p.coeffs)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestLanczos:
    @given(
        n=st.integers(min_value=1, max_value=9),
        steps=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cond=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_basis_and_projection(self, n, steps, seed, cond):
        local = np.random.default_rng(seed)
        op = random_spd(local, n, lam_low=1.0, lam_high=cond)
        v = local.standard_normal(n)
        Q, T = lanczos(op, v, steps)
        m = Q.shape[1]
        assert 1 <= m <= min(steps, n)
        assert op.matvecs == m
        assert T.shape == (m, m)
        assert np.allclose(Q.T @ Q, np.eye(m), atol=1e-10)
        assert np.allclose(Q[:, 0], v / np.linalg.norm(v))
        assert np.allclose(T, Q.T @ op.to_dense() @ Q, atol=1e-10 * cond)
        assert np.array_equal(T, np.triu(np.tril(T, 1), -1))
        assert np.array_equal(T, T.T)

    def test_eigenvector_start_gives_one_column(self, rng):
        op = random_spd(rng, 6)
        dec = spectral_decomposition(op)
        Q, T = lanczos(op, 3.0 * dec.eigenvectors[:, 2], 4)
        assert Q.shape == (6, 1)
        assert op.matvecs == 1
        assert T[0, 0] == pytest.approx(dec.eigenvalues[2])

    def test_zero_start_gives_empty_basis(self, rng):
        op = random_spd(rng, 4)
        Q, T = lanczos(op, np.zeros(4), 3)
        assert Q.shape == (4, 0) and T.shape == (0, 0)
        assert op.matvecs == 0

    def test_full_space_stops_at_dimension(self, rng):
        op = random_spd(rng, 5)
        Q, T = lanczos(op, rng.standard_normal(5), 9)
        assert Q.shape == (5, 5)
        assert np.allclose(np.linalg.eigvalsh(T), np.linalg.eigvalsh(op.to_dense()))

    def test_rejects_no_steps(self, rng):
        with pytest.raises(ValueError, match="steps"):
            lanczos(random_spd(rng, 3), np.ones(3), 0)


class TestTraces:
    def test_diag_321(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(exact_traces(op, 2), [6.0, 14.0])

    def test_identity_powers(self):
        op = DenseOperator(np.eye(4))
        assert np.allclose(exact_traces(op, 3), [4.0, 4.0, 4.0])

    def test_diag_12(self):
        op = DenseOperator(np.diag([1.0, 2.0]))
        assert np.allclose(exact_traces(op, 1), [3.0])

    def test_matrix_free_rejected(self):
        op = MatvecOperator(3, lambda v: v)
        with pytest.raises(ValueError, match="dense"):
            exact_traces(op, 2)


class TestStochasticTrace:
    def test_scaled_identity_exact(self):
        op = DenseOperator(2.5 * np.eye(6))
        assert stochastic_traces(op, 1, samples=3, seed=0)[-1] == pytest.approx(15.0)

    def test_montecarlo_close(self):
        op = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        est = stochastic_traces(op, 1, samples=100_000, seed=7)[-1]
        assert abs(est - 6.0) <= 0.02 * 6.0

    def test_deterministic(self, rng):
        op = random_spd(rng, 5)
        a = stochastic_traces(op, 2, samples=1, seed=3)[-1]
        b = stochastic_traces(op, 2, samples=1, seed=3)[-1]
        assert a == b

    def test_unbiased_within_three_se(self):
        op = DenseOperator(np.diag([5.0, 2.0, 1.0, 0.5]))
        rng = np.random.default_rng(11)
        n = op.dim
        draws = rng.standard_normal((100_000, n))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        per_sample = n * np.einsum("ij,ij->i", draws @ op.to_dense(), draws)
        se = per_sample.std(ddof=1) / np.sqrt(per_sample.size)
        est = stochastic_traces(op, 1, samples=100_000, seed=11)[-1]
        assert abs(est - 8.5) <= 3.0 * se


def _unscaled(values, k_max):
    sigma, scale = elementary_symmetric(values, k_max)
    return sigma * scale ** np.arange(sigma.size)


class TestElementarySymmetric:
    def test_known_321(self):
        assert np.allclose(_unscaled([3.0, 2.0, 1.0], 3), [1.0, 6.0, 11.0, 6.0])

    def test_known_21(self):
        assert np.allclose(_unscaled([2.0, 1.0], 2), [1.0, 3.0, 2.0])

    def test_order_zero(self, rng):
        values = rng.uniform(0.5, 3.0, 6)
        sigma, _ = elementary_symmetric(values, 0)
        assert sigma[0] == 1.0

    def test_k_max_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            elementary_symmetric([1.0, 2.0], 3)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=7)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, values):
        k_max = len(values)
        sums = _unscaled(values, k_max)
        for k in range(k_max + 1):
            expected = sum(
                float(np.prod(c)) for c in itertools.combinations(values, k)
            )
            assert sums[k] == pytest.approx(expected, rel=1e-10)

    def test_newton_girard_crosscheck(self, rng):
        # sigma rebuilt from power sums must match the direct recurrence.
        for _ in range(20):
            m = int(rng.integers(1, 9))
            values = rng.uniform(0.2, 6.0, m)
            direct = _unscaled(values, m)
            power_sums = [float(np.sum(values**i)) for i in range(1, m + 1)]
            rebuilt = [1.0]
            for k in range(1, m + 1):
                total = 0.0
                for i in range(1, k + 1):
                    total += (-1) ** (i - 1) * rebuilt[k - i] * power_sums[i - 1]
                rebuilt.append(total / k)
            assert np.allclose(direct, rebuilt, rtol=1e-9)

    def test_empty_input(self):
        sigma, scale = elementary_symmetric([], 0)
        assert np.array_equal(sigma, [1.0]) and scale == 1.0

    def _assert_matches_prefix_recurrence(self, values):
        ref_sigma, ref_scale = prefix_elementary_symmetric(values, values.size)
        for k in range(values.size + 1):
            sigma, scale = elementary_symmetric(values, k)
            assert scale == ref_scale
            assert np.array_equal(sigma, ref_sigma[: k + 1])

    def test_matches_prefix_recurrence_bitwise(self):
        for values in seeded_spectra(25):
            self._assert_matches_prefix_recurrence(values)

    def test_matches_prefix_recurrence_on_gapped_spectrum(self):
        # The full spectrum and the two that xi_tau removes an end from.
        for values in (GAPPED_SPECTRUM, GAPPED_SPECTRUM[1:], GAPPED_SPECTRUM[:-1]):
            self._assert_matches_prefix_recurrence(values)


class TestSpectralDecomposition:
    def test_diagonal_input(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        dec = spectral_decomposition(op)
        assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, ::-1])

    def test_2x2_exact(self):
        op = DenseOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        dec = spectral_decomposition(op)
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])

    def test_identity(self):
        op = DenseOperator(np.eye(5))
        assert np.allclose(spectral_decomposition(op).eigenvalues, 1.0)

    def test_one_eigh_per_operator(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        descriptors = ("sympoly:2", "cutting:2", "chebyshev:3", "inverse")
        for descriptor in descriptors:
            op = random_spd(rng, 6)
            compute_alpha_beta(build_from_descriptor(descriptor, op), op)
            compute_alpha_beta(inverse_preconditioner(op), op)
            exact_traces(op, 3)
        assert calls == [(6, 6)] * len(descriptors)

    def test_zero_operator_has_no_range(self):
        # An all-zero design: no eigenvalue is above the rounding cutoff.
        dec = spectral_decomposition(GramOperator(np.zeros((4, 3))))
        for read in ("lam_min", "range_eigenvalues"):
            with pytest.raises(ValueError, match="range is empty"):
                getattr(dec, read)

    def test_kept_arrays_are_read_only(self, rng):
        op = random_spd(rng, 4)
        dec = spectral_decomposition(op)
        assert spectral_decomposition(op) is dec
        with pytest.raises(ValueError, match="read-only"):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            dec.eigenvectors[:, 0] *= 2.0

    def test_known_decomposition_is_kept(self, monkeypatch):
        q = np.array([[0.6, -0.8], [0.8, 0.6]])
        lam = np.array([4.0, 1.0])
        design = np.sqrt(lam)[:, None] * q.T
        known = SpectralDecomposition(eigenvalues=lam, eigenvectors=q)
        monkeypatch.setattr(np.linalg, "eigh", None)
        op = GramOperator(design, known)
        assert spectral_decomposition(op) is known
        assert np.allclose(exact_traces(op, 2), [5.0, 17.0])
        with pytest.raises(ValueError, match="does not match operator dimension 2"):
            GramOperator(design, SpectralDecomposition(lam[:1], q[:, :1]))

    def test_invariants_vs_numpy(self, rng):
        # Checked against numpy's eigvalsh as an independent oracle: random
        # inputs, whose decomposition is computed, and the gapped Gram (98 equal
        # eigenvalues through a tall design), whose decomposition is the planted one.
        cases = [
            random_spd(rng, int(rng.integers(2, 30)), lam_low=0.1, lam_high=100.0)
            for _ in range(10)
        ]
        gapped = synth_regression((1000, 300, 1, 100), HuberLoss(0.1), seed=204, rows=300)
        cases.append(gapped.curvature)
        for op in cases:
            dec = spectral_decomposition(op)
            q = dec.eigenvectors
            assert np.all(np.diff(dec.eigenvalues) <= 0.0)
            assert np.allclose(q.T @ q, np.eye(op.dim), atol=1e-9)
            recon = q @ np.diag(dec.eigenvalues) @ q.T
            assert np.allclose(recon, op.to_dense(), rtol=1e-8, atol=1e-8)
            assert np.allclose(
                dec.eigenvalues,
                np.sort(np.linalg.eigvalsh(op.to_dense()))[::-1],
                rtol=1e-10,
                atol=0.0,
            )
