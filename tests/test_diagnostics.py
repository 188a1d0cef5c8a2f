import json

import numpy as np
import pytest

import polyprec.diagnostics
from polyprec import (
    DenseOperator,
    IdentityPreconditioner,
    PolynomialPreconditioner,
    SolverConfig,
    build_from_descriptor,
    compute_alpha_beta,
    fgm_envelopes,
    gm_envelopes,
    krylov_envelope,
    make_quadratic,
    proposition_bounds,
    run_fgm,
    run_gm,
    run_krylov_gm,
    run_verification_suite,
    verify_adjugate,
    verify_lemma_spec,
    verify_sandwich,
    volume_sampling_expectation,
    xi_table,
)
from polyprec.diagnostics import _dense_polynomial, _volume_expectation
from conftest import random_spd


class TestLemmaSpecVerifier:
    def test_diag_degree_one(self):
        B = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        assert verify_lemma_spec(B, 1) <= 1e-10

    def test_diag_degree_two(self):
        B = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        assert verify_lemma_spec(B, 2) <= 1e-10

    def test_degree_zero_trivial(self, rng):
        B = random_spd(rng, 5)
        assert verify_lemma_spec(B, 0) <= 1e-12

    def test_report_serializes(self):
        report = run_verification_suite(seed=0)[0]
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["check"] == "lemma-spec-batch"
        assert payload["pass"] is True
        assert 0.0 <= payload["max_slack"] <= 1e-8


class TestAdjugateVerifier:
    def test_diag(self):
        B = DenseOperator(np.diag([3.0, 2.0, 1.0]))
        assert verify_adjugate(B) <= 1e-10

    def test_identity(self):
        B = DenseOperator(np.eye(4))
        assert verify_adjugate(B) <= 1e-12

    def test_random(self, rng):
        B = random_spd(rng, 5, lam_low=0.5, lam_high=20.0)
        assert verify_adjugate(B) <= 1e-8


class TestSandwichVerifier:
    def test_random_batch(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            B = random_spd(rng, n)
            tau = int(rng.integers(0, n))
            assert verify_sandwich(B, tau) <= 1e-9


class TestVolumeSampling:
    def test_diag_12_m1(self):
        B = DenseOperator(np.diag([1.0, 2.0]))
        assert np.allclose(_volume_expectation(B.to_dense(), 1), np.diag([1.0 / 3.0, 1.0 / 3.0]))
        assert volume_sampling_expectation(B, 1) <= 1e-12

    def test_diag_12_m2(self):
        B = DenseOperator(np.diag([1.0, 2.0]))
        expectation = _volume_expectation(B.to_dense(), 2)
        assert np.allclose(expectation, np.diag([1.0, 0.5]))
        # The proportionality constant to the unnormalized degree-1 member is 1/2.
        reference = _dense_polynomial(build_from_descriptor("sympoly:1", B), B)
        assert np.allclose(expectation, 0.5 * reference)
        assert volume_sampling_expectation(B, 2) <= 1e-12

    def test_full_subset_is_inverse(self, rng):
        B = random_spd(rng, 4, lam_low=0.5, lam_high=6.0)
        expectation = _volume_expectation(B.to_dense(), 4)
        assert np.allclose(expectation, np.linalg.inv(B.to_dense()), rtol=1e-9)
        assert volume_sampling_expectation(B, 4) <= 1e-10

    def test_random_batch_proportional(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 7))
            B = random_spd(rng, n, lam_low=0.5, lam_high=5.0)
            m = int(rng.integers(1, min(4, n) + 1))
            assert volume_sampling_expectation(B, m) <= 1e-10


class TestWrongConstructionCaught:
    """Each identity check fails on a sympoly member with its constant doubled."""

    @pytest.fixture(autouse=True)
    def doubled_constant(self, monkeypatch):
        def wrong(text, op):
            right = build_from_descriptor(text, op)
            coeffs = right.coeffs.copy()
            coeffs[0] *= 2.0
            return PolynomialPreconditioner(coeffs, right.scale)

        monkeypatch.setattr(polyprec.diagnostics, "build_from_descriptor", wrong)

    def test_lemma_spec(self, rng):
        assert verify_lemma_spec(random_spd(rng, 5), 2) > 1e-8

    def test_adjugate(self, rng):
        assert verify_adjugate(random_spd(rng, 5, lam_low=0.5, lam_high=20.0)) > 1e-8

    def test_sandwich(self, rng):
        assert verify_sandwich(random_spd(rng, 5), 2) > 1e-9

    def test_volume_sampling(self, rng):
        B = random_spd(rng, 5, lam_low=0.5, lam_high=5.0)
        assert volume_sampling_expectation(B, 3) > 1e-10


class TestXiTable:
    def test_known_spectrum(self):
        table = xi_table([3.0, 2.0, 1.0], 2)
        taus = [row[0] for row in table.rows]
        xis = [row[1] for row in table.rows]
        conds = [row[2] for row in table.rows]
        assert taus == [0, 1, 2]
        assert xis == pytest.approx([1.0, 0.6, 1.0 / 3.0])
        assert conds == pytest.approx([3.0, 1.8, 1.0])
        assert table.max_slack <= 1e-12

    def test_uniform_spectrum(self):
        table = xi_table([1.0, 1.0, 1.0], 2)
        assert [row[1] for row in table.rows] == pytest.approx([1.0, 1.0, 1.0])

    def test_gapped(self):
        table = xi_table([100.0, 1.0, 1.0], 1)
        assert table.rows[1][1] == pytest.approx(2.0 / 101.0)

    @pytest.mark.parametrize("tau_max", [-1, 3])
    def test_tau_max_out_of_range(self, tau_max):
        with pytest.raises(ValueError, match=f"tau_max must lie in 0..n-1=2, got {tau_max}"):
            xi_table([3.0, 2.0, 1.0], tau_max)


class TestPropositionBounds:
    def test_cutting_example(self):
        cond, _ = proposition_bounds([10.0, 2.0, 1.0], 1)
        assert cond == pytest.approx(2.0)

    def test_top_degree_cond_one(self):
        cond, _ = proposition_bounds([10.0, 2.0, 1.0], 2)
        assert cond == pytest.approx(1.0)

    def test_flat_spectrum_gamma_zero(self):
        _, gamma = proposition_bounds([2.0, 2.0], 1)
        assert gamma == 0.0


def _bench(rng, n=12, cond=200.0):
    spectrum = np.logspace(0, np.log10(cond), n)[::-1]
    B = random_spd(rng, n, spectrum=spectrum)
    obj = make_quadratic(B, rng.standard_normal(n))
    x0 = rng.standard_normal(n)
    return obj, x0


class TestEnvelopes:
    def test_gm_envelopes_hold(self, rng):
        obj, x0 = _bench(rng)
        B = obj.curvature
        for tau in (0, 1):
            prec = build_from_descriptor(f"sympoly:{tau}", B) if tau else IdentityPreconditioner()
            bounds = compute_alpha_beta(prec, B)
            run = run_gm(obj, prec, SolverConfig(max_iters=300, x0=x0), bounds.beta)
            R2 = float((x0 - obj.x_star) @ B.matvec(x0 - obj.x_star))
            checks = gm_envelopes(
                run, bounds.alpha, bounds.beta, obj.L, obj.mu, R2, obj.f_star
            )
            assert {c.check for c in checks} == {"gm-convex", "gm-linear"}
            assert all(c.passed for c in checks)

    def test_gm_envelope_tightens_with_degree(self, rng):
        # Shrink factor scales the guarantee itself on a gapped spectrum.
        n = 10
        spectrum = np.array([200.0] + [1.0] * (n - 1))
        B = random_spd(rng, n, spectrum=spectrum)
        obj = make_quadratic(B, rng.standard_normal(n))
        bounds_id = compute_alpha_beta(IdentityPreconditioner(), B)
        prec = build_from_descriptor("sympoly:1", B)
        bounds_p1 = compute_alpha_beta(prec, B)
        from polyprec import xi_tau

        ratio = (bounds_p1.beta / bounds_p1.alpha) / (bounds_id.beta / bounds_id.alpha)
        assert ratio == pytest.approx(xi_tau(spectrum, 1), rel=1e-9)

    def test_gm_envelope_trivial_at_optimum(self, rng):
        obj, _ = _bench(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        run = run_gm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=3, x0=obj.x_star.copy()),
            bounds.beta,
        )
        checks = gm_envelopes(run, bounds.alpha, bounds.beta, 1.0, 1.0, 0.0, obj.f_star)
        assert all(c.passed for c in checks)

    def test_fgm_envelopes_hold(self, rng):
        obj, x0 = _bench(rng)
        B = obj.curvature
        bounds = compute_alpha_beta(IdentityPreconditioner(), B)
        run = run_fgm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=300, x0=x0),
            bounds.beta,
            bounds.alpha,
        )
        R2 = float((x0 - obj.x_star) @ B.matvec(x0 - obj.x_star))
        checks = fgm_envelopes(
            run, bounds.alpha, bounds.beta, obj.L, obj.mu, R2, obj.f_star
        )
        names = {c.check for c in checks}
        assert names == {
            "fgm-convex",
            "fgm-linear",
            "fgm-weight-growth",
            "fgm-weight-geometric",
        }
        assert all(c.passed for c in checks)

    def test_fgm_convex_only_path(self, rng):
        obj, x0 = _bench(rng)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        run = run_fgm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=100, x0=x0),
            bounds.beta,
            0.0,
        )
        checks = fgm_envelopes(run, bounds.alpha, bounds.beta, 1.0, 0.0, 1.0, obj.f_star)
        assert {c.check for c in checks} == {"fgm-convex", "fgm-weight-growth"}

    def test_krylov_envelope_advisory(self, rng):
        obj, x0 = _bench(rng, n=8, cond=50.0)
        run = run_krylov_gm(obj, SolverConfig(max_iters=50, x0=x0), 2)
        spectrum = np.sort(np.linalg.eigvalsh(obj.curvature.to_dense()))[::-1]
        D0_sq = 2.0 * (obj.full_value(x0) - obj.f_star)
        check = krylov_envelope(run, spectrum, 2, obj.L, D0_sq, obj.f_star)
        assert check.advisory
        assert check.passed  # generous constant for a fast method

    def test_envelope_pure_function(self, rng):
        obj, x0 = _bench(rng, n=6, cond=10.0)
        bounds = compute_alpha_beta(IdentityPreconditioner(), obj.curvature)
        run = run_gm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=20, x0=x0),
            bounds.beta,
        )
        before = [r.f_value for r in run.records]
        gm_envelopes(run, bounds.alpha, bounds.beta, 1.0, 1.0, 1.0, obj.f_star)
        assert [r.f_value for r in run.records] == before


class TestSuite:
    def test_full_suite_passes(self):
        reports = run_verification_suite(seed=3)
        hard = [r for r in reports if not r.advisory]
        assert all(r.passed for r in hard)

    def test_deterministic_given_seed(self):
        a = [r.to_dict() for r in run_verification_suite(seed=5)]
        b = [r.to_dict() for r in run_verification_suite(seed=5)]
        assert a == b

    def test_each_envelope_member_is_built_once(self, monkeypatch):
        # On the n = 20 benchmark, sympoly:0, :1 and :2 are each built and
        # bounded once; their gm and fgm runs share that build.
        import polyprec.experiments as experiments

        calls = {"build_from_descriptor": [], "compute_alpha_beta": []}

        def spy(module, name):
            original = getattr(module, name)

            def spied(first, op):
                if op.dim == 20:
                    calls[name].append(first)
                return original(first, op)

            monkeypatch.setattr(module, name, spied)

        for module in (experiments, polyprec.diagnostics):
            for name in calls:
                if hasattr(module, name):
                    spy(module, name)
        run_verification_suite(seed=0)
        assert calls["build_from_descriptor"] == ["sympoly:0", "sympoly:1", "sympoly:2"]
        assert len(calls["compute_alpha_beta"]) == 3

    def test_report_list_pinned(self):
        # A batch dropped, added or reordered changes the verify JSON.
        batches = [
            ("lemma-spec-batch", {"trials": 10, "tol": 1e-8}),
            ("adjugate-batch", {"trials": 5, "tol": 1e-8}),
            ("sandwich-batch", {"trials": 10, "tol": 1e-9}),
            ("volume-sampling-batch", {"trials": 5, "tol": 1e-10}),
            ("xi-monotone-batch", {"trials": 10}),
            ("gap-collapse", {"gaps": [10, 100, 1000], "n": 16}),
            ("cutting-bound-batch", {"trials": 10, "tol": 1e-10}),
            ("chebyshev-bound-batch", {"trials": 10, "tol": 1e-10}),
        ]
        theorems = {
            "gm": ("gm-convex", "gm-linear"),
            "fgm": ("fgm-convex", "fgm-linear", "fgm-weight-growth", "fgm-weight-geometric"),
        }
        envelopes = [
            (theorem, {"tau": tau, "method": method})
            for tau in (0, 1, 2)
            for method in ("gm", "fgm")
            for theorem in theorems[method]
        ]
        expected = [(check, params, False) for check, params in batches + envelopes]
        expected += [("krylov-rate", {"tau": tau, "method": "krylov"}, True) for tau in (0, 1, 2)]
        got = [(r.check, r.params, r.advisory) for r in run_verification_suite(seed=0)]
        assert len(got) == 29
        assert got == expected
