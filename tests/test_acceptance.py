"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criterion 7's insensitivity halves are expected to fail at the pinned scales;
see the module docstring of test_criterion_07b for the analysis.
"""

import time

import numpy as np
import pytest

from polyprec import (
    ChebyshevPreconditioner,
    DenseOperator,
    HuberLoss,
    IdentityPreconditioner,
    LogisticLoss,
    SolverConfig,
    build_from_descriptor,
    compute_alpha_beta,
    cutting_preconditioner,
    fgm_envelopes,
    gamma_of_polynomial,
    gm_envelopes,
    initial_guess_M,
    logistic_from_dataset,
    make_quadratic,
    make_regression,
    parse_libsvm,
    proposition_bounds,
    run_adaptive_fgm,
    run_adaptive_gm,
    run_bench,
    run_fgm,
    run_gm,
    run_krylov_gm,
    spectral_decomposition,
    synth_regression,
    verify_adjugate,
    verify_lemma_spec,
    verify_sandwich,
    volume_sampling_expectation,
)
from polyprec.krylov import KrylovPreconditioner
from conftest import (
    random_spd,
    record_iterates,
    synth_classification_dataset,
    validate_bounds,
    write_libsvm,
)


def _report(num: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_spectral_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_spec = worst_adj = worst_sand = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        B = random_spd(rng, n)
        tau = int(rng.integers(0, n))
        spec = verify_lemma_spec(B, tau)
        ok &= spec <= 1e-8
        worst_spec = max(worst_spec, spec)
        sand = verify_sandwich(B, tau)
        ok &= sand <= 1e-9
        worst_sand = max(worst_sand, sand)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        B = random_spd(rng, n, lam_low=0.5, lam_high=20.0)
        adj = verify_adjugate(B)
        ok &= adj <= 1e-8
        worst_adj = max(worst_adj, adj)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _report(
        "01",
        ok,
        f"lemma-spec {worst_spec:.2e}, adjugate {worst_adj:.2e}, "
        f"sandwich {worst_sand:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_volume_sampling_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        B = random_spd(rng, n, lam_low=0.4, lam_high=6.0)
        m = int(rng.integers(1, min(4, n) + 1))
        worst = max(worst, volume_sampling_expectation(B, m))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _report("02", ok, f"max relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_rate_envelopes():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(20):
        n = int(rng.integers(5, 51))
        cond = 10.0 ** rng.uniform(1.0, 4.0)
        spectrum = np.logspace(0, np.log10(cond), n)[::-1]
        B = random_spd(rng, n, spectrum=spectrum)
        obj_template = make_quadratic(B, rng.standard_normal(n))
        x0 = rng.standard_normal(n)
        R2 = float((x0 - obj_template.x_star) @ B.matvec(x0 - obj_template.x_star))
        for tau in (0, 1, 2):
            prec = build_from_descriptor(f"sympoly:{tau}", B) if tau else IdentityPreconditioner()
            bounds = compute_alpha_beta(prec, B)
            obj = make_quadratic(B, B.matvec(obj_template.x_star))
            gm_run = run_gm(obj, prec, SolverConfig(max_iters=500, x0=x0), bounds.beta)
            for check in gm_envelopes(
                gm_run, bounds.alpha, bounds.beta, obj.L, obj.mu, R2, obj.f_star
            ):
                if not check.passed:
                    failures.append((trial, tau, check.check, check.max_slack))
            obj = make_quadratic(B, B.matvec(obj_template.x_star))
            fgm_run = run_fgm(
                obj,
                prec,
                SolverConfig(max_iters=500, x0=x0),
                bounds.beta,
                bounds.alpha * obj.mu,
            )
            for check in fgm_envelopes(
                fgm_run, bounds.alpha, bounds.beta, obj.L, obj.mu, R2, obj.f_star
            ):
                if not check.passed:
                    failures.append((trial, tau, check.check, check.max_slack))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert _report(
        "03", ok, f"{len(failures)} envelope violations over 20 problems, {elapsed:.1f}s"
    ), failures[:5]


def test_criterion_04_fgm_internals():
    rng = np.random.default_rng(404)
    n = 20
    spectrum = np.logspace(0, 3, n)[::-1]
    B = random_spd(rng, n, spectrum=spectrum)
    obj = make_quadratic(B, rng.standard_normal(n))
    bounds = compute_alpha_beta(IdentityPreconditioner(), B)
    M = bounds.beta
    worst_identity = 0.0
    ok = True
    for rho in (0.0, bounds.alpha):
        run = run_fgm(
            obj,
            IdentityPreconditioner(),
            SolverConfig(max_iters=400, x0=np.ones(n)),
            M,
            rho,
        )
        prev_A = 0.0
        for record in run.records[1:]:
            a = record.A_k - prev_A
            rhs = 1.0 + rho * record.A_k
            worst_identity = max(worst_identity, abs(M * a * a / record.A_k - rhs) / rhs)
            prev_A = record.A_k
            ok &= record.A_k >= record.k**2 / (4.0 * M) * (1.0 - 1e-12)
            if rho > 0:
                q = np.sqrt(rho / M)
                ok &= record.A_k >= (1.0 - 1e-12) / (M * (1.0 - q) ** (record.k - 1))
    ok &= worst_identity <= 1e-10
    assert _report(
        "04", ok, f"coefficient identity residual {worst_identity:.2e}, growth bounds hold"
    )


def test_criterion_05_krylov_optimality():
    rng = np.random.default_rng(505)
    ok = True
    # Exact-line-search equivalence at degree zero.
    worst_dev = 0.0
    for trial in range(5):
        n = 8
        B = random_spd(rng, n, lam_low=0.4, lam_high=40.0)
        obj = make_quadratic(B, rng.standard_normal(n))
        x0 = rng.standard_normal(n)
        iterates = record_iterates(obj)
        run_krylov_gm(obj, SolverConfig(max_iters=30, x0=x0), 0)
        mat = B.to_dense()
        x = x0.copy()
        for iterate in iterates:
            worst_dev = max(worst_dev, float(np.max(np.abs(iterate - x))))
            g = mat @ (x - obj.x_star)
            gg = float(g @ g)
            if gg == 0.0:
                continue
            x = x - gg / float(g @ (mat @ g)) * g
    ok &= worst_dev <= 1e-12

    # Per-step model dominance over equal-degree fixed polynomials.
    dominance_failures = 0
    for trial in range(20):
        local = np.random.default_rng(5050 + trial)
        n = 9
        if trial % 2 == 0:
            B = random_spd(local, n, lam_low=0.4, lam_high=80.0)
            obj = make_quadratic(B, local.standard_normal(n))
        else:
            rows = local.standard_normal((3 * n, n))
            obj = make_regression(rows, local.standard_normal(3 * n), HuberLoss(0.1))
            B = DenseOperator(obj.curvature.to_dense())
        dec = spectral_decomposition(B)
        x = local.standard_normal(n)
        mat = B.to_dense()
        g = obj.gradient(x)

        def model(h):
            return float(g @ h) + 0.5 * obj.L * float(h @ (mat @ h))

        for tau in range(4):
            krylov_h = -KrylovPreconditioner(tau).apply(obj.curvature, g) / obj.L
            sympoly = build_from_descriptor(f"sympoly:{tau}", B)
            beta = compute_alpha_beta(sympoly, B).beta
            h_sym = -sympoly.apply(B, g) / (beta * obj.L)
            cheb = ChebyshevPreconditioner(dec.lam_max, dec.lam_min, tau)
            h_cheb = -cheb.apply(B, g) / obj.L
            for h in (h_sym, h_cheb):
                if model(krylov_h) > model(h) + 1e-10 * max(1.0, abs(model(h))):
                    dominance_failures += 1
    ok &= dominance_failures == 0

    # Monotonicity on every benchmark family.
    monotone = True
    quad = make_quadratic(random_spd(rng, 10, lam_low=0.5, lam_high=60.0),
                          rng.standard_normal(10))
    rows = rng.standard_normal((30, 10))
    hub = make_regression(rows, rng.standard_normal(30), HuberLoss(0.1))
    log = make_regression(rows, np.zeros(30), LogisticLoss())
    for obj in (quad, hub, log):
        run = run_krylov_gm(obj, SolverConfig(max_iters=40, x0=np.ones(10)), 3)
        values = run.f_values()
        monotone &= bool(
            np.all(np.diff(values) <= 1e-10 * np.maximum(np.abs(values[:-1]), 1.0))
        )
    ok &= monotone
    assert _report(
        "05",
        ok,
        f"line-search dev {worst_dev:.1e}, dominance failures {dominance_failures}, "
        f"monotone {monotone}",
    )


def test_criterion_06_cutting_chebyshev_bounds():
    rng = np.random.default_rng(606)
    worst_cut = worst_cheb = -np.inf
    for _ in range(20):
        n = int(rng.integers(3, 12))
        spectrum = np.sort(rng.uniform(0.3, 80.0, n))[::-1]
        tau = int(rng.integers(0, n))
        cut = cutting_preconditioner(spectrum, tau)
        cond, cheb_bound = proposition_bounds(spectrum, tau)
        cut_bound = (cond - 1.0) / (cond + 1.0)
        worst_cut = max(worst_cut, gamma_of_polynomial(cut, spectrum) - cut_bound)
        cheb = ChebyshevPreconditioner(spectrum[0], spectrum[-1], tau)
        grid = np.linspace(spectrum[-1], spectrum[0], 1000)
        worst_cheb = max(worst_cheb, gamma_of_polynomial(cheb, grid) - cheb_bound)
    ok = worst_cut <= 1e-10 and worst_cheb <= 1e-10
    assert _report(
        "06", ok, f"cutting slack {worst_cut:.2e}, chebyshev slack {worst_cheb:.2e}"
    )


def _huber_iterations(lam1, lam2, taus, seed=3, gap=1e-6):
    """Iterations of the adaptive gradient method per preconditioner degree."""
    n = 100
    synthetic = (lam1, lam2, 1.0, n)
    reference_obj = synth_regression(synthetic, HuberLoss(0.1), seed)
    ref_prec = build_from_descriptor("sympoly:2", reference_obj.curvature)
    guess = initial_guess_M(reference_obj, ref_prec, np.zeros(n), 1.0)
    ref = run_adaptive_fgm(
        reference_obj,
        ref_prec,
        SolverConfig(max_iters=6000, tol=1e-13),
        guess,
    )
    f_star = float(min(r.f_value for r in ref.records))
    counts = {}
    for tau in taus:
        obj = synth_regression(synthetic, HuberLoss(0.1), seed)
        prec = (
            build_from_descriptor(f"sympoly:{tau}", obj.curvature)
            if tau
            else IdentityPreconditioner()
        )
        guess = initial_guess_M(obj, prec, np.zeros(n), 1.0)
        run = run_adaptive_gm(
            obj,
            prec,
            SolverConfig(max_iters=40_000, gap_target=gap, f_star=f_star),
            guess,
        )
        assert run.termination == "gap_target"
        counts[tau] = run.iterations
    return counts


@pytest.fixture(scope="module")
def huber_scans():
    start = time.perf_counter()
    scan_a = {lam1: _huber_iterations(lam1, 1.0, (0, 1)) for lam1 in (10.0, 100.0)}
    scan_b = {
        lam2: _huber_iterations(10.0 * lam2, lam2, (0, 2)) for lam2 in (10.0, 100.0)
    }
    return scan_a, scan_b, time.perf_counter() - start


def test_criterion_07a_gap_sensitivity_of_plain_gm(huber_scans):
    scan_a, scan_b, elapsed = huber_scans
    growth_a = scan_a[100.0][0] / scan_a[10.0][0]
    growth_b = scan_b[100.0][0] / scan_b[10.0][0]
    ok = growth_a >= 5.0 and growth_b >= 5.0 and elapsed < 120.0
    assert _report(
        "07a",
        ok,
        f"plain GM iteration growth: top-eigenvalue scan x{growth_a:.1f}, "
        f"second-eigenvalue scan x{growth_b:.1f} (need >= 5x), {elapsed:.0f}s",
    )


def test_criterion_07b_gap_insensitivity_of_preconditioned_gm(huber_scans):
    """Expected to FAIL at the pinned scales (kept faithful to the criterion).

    With n = 100 and a unit tail, the guaranteed condition number of the
    degree-1 preconditioner is 99 * lam1 / (lam1 + 98): it saturates only for
    lam1 far above n, so between lam1 = 10 and lam1 = 100 it grows 5.4x and
    measured iteration counts track it (about 10x here). The same tail mass
    effect applies to the degree-2 scan. See the decisions ledger for the
    full analysis and the measured table.
    """
    scan_a, scan_b, _ = huber_scans
    change_p1 = abs(scan_a[100.0][1] / scan_a[10.0][1] - 1.0)
    change_p2 = abs(scan_b[100.0][2] / scan_b[10.0][2] - 1.0)
    ok = change_p1 <= 0.2 and change_p2 <= 0.2
    assert _report(
        "07b",
        ok,
        f"degree-1 change {change_p1:.0%}, degree-2 change {change_p2:.0%} (need <= 20%)",
    )


@pytest.fixture(scope="module")
def logistic_dataset_runs(tmp_path_factory):
    start = time.perf_counter()
    dataset = synth_classification_dataset((300.0, 60.0, 1.0, 120), seed=11, rows=480, flip=0.2)
    path = tmp_path_factory.mktemp("logreg") / "synthetic.libsvm"
    write_libsvm(path, dataset.to_dense(), dataset.labels)
    parsed = parse_libsvm(path)
    # Standardization off: the planted spectrum is the experiment.
    make_obj = lambda: logistic_from_dataset(parsed, standardize=False)

    ref_obj = make_obj()
    ref_prec = build_from_descriptor("sympoly:2", ref_obj.curvature)
    guess = initial_guess_M(ref_obj, ref_prec, np.zeros(ref_obj.n), 1.0)
    ref = run_adaptive_fgm(
        ref_obj,
        ref_prec,
        SolverConfig(max_iters=15_000, tol=1e-13),
        guess,
    )
    f_star = float(min(r.f_value for r in ref.records))

    iters = {}
    bounds_by_tau = {}
    for tau in (0, 1, 2):
        obj = make_obj()
        prec = (
            build_from_descriptor(f"sympoly:{tau}", obj.curvature)
            if tau
            else IdentityPreconditioner()
        )
        bounds = compute_alpha_beta(prec, obj.curvature)
        bounds_by_tau[tau] = bounds
        config = SolverConfig(max_iters=40_000, gap_target=1e-6, f_star=f_star)
        run = run_gm(obj, prec, config, bounds.beta * obj.L)
        assert run.termination == "gap_target"
        iters[f"gm-{tau}"] = run.iterations

        obj = make_obj()
        config = SolverConfig(max_iters=40_000, gap_target=1e-6, f_star=f_star)
        run = run_fgm(obj, prec, config, bounds.beta * obj.L)
        assert run.termination == "gap_target"
        iters[f"fgm-{tau}"] = run.iterations

    obj = make_obj()
    run = run_krylov_gm(
        obj,
        SolverConfig(max_iters=5_000, gap_target=1e-6, f_star=f_star),
        3,
    )
    assert run.termination == "gap_target"
    iters["krylov-3"] = run.iterations
    elapsed = time.perf_counter() - start
    return iters, bounds_by_tau, make_obj, elapsed


def test_criterion_08_speedup_ordering(logistic_dataset_runs):
    iters, _, _, elapsed = logistic_dataset_runs
    gm_ratio = iters["gm-2"] / iters["gm-0"]
    fgm_ratio = iters["fgm-2"] / iters["fgm-0"]
    krylov_wins = iters["krylov-3"] <= min(iters["gm-0"], iters["gm-1"], iters["gm-2"])
    ok = gm_ratio <= 0.7 and fgm_ratio <= 0.8 and krylov_wins
    assert _report(
        "08",
        ok,
        f"GM ratio {gm_ratio:.2f} (<=0.7), FGM ratio {fgm_ratio:.2f} (<=0.8), "
        f"krylov {iters['krylov-3']} vs best GM "
        f"{min(iters['gm-0'], iters['gm-1'], iters['gm-2'])}, {elapsed:.0f}s",
    )


def test_criterion_09_adaptive_efficiency(logistic_dataset_runs):
    _, bounds_by_tau, make_obj, _ = logistic_dataset_runs
    obj = make_obj()
    prec = IdentityPreconditioner()
    beta_L = bounds_by_tau[0].beta * obj.L
    guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
    assert guess <= beta_L * (1.0 + 1e-9)
    run = run_adaptive_gm(obj, prec, SolverConfig(max_iters=200), guess)
    avg_trials = run.total_ls_trials() / run.iterations
    max_M = max(r.M_k for r in run.records[1:])
    ok = avg_trials <= 2.5 and max_M <= 2.0 * beta_L * (1.0 + 1e-12)
    assert _report(
        "09",
        ok,
        f"avg predicate evals {avg_trials:.2f} (<=2.5), max M {max_M:.3g} "
        f"vs cap {2.0 * beta_L:.3g}",
    )


def test_criterion_10_validators():
    rng = np.random.default_rng(1010)
    objectives = []
    objectives.append(("quadratic", make_quadratic(random_spd(rng, 12), rng.standard_normal(12))))
    rows = rng.standard_normal((40, 12))
    objectives.append(
        ("huber", make_regression(rows, rng.standard_normal(40), HuberLoss(0.1)))
    )
    objectives.append(
        ("logistic", make_regression(rows, np.zeros(40), LogisticLoss()))
    )
    synthetic = (40.0, 4.0, 1.0, 15)
    objectives.append(("synthetic-huber", synth_regression(synthetic, HuberLoss(0.1), 2)))
    objectives.append(("synthetic-logistic", synth_regression(synthetic, LogisticLoss(), 2)))
    worst_grad = 0.0
    ok = True
    for name, obj in objectives:
        report = validate_bounds(obj, trials=10, seed=7)
        ok &= report.passed
        worst_grad = max(worst_grad, report.max_grad_rel_err)
    ok &= worst_grad <= 1e-5
    assert _report(
        "10", ok, f"{len(objectives)} objectives validated, worst gradient error {worst_grad:.1e}"
    )


def test_criterion_11_bench_determinism(tmp_path):
    configs = []
    for name, method, precond in (
        ("d1", "adaptive-gm", "sympoly:1"),
        ("d2", "fgm", "sympoly:2"),
    ):
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            f"name = {name}\nmethod = {method}\nprecond = {precond}\n"
            "synthetic = 30,5,1,12\nloss = huber:0.1\nmax_iters = 80\nseed = 6\n"
        )
        configs.append(path)
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    run_bench(configs, out_dir=out1)
    run_bench(configs, out_dir=out2)
    ok = True
    for name in ("d1", "d2"):
        lines1 = (out1 / f"{name}.csv").read_text().splitlines()
        lines2 = (out2 / f"{name}.csv").read_text().splitlines()
        ok &= len(lines1) == len(lines2)
        for a, b in zip(lines1, lines2):
            ok &= a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]
    assert _report("11", ok, "two bench executions agree on every non-clock column")
