"""Verifiers for the spectral identities and convergence-rate guarantees.

Every verifier and envelope is a pure function of its inputs, deterministic
given its seed. An identity verifier returns its slack, the worst relative
deviation from the identity, and the suite judges it against a tolerance.
Envelopes and the suite's batches return a :class:`CheckReport` that
serializes to JSON.
Envelope checks carry an ``advisory`` flag: fixed-step runs with exact
constants are hard checks, while adaptive and best-polynomial rate envelopes
involve unstated absolute constants and only flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .datasets import _orthonormal
from .experiments import plan_run
from .operators import DenseOperator, _descending_spectrum, spectral_decomposition
from .preconditioners import (
    ChebyshevPreconditioner,
    PolynomialPreconditioner,
    _sigma_removed,
    build_from_descriptor,
    cutting_excess,
    cutting_preconditioner,
    gamma_of_polynomial,
    proposition_bounds,
    sandwich_slack,
    xi_tau,
)
from .problems import make_quadratic
from .solvers import RunResult, SolverConfig

__all__ = [
    "CheckReport",
    "verify_lemma_spec",
    "verify_adjugate",
    "verify_sandwich",
    "volume_sampling_expectation",
    "xi_table",
    "gm_envelopes",
    "fgm_envelopes",
    "krylov_envelope",
    "run_verification_suite",
]

# Converged runs sit at the floating-point floor of the objective; bounds
# below that floor are unobservable and do not count as violations.
_RELATIVE_SLACK = 1e-9


@dataclass
class CheckReport:
    """Machine-readable outcome of one verifier."""

    check: str
    params: dict
    passed: bool
    max_slack: float
    details: list = field(default_factory=list)
    advisory: bool = False

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "pass": bool(self.passed),
            "max_slack": float(self.max_slack),
            "advisory": bool(self.advisory),
            "details": list(self.details),
        }


def _dense_polynomial(p: PolynomialPreconditioner, B: DenseOperator) -> np.ndarray:
    """The unnormalized p(B) as a matrix, one column per ``apply`` to a unit vector."""
    return np.column_stack([p.apply(B, e) * p.scale for e in np.eye(B.dim)])


def verify_lemma_spec(B: DenseOperator, tau: int) -> float:
    """Slack of the eigen-action of the unnormalized trace-recursion preconditioner.

    On each eigenvector the degree-tau member must act as the tau-th
    elementary symmetric polynomial of the complementary eigenvalues; the
    slack is the worst relative deviation over the eigenvectors.
    """
    if B.dim > 64:
        raise ValueError("verifier is desk-scale; need n <= 64")
    dec = spectral_decomposition(B)
    lam = dec.eigenvalues
    prec = build_from_descriptor(f"sympoly:{tau}", B)
    worst = 0.0
    for i, q_i in enumerate(dec.eigenvectors.T):
        sigma = _sigma_removed(lam, i, tau)
        dev = float(np.linalg.norm(prec.apply(B, q_i) * prec.scale - sigma * q_i))
        worst = max(worst, dev / abs(sigma))
    return worst


def verify_adjugate(B: DenseOperator) -> float:
    """Relative distance of the top-degree family member from the adjugate."""
    n = B.dim
    if n > 10:
        raise ValueError("verifier is desk-scale; need n <= 10")
    mat = B.to_dense()
    built = _dense_polynomial(build_from_descriptor(f"sympoly:{n - 1}", B), B)
    target = np.linalg.det(mat) * np.linalg.inv(mat)
    return float(np.linalg.norm(built - target) / np.linalg.norm(target))


def verify_sandwich(B: DenseOperator, tau: int) -> float:
    """Slack of the two-sided eigenvalue bounds of the preconditioned operator.

    The :func:`sandwich_slack` of the degree-tau member; its build, like every
    exact ``sympoly`` build, raises when the slack exceeds ``BUILD_TOLERANCE``.
    """
    prec = build_from_descriptor(f"sympoly:{tau}", B)
    return sandwich_slack(spectral_decomposition(B).eigenvalues, prec, tau)


def _volume_expectation(mat: np.ndarray, m: int) -> np.ndarray:
    """Determinant-weighted mean of the padded inverses of the size-m principal submatrices."""
    n = mat.shape[0]
    num = np.zeros((n, n))
    den = 0.0
    for subset in itertools.combinations(range(n), m):
        idx = np.asarray(subset)
        sub = mat[np.ix_(idx, idx)]
        det = float(np.linalg.det(sub))
        padded = np.zeros((n, n))
        padded[np.ix_(idx, idx)] = np.linalg.inv(sub)
        num += det * padded
        den += det
    return num / den


def volume_sampling_expectation(B: DenseOperator, m: int) -> float:
    """Slack of the expected padded submatrix inverse under determinant-weighted subsets.

    Enumerates every size-m principal submatrix, fits the expectation to the
    degree-(m-1) family member by a least-squares proportionality constant and
    returns the worst deviation relative to the fitted member's largest entry.
    """
    if B.dim > 12:
        raise ValueError("subset enumeration is desk-scale; need n <= 12")
    if not 1 <= m <= B.dim:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    expectation = _volume_expectation(B.to_dense(), m)
    reference = _dense_polynomial(build_from_descriptor(f"sympoly:{m - 1}", B), B)
    constant = float(np.sum(expectation * reference) / np.sum(reference * reference))
    scaled = constant * reference
    return float(np.max(np.abs(expectation - scaled)) / np.max(np.abs(scaled)))


@dataclass
class XiTable:
    """Shrink factors and resulting condition numbers per degree."""

    rows: list  # (tau, xi, cond)
    max_slack: float


def xi_table(spectrum, tau_max: int) -> XiTable:
    """The shrink factor by degree, with the slack of its monotonicity and endpoints."""
    spectrum = _descending_spectrum(spectrum)
    n = spectrum.size
    if not 0 <= tau_max <= n - 1:
        raise ValueError(f"tau_max must lie in 0..n-1={n - 1}, got {tau_max}")
    base_cond = float(spectrum[0] / spectrum[-1])
    rows = []
    for tau in range(tau_max + 1):
        xi = xi_tau(spectrum, tau)
        rows.append((tau, xi, base_cond * xi))
    xis = [row[1] for row in rows]
    slack = abs(xis[0] - 1.0)
    for prev, cur in zip(xis, xis[1:]):
        slack = max(slack, cur - prev)
    if tau_max == n - 1:
        slack = max(slack, abs(xis[-1] - spectrum[-1] / spectrum[0]))
    return XiTable(rows=rows, max_slack=slack)


def _envelope(theorem, gaps, bounds, f_star, initial_gap, advisory=False) -> CheckReport:
    """Per-iteration gaps against a theoretical bound, as a report with empty params.

    ``max_slack`` is the largest gap/bound ratio; ``details`` lists the first
    ten iterations whose gap exceeds its bound beyond the rounding floor.
    """
    bounds = np.asarray(bounds, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    floor = 64.0 * np.finfo(float).eps * (abs(f_star) + abs(initial_gap))
    ok = gaps <= bounds * (1.0 + _RELATIVE_SLACK) + floor
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds > 0, gaps / bounds, np.inf)
    failures = [
        {"k": int(k + 1), "observed": float(gaps[k]), "bound": float(bounds[k])}
        for k in np.flatnonzero(~ok)[:10]
    ]
    return CheckReport(
        check=theorem,
        params={},
        passed=bool(np.all(ok)),
        max_slack=float(np.max(ratios, initial=0.0)),
        details=failures,
        advisory=advisory,
    )


def _gaps(run: RunResult, f_star: float):
    """Gaps of iterations 1..k, the initial gap, and the iteration numbers 1..k."""
    values = run.f_values()
    gaps = values[1:] - f_star
    return gaps, values[0] - f_star, np.arange(1, gaps.size + 1, dtype=float)


def gm_envelopes(
    run: RunResult, alpha: float, beta: float, L: float, mu: float, R2: float, f_star: float
) -> list[CheckReport]:
    """Sublinear and (if strongly convex) linear envelopes of the basic method.

    The run must have used the exact step constant beta * L for the bounds to
    be guarantees rather than heuristics.
    """
    gaps, initial_gap, ks = _gaps(run, f_star)
    checks = [
        _envelope("gm-convex", gaps, (beta / alpha) * L * R2 / ks, f_star, initial_gap)
    ]
    if mu > 0:
        rate = 1.0 - 0.25 * (alpha / beta) * (mu / L)
        checks.append(
            _envelope("gm-linear", gaps, initial_gap * rate**ks, f_star, initial_gap)
        )
    return checks


def fgm_envelopes(
    run: RunResult, alpha: float, beta: float, L: float, mu: float, R2: float, f_star: float
) -> list[CheckReport]:
    """Accelerated-rate envelopes plus the accumulation-weight growth bounds."""
    gaps, initial_gap, ks = _gaps(run, f_star)
    M = beta * L
    rho = alpha * mu
    checks = [
        _envelope(
            "fgm-convex", gaps, 2.0 * (beta / alpha) * L * R2 / ks**2, f_star, initial_gap
        )
    ]
    if mu > 0:
        q = np.sqrt((alpha / beta) * (mu / L))
        sc_bounds = (1.0 - q) ** (ks - 1.0) * (beta / alpha) * (L / 2.0) * R2
        checks.append(_envelope("fgm-linear", gaps, sc_bounds, f_star, initial_gap))
    a_ks = np.array([r.A_k for r in run.records[1:]])
    growth = ks**2 / (4.0 * M)
    checks.append(
        _envelope("fgm-weight-growth", growth, a_ks * (1.0 + _RELATIVE_SLACK), 0.0, 0.0)
    )
    if rho > 0:
        q = np.sqrt(rho / M)
        geo = 1.0 / (M * (1.0 - q) ** (ks - 1.0))
        checks.append(
            _envelope("fgm-weight-geometric", geo, a_ks * (1.0 + _RELATIVE_SLACK), 0.0, 0.0)
        )
    return checks


def krylov_envelope(
    run: RunResult, spectrum, tau: int, L: float, D0_sq: float, f_star: float
) -> CheckReport:
    """Advisory rate envelope for the best degree-tau polynomial method.

    The guarantee's absolute constant is not pinned down; the check uses 4
    (the fixed-step telescoping constant) and flags rather than fails.
    """
    cutting_cond, _ = proposition_bounds(spectrum, tau)
    gaps, initial_gap, ks = _gaps(run, f_star)
    bounds = 4.0 * cutting_cond * L * D0_sq / ks
    return _envelope("krylov-rate", gaps, bounds, f_star, initial_gap, advisory=True)


def _random_spd(rng, n, lam_low=0.2, lam_high=8.0, spectrum=None):
    q = _orthonormal(rng, (n, n))
    if spectrum is None:
        spectrum = _descending_spectrum(rng.uniform(lam_low, lam_high, n))
    return DenseOperator(q @ np.diag(spectrum) @ q.T)


def _batch(check: str, params: dict, tol: float, trials: int, slack_of) -> CheckReport:
    """Worst slack of ``trials`` draws; passes when every draw's slack is within tol.

    Each call of ``slack_of`` makes one seeded draw and returns its slack, so
    the batches of a suite share one generator in a fixed order.
    """
    report = CheckReport(check, params, True, 0.0)
    for _ in range(trials):
        slack = slack_of()
        report.max_slack = max(report.max_slack, slack)
        report.passed = report.passed and slack <= tol
    return report


def run_verification_suite(seed: int = 0) -> list[CheckReport]:
    """The desk-scale identity and envelope suite behind the verify command."""
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = np.random.default_rng(seed)

    def lemma_spec():
        n = int(rng.integers(2, 9))
        B = _random_spd(rng, n)
        tau = int(rng.integers(0, n))
        return verify_lemma_spec(B, tau)

    def adjugate():
        B = _random_spd(rng, int(rng.integers(2, 7)), lam_low=0.5, lam_high=20.0)
        return verify_adjugate(B)

    def sandwich():
        n = int(rng.integers(2, 9))
        B = _random_spd(rng, n)
        tau = int(rng.integers(0, n))
        return verify_sandwich(B, tau)

    def volume():
        n = int(rng.integers(2, 7))
        B = _random_spd(rng, n, lam_low=0.5, lam_high=5.0)
        m = int(rng.integers(1, min(4, n) + 1))
        return volume_sampling_expectation(B, m)

    def xi_monotone():
        n = int(rng.integers(2, 13))
        return xi_table(rng.uniform(0.1, 50.0, n), n - 1).max_slack

    def cutting():
        n = int(rng.integers(3, 10))
        spectrum = rng.uniform(0.5, 40.0, n)
        tau = int(rng.integers(0, n))
        return cutting_excess(spectrum, cutting_preconditioner(spectrum, tau), tau)

    def chebyshev():
        lam1 = float(rng.uniform(5.0, 500.0))
        lamn = float(rng.uniform(0.2, 2.0))
        tau = int(rng.integers(0, 9))
        grid = np.linspace(lamn, lam1, 1000)
        prec = ChebyshevPreconditioner(lam1, lamn, tau)
        measured = gamma_of_polynomial(prec, grid)
        return measured - proposition_bounds(grid, tau)[1]

    # Degree 1 on a spectrum with one outlier: the condition number falls from
    # the gap to at most n, however large the gap.
    n = 16
    shrunk = max(
        xi_tau(np.array([gap] + [1.0] * (n - 1)), 1) * gap for gap in (10.0, 100.0, 1000.0)
    )
    reports = [
        _batch("lemma-spec-batch", {"trials": 10, "tol": 1e-8}, 1e-8, 10, lemma_spec),
        _batch("adjugate-batch", {"trials": 5, "tol": 1e-8}, 1e-8, 5, adjugate),
        _batch("sandwich-batch", {"trials": 10, "tol": 1e-9}, 1e-9, 10, sandwich),
        _batch("volume-sampling-batch", {"trials": 5, "tol": 1e-10}, 1e-10, 5, volume),
        _batch("xi-monotone-batch", {"trials": 10}, 1e-12, 10, xi_monotone),
        CheckReport("gap-collapse", {"gaps": [10, 100, 1000], "n": n}, shrunk <= n, shrunk / n),
        _batch("cutting-bound-batch", {"trials": 10, "tol": 1e-10}, 1e-10, 10, cutting),
        _batch("chebyshev-bound-batch", {"trials": 10, "tol": 1e-10}, 1e-10, 10, chebyshev),
    ]

    # Rate envelopes on one quadratic benchmark per preconditioner degree, built
    # once; its gm and fgm runs step at the beta L and alpha mu the envelopes assume.
    n = 20
    spectrum = np.logspace(0, 3, n)[::-1]
    B = _random_spd(rng, n, spectrum=spectrum)
    obj = make_quadratic(B, rng.standard_normal(n))
    x0 = rng.standard_normal(n)
    R2 = float((x0 - obj.x_star) @ B.matvec(x0 - obj.x_star))
    for tau in (0, 1, 2):
        plan = plan_run(obj, "gm", f"sympoly:{tau}")
        bounds = plan.bounds
        for method, envelopes in (("gm", gm_envelopes), ("fgm", fgm_envelopes)):
            run, _ = plan._replace(method=method).run(SolverConfig(max_iters=200, x0=x0))
            checks = envelopes(run, bounds.alpha, bounds.beta, obj.L, obj.mu, R2, obj.f_star)
            for check in checks:
                check.params = {"tau": tau, "method": method}
                reports.append(check)
    # The krylov step on the same benchmark; R2 is the D0^2 of its envelope.
    for tau in (0, 1, 2):
        run, _ = plan_run(obj, "krylov", "identity", tau).run(SolverConfig(max_iters=200, x0=x0))
        check = krylov_envelope(run, spectrum, tau, obj.L, R2, obj.f_star)
        check.params = {"tau": tau, "method": "krylov"}
        reports.append(check)
    return reports
