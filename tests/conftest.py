from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, Polynomial

from polyprec import DatasetMatrix, DenseOperator, PolynomialPreconditioner, planted_spectrum
from polyprec import solvers
from polyprec.datasets import _design_matrix


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, lam_low=0.2, lam_high=8.0, spectrum=None):
    if spectrum is None:
        spectrum = np.sort(rng.uniform(lam_low, lam_high, n))[::-1]
    q = random_rotation(rng, n)
    return DenseOperator(q @ np.diag(spectrum) @ q.T)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The gapped spectrum of the benchmark's problem: 1000, 300 and 98 unit eigenvalues.
GAPPED_SPECTRUM = np.array([1000.0, 300.0] + [1.0] * 98)


def seeded_spectra(seed: int):
    """Descending spectra of sizes 1 to 60, each in [spread, 1] or [1, spread]
    for spreads 1e-3 to 1e3, drawn log-uniformly from ``seed``."""
    rng = np.random.default_rng(seed)
    for spread in 10.0 ** np.arange(-3, 4):
        for size in range(1, 61):
            yield np.sort(spread ** rng.uniform(0.0, 1.0, size))[::-1]


def prefix_elementary_symmetric(values, k_max: int):
    """Reference ``(sigma, scale)``: the prefix recurrence over the inputs
    divided by their maximum, adding one input at a time."""
    values = np.asarray(values, dtype=float)
    scale = float(np.max(values)) if values.size else 1.0
    sigma = np.zeros(k_max + 1)
    sigma[0] = 1.0
    for i, v in enumerate(values / scale):
        for k in range(min(k_max, i + 1), 0, -1):
            sigma[k] += v * sigma[k - 1]
    return sigma, scale


def convolve_cutting_coefficients(spectrum, tau: int) -> np.ndarray:
    """Reference cutting coefficients: 1 - s p(s) built one linear factor at a time."""
    q = np.array([1.0])
    for lam in spectrum[:tau]:
        q = np.convolve(q, np.array([1.0, -1.0 / lam]))
    a = 2.0 / (spectrum[tau] + spectrum[-1])
    r = np.convolve(q, np.array([-1.0, a]))
    r[0] += 1.0  # exactly zero
    return r[1:]


def chebyshev_monomial(lam_max: float, lam_min: float, tau: int) -> PolynomialPreconditioner:
    """Reference monomial form of ``ChebyshevPreconditioner(lam_max, lam_min, tau)``:
    p(s) = (1 - r(s) / r(0)) / s, with r the degree-(tau + 1) Chebyshev
    polynomial on [lam_min, lam_max]."""
    r = Chebyshev.basis(tau + 1, domain=[lam_min, lam_max])
    return PolynomialPreconditioner((1 - r / r(0.0)).convert(kind=Polynomial).coef[1:])


def write_libsvm(path, dense_rows: np.ndarray, labels: np.ndarray):
    """Write dense rows in the sparse text format (zeros are dropped)."""
    dense_rows = np.asarray(dense_rows, dtype=float)
    with open(path, "w") as handle:
        for row, label in zip(dense_rows, labels):
            fields = [f"{int(label):+d}"]
            for j, value in enumerate(row):
                if value != 0.0:
                    fields.append(f"{j + 1}:{float(value)!r}")
            handle.write(" ".join(fields) + "\n")


def record_iterates(obj) -> list:
    """Spy on ``obj.full_value``; the returned list collects a copy of every point read.

    The solver loop reads the objective once per record, the start included,
    so after a run the list lines up with ``run.records``.
    """
    points = []
    full_value = obj.full_value

    def spy(x):
        points.append(np.array(x, dtype=float))
        return full_value(x)

    obj.full_value = spy
    return points


class Trial(NamedTuple):
    """One line-search trial: its constant, the predicate's verdict, the squared
    step norm and the curvature the trial measured (NaN unless step_sq > 0)."""

    M: float
    accepted: bool
    step_sq: float
    curvature: float


@contextmanager
def record_trials():
    """Spy on ``solvers.quadratic_growth_predicate``; the yielded list collects a
    :class:`Trial` for every call, that is for every line-search trial."""
    trials = []
    predicate = solvers.quadratic_growth_predicate

    def spy(M, lin, step_sq, f_x, f_y):
        accepted = predicate(M, lin, step_sq, f_x, f_y)
        curvature = 2.0 * (f_y - f_x - lin) / step_sq if step_sq > 0 else np.nan
        trials.append(Trial(M, accepted, step_sq, curvature))
        return accepted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "quadratic_growth_predicate", spy)
        yield trials


def doubling_search_reference(guess: float):
    """Reference line search with plain doubling: one trial per doubling,
    whatever curvature a rejected trial measured. Each search after the first
    starts at the last accepted step's estimate clipped to [M/2, M], or at M/2
    when that estimate is not finite."""

    def search(trial):
        nonlocal guess
        M = guess
        for trials in range(1, solvers.MAX_DOUBLINGS + 2):
            state, step_sq, (lin, f_x, f_y) = trial(M)
            if solvers.quadratic_growth_predicate(M, lin, step_sq, f_x, f_y):
                estimate = solvers._curvature_estimate(lin, step_sq, f_x, f_y)
                guess = M / 2.0
                if np.isfinite(estimate):
                    guess = min(max(estimate, guess), M)
                return solvers.Step(state, step_sq, M, trials)
            M *= 2.0
        raise RuntimeError("reference search exceeded the doubling cap")

    return search


@dataclass
class BoundsReport:
    """Outcome of the finite-difference gradient and curvature checks."""

    passed: bool
    max_grad_rel_err: float
    max_upper_violation: float
    max_lower_violation: float
    violations: list = field(default_factory=list)


def validate_bounds(obj, trials: int, seed: int) -> BoundsReport:
    """Check the gradient and the two-sided curvature bounds by central differences.

    For random points and directions the directional Hessian estimate must lie
    between the mu- and L-scaled operator quadratic forms (up to a relative
    tolerance), and the directional derivative must match the gradient.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    op = obj.curvature
    max_grad_err = 0.0
    max_up = 0.0
    max_low = 0.0
    violations = []
    for _ in range(trials):
        x = rng.standard_normal(obj.n)
        v = rng.standard_normal(obj.n)
        v /= np.linalg.norm(v)
        eps = 1e-5 * (1.0 + float(np.linalg.norm(x)))
        g_plus = obj.gradient(x + eps * v)
        g_minus = obj.gradient(x - eps * v)
        h_dot_v = float((g_plus - g_minus) @ v) / (2.0 * eps)
        bvv = float(op.matvec(v) @ v)
        tol = 1e-4 * obj.L * bvv
        upper = obj.L * bvv + tol - h_dot_v
        lower = h_dot_v - (obj.mu * bvv - tol)
        max_up = max(max_up, -upper)
        max_low = max(max_low, -lower)
        if upper < 0 or lower < 0:
            violations.append((x, v, h_dot_v, bvv))

        g = obj.gradient(x)
        f_plus = obj.value(x + eps * v)
        f_minus = obj.value(x - eps * v)
        fd = (f_plus - f_minus) / (2.0 * eps)
        denom = max(abs(fd), abs(float(g @ v)), 1e-12)
        grad_err = abs(fd - float(g @ v)) / denom
        max_grad_err = max(max_grad_err, grad_err)
        if grad_err > 1e-5:
            violations.append((x, v, fd, float(g @ v)))
    return BoundsReport(
        passed=not violations,
        max_grad_rel_err=max_grad_err,
        max_upper_violation=max_up,
        max_lower_violation=max_low,
        violations=violations,
    )


def synth_classification_dataset(
    synthetic, seed: int = 0, rows: int | None = None, flip: float = 0.2
) -> DatasetMatrix:
    """Generate a sign-labeled dataset with the requested curvature spectrum.

    Labels follow the planted margins with a fraction flipped outright, which
    keeps overdetermined instances non-separable (an interior optimum is what
    makes iteration counts to a fixed gap meaningful).
    """
    rng = np.random.default_rng(seed)
    design, _ = _design_matrix(planted_spectrum(synthetic, rows), rows, rng)
    m, _ = design.shape
    planted = rng.standard_normal(design.shape[1])
    margins = design @ planted
    labels = np.where(margins > 0, 1.0, -1.0)
    labels[rng.random(m) < flip] *= -1.0
    row, col = np.nonzero(design)
    return DatasetMatrix(
        indptr=np.concatenate(([0], np.cumsum(np.count_nonzero(design, axis=1)))),
        col=col,
        val=design[row, col],
        labels=labels,
        n_features=design.shape[1],
    )
