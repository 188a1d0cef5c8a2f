"""Polynomial preconditioners and their quality metrics.

The trace-recursion family (``sympoly``), eigenvalue-cutting and Chebyshev
constructions all produce polynomials in the curvature operator; applying a
degree-tau preconditioner costs tau matvecs. Quality is measured either by the
two-sided spectral bounds (alpha, beta) or by the scalar deviation gamma of
``s * p(s)`` from 1 over the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    PolynomialCoefficients,
    SymmetricOperator,
    apply_polynomial,
    elementary_symmetric,
    exact_traces,
    spectral_decomposition,
    stochastic_traces,
)

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "PolynomialPreconditioner",
    "ChebyshevPreconditioner",
    "MatrixPreconditioner",
    "QualityBounds",
    "IndefinitePreconditionerError",
    "sympoly_coefficients",
    "build_sympoly",
    "compute_alpha_beta",
    "gamma_of_polynomial",
    "gamma_of_preconditioner",
    "cutting_polynomial",
    "cutting_preconditioner",
    "chebyshev_T",
    "chebyshev_polynomial",
    "chebyshev_preconditioner",
    "inverse_preconditioner",
    "xi_tau",
    "parse_descriptor",
    "build_from_descriptor",
]

# Monomial expansion of shifted Chebyshev polynomials loses roughly one bit
# per degree; beyond this cap the coefficients are unusable in double
# precision even though the recurrence-based application stays accurate.
CHEBYSHEV_COEFF_DEGREE_CAP = 20


class IndefinitePreconditionerError(ValueError):
    """Raised when the spectral lower bound alpha of a preconditioner is not positive."""

    def __init__(self, alpha: float, beta: float):
        super().__init__(
            f"preconditioner is indefinite on the operator spectrum: "
            f"alpha={alpha:.6e}, beta={beta:.6e}"
        )
        self.alpha = alpha
        self.beta = beta


@dataclass(frozen=True)
class QualityBounds:
    """Two-sided spectral quality bounds of a preconditioner."""

    alpha: float
    beta: float

    @property
    def cond(self) -> float:
        return self.beta / self.alpha


class Preconditioner:
    """Base class; concrete kinds are identity, polynomial, chebyshev, matrix."""

    descriptor: str = "base"

    @property
    def degree(self) -> int:
        raise NotImplementedError

    def apply(self, op: SymmetricOperator, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_at(self, s):
        """Evaluate the underlying polynomial at scalar/array points.

        Matrix-backed preconditioners have no polynomial and raise.
        """
        raise ValueError(f"{self.descriptor} preconditioner has no scalar form")

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor!r})"


class PolynomialPreconditioner(Preconditioner):
    """Preconditioner given by explicit polynomial coefficients."""

    def __init__(self, coefficients: PolynomialCoefficients, descriptor: str = "coeffs"):
        self.coefficients = coefficients
        self.descriptor = descriptor

    @property
    def degree(self):
        return self.coefficients.degree

    def apply(self, op, v):
        return apply_polynomial(self.coefficients, op, v)

    def eval_at(self, s):
        return self.coefficients(s)


class IdentityPreconditioner(PolynomialPreconditioner):
    """The degree-0 polynomial 1: applies as a copy of the vector at zero matvecs."""

    def __init__(self):
        super().__init__(PolynomialCoefficients(np.ones(1)), "identity")


class ChebyshevPreconditioner(Preconditioner):
    """Chebyshev approximation of the inverse on a spectral interval.

    Stored as the interval endpoints plus the degree; both application and
    scalar evaluation use the stable three-term recurrence, so arbitrary
    degrees are fine (unlike the monomial expansion).
    """

    def __init__(self, lam_max: float, lam_min: float, tau: int):
        if not lam_max > lam_min > 0:
            raise ValueError(
                "need lam_max > lam_min > 0; for a single-point spectrum use "
                "the constant polynomial 1/lam_max directly"
            )
        if tau < 0:
            raise ValueError("degree must be nonnegative")
        self.lam_max = float(lam_max)
        self.lam_min = float(lam_min)
        self.tau = int(tau)
        self.descriptor = f"chebyshev:{tau}"

    @property
    def degree(self):
        return self.tau

    def _u0(self) -> float:
        return (self.lam_max + self.lam_min) / (self.lam_max - self.lam_min)

    def apply(self, op, v):
        v = np.asarray(v, dtype=float)
        width = self.lam_max - self.lam_min
        shift = self.lam_max + self.lam_min
        u0 = self._u0()

        def u_op(w):
            return (shift * w - 2.0 * op.matvec(w)) / width

        d_prev, d_cur = 1.0, u0
        y_prev = np.zeros_like(v)
        y_cur = (2.0 / width) * v
        for _ in range(self.tau):
            y_next = (4.0 / width) * d_cur * v + 2.0 * u_op(y_cur) - y_prev
            d_next = 2.0 * u0 * d_cur - d_prev
            y_prev, y_cur = y_cur, y_next
            d_prev, d_cur = d_cur, d_next
        return y_cur / d_cur

    def eval_at(self, s):
        s = np.asarray(s, dtype=float)
        u = (self.lam_max + self.lam_min - 2.0 * s) / (self.lam_max - self.lam_min)
        t = chebyshev_T(self.tau + 1, u)
        d = chebyshev_T(self.tau + 1, self._u0())
        return (1.0 - t / d) / s


class MatrixPreconditioner(Preconditioner):
    """Explicit dense preconditioning matrix (e.g. the exact inverse)."""

    def __init__(self, matrix: np.ndarray, descriptor: str = "inverse"):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("preconditioning matrix must be square")
        self.matrix = matrix
        self.descriptor = descriptor

    @property
    def degree(self):
        return 0

    def apply(self, op, v):
        return self.matrix @ np.asarray(v, dtype=float)


def sympoly_coefficients(traces, tau: int) -> PolynomialCoefficients:
    """Coefficients of the degree-tau trace-recursion preconditioner.

    Runs the polynomial recursion seeded with the operator power traces,
    then normalizes so the largest coefficient magnitude is one (the raw
    coefficients grow combinatorially with the trace sizes); the divisor is
    kept in ``scale``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    traces = np.asarray(traces, dtype=float)
    if traces.size < tau:
        raise ValueError(f"need at least {tau} traces, got {traces.size}")
    polys = [np.array([1.0])]
    for t in range(1, tau + 1):
        acc = np.zeros(t + 1)
        for i in range(1, t + 1):
            sign = 1.0 if i % 2 == 1 else -1.0
            prev = polys[t - i]
            acc[: prev.size] += sign * traces[i - 1] * prev
            acc[i : i + prev.size] -= sign * prev
        polys.append(acc / t)
    raw = polys[tau]
    scale = float(np.max(np.abs(raw)))
    if scale == 0.0:
        return PolynomialCoefficients(raw, scale=1.0)
    return PolynomialCoefficients(raw / scale, scale=scale)


def build_sympoly(
    op: SymmetricOperator,
    tau: int,
    trace_mode: str = "exact",
    samples: int = 256,
    seed: int = 0,
) -> PolynomialPreconditioner:
    """Construct the degree-tau trace-recursion preconditioner for an operator."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau > op.dim - 1:
        raise ValueError(
            f"tau={tau} exceeds dim-1={op.dim - 1}; higher degrees are redundant"
        )
    if trace_mode == "exact":
        if not op.is_dense:
            raise ValueError("exact trace mode requires a dense-capable operator")
        traces = exact_traces(op, tau) if tau >= 1 else np.empty(0)
        descriptor = f"sympoly:{tau}"
    elif trace_mode == "stochastic":
        traces = stochastic_traces(op, tau, samples, seed) if tau >= 1 else np.empty(0)
        descriptor = f"sympoly:{tau}:stochastic:{samples}:{seed}"
    else:
        raise ValueError(f"unknown trace mode {trace_mode!r}")
    return PolynomialPreconditioner(sympoly_coefficients(traces, tau), descriptor)


def compute_alpha_beta(prec: Preconditioner, op: SymmetricOperator) -> QualityBounds:
    """Tightest two-sided spectral bounds of a preconditioner on a dense operator.

    For polynomial preconditioners these are the extremes of ``lam * p(lam)``
    over the operator spectrum; explicit matrices go through the symmetric
    congruence with the operator square root. Raises
    :class:`IndefinitePreconditionerError` when the lower bound is not positive.
    """
    dec = spectral_decomposition(op)
    lam = dec.eigenvalues
    try:
        vals = lam * np.asarray(prec.eval_at(lam), dtype=float)
    except ValueError:
        if not isinstance(prec, MatrixPreconditioner):
            raise
        root = dec.eigenvectors @ np.diag(np.sqrt(lam)) @ dec.eigenvectors.T
        vals = np.linalg.eigvalsh(root @ prec.matrix @ root)
    alpha = float(np.min(vals))
    beta = float(np.max(vals))
    if alpha <= 0:
        raise IndefinitePreconditionerError(alpha, beta)
    return QualityBounds(alpha=alpha, beta=beta)


def gamma_of_polynomial(p: PolynomialCoefficients, spectrum) -> float:
    """Worst deviation of ``s * p(s)`` from one over a discrete spectrum."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.size and np.min(spectrum) <= 0:
        raise ValueError("spectrum must be positive")
    return float(np.max(np.abs(spectrum * p(spectrum) - 1.0)))


def gamma_of_preconditioner(prec: Preconditioner, points) -> float:
    """Worst deviation of ``s * p(s)`` from one over given points, any polynomial kind."""
    points = np.asarray(points, dtype=float)
    return float(np.max(np.abs(points * np.asarray(prec.eval_at(points)) - 1.0)))


def cutting_polynomial(lam_top, lam_n: float, tau: int) -> PolynomialCoefficients:
    """Degree-tau polynomial with roots placed at the top tau eigenvalues.

    ``lam_top`` holds the leading tau+1 eigenvalues; the construction zeroes
    the residual at the first tau of them and balances the remaining interval
    with the optimal constant 2 / (lam_top[tau] + lam_n). The division by s is
    exact because the constant term cancels identically.
    """
    lam_top = np.asarray(lam_top, dtype=float)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if lam_top.size != tau + 1:
        raise ValueError(f"need the top tau+1={tau + 1} eigenvalues, got {lam_top.size}")
    if lam_n <= 0 or np.min(lam_top) <= 0:
        raise ValueError("eigenvalues must be positive")
    if np.any(np.diff(lam_top) > 0) or lam_top[-1] < lam_n:
        raise ValueError("eigenvalues must be sorted descending with lam_n smallest")
    q = np.array([1.0])
    for lam in lam_top[:tau]:
        q = np.convolve(q, np.array([1.0, -1.0 / lam]))
    a = 2.0 / (lam_top[tau] + lam_n)
    r = np.convolve(q, np.array([-1.0, a]))
    r[0] += 1.0  # exactly zero
    return PolynomialCoefficients(r[1:], scale=1.0)


def cutting_preconditioner(spectrum, tau: int) -> PolynomialPreconditioner:
    """Cutting polynomial built from a full descending spectrum."""
    spectrum = np.asarray(spectrum, dtype=float)
    if tau > spectrum.size - 1:
        raise ValueError(f"tau={tau} exceeds n-1={spectrum.size - 1}")
    p = cutting_polynomial(spectrum[: tau + 1], float(spectrum[-1]), tau)
    return PolynomialPreconditioner(p, descriptor=f"cutting:{tau}")


def chebyshev_T(k: int, x):
    """Chebyshev polynomial of the first kind by the three-term recurrence."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    t_prev = np.ones_like(x)
    if k == 0:
        return t_prev if t_prev.ndim else float(t_prev)
    t_cur = x.copy()
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur if t_cur.ndim else float(t_cur)


def chebyshev_polynomial(lam1: float, lamn: float, tau: int) -> PolynomialCoefficients:
    """Monomial coefficients of the Chebyshev inverse-approximation polynomial.

    The shifted-argument recurrence is expanded in the monomial basis, which
    loses about one bit of accuracy per degree; degrees above
    ``CHEBYSHEV_COEFF_DEGREE_CAP`` raise instead of returning garbage (use
    :class:`ChebyshevPreconditioner` there, whose recurrence form is stable).
    """
    if not lam1 > lamn > 0:
        raise ValueError(
            "need lam1 > lamn > 0; for lam1 == lamn use the constant 1/lam1"
        )
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau > CHEBYSHEV_COEFF_DEGREE_CAP:
        raise ValueError(
            f"monomial expansion is inaccurate beyond degree "
            f"{CHEBYSHEV_COEFF_DEGREE_CAP} (got {tau})"
        )
    width = lam1 - lamn
    shifted = np.array([(lam1 + lamn) / width, -2.0 / width])
    t_prev = np.array([1.0])
    t_cur = shifted.copy()
    for _ in range(tau):
        t_next = 2.0 * np.convolve(shifted, t_cur)
        t_next[: t_prev.size] -= t_prev
        t_prev, t_cur = t_cur, t_next
    # Constant term of t_cur equals T_{tau+1} at the shift point, so the
    # numerator of (1 - Q)/s starts at exactly zero.
    return PolynomialCoefficients(-t_cur[1:] / t_cur[0], scale=1.0)


def chebyshev_preconditioner(lam1: float, lamn: float, tau: int) -> ChebyshevPreconditioner:
    return ChebyshevPreconditioner(lam1, lamn, tau)


def inverse_preconditioner(op: SymmetricOperator) -> MatrixPreconditioner:
    """Moore-Penrose inverse of a dense-capable operator, the paper's exact endpoint.

    Only eigenvalues above ``lam_max * n * eps`` are inverted; the rest are
    rounding noise of a singular operator (say, a Gram matrix with a feature
    that never occurs) and map to zero, so the result stays finite.
    """
    dec = spectral_decomposition(op)
    lam = dec.eigenvalues
    keep = lam > lam[0] * lam.size * np.finfo(float).eps
    q = dec.eigenvectors[:, keep]
    return MatrixPreconditioner((q / lam[keep]) @ q.T, descriptor="inverse")


def xi_tau(spectrum, tau: int) -> float:
    """Condition-number shrink factor of the degree-tau trace-recursion family.

    Ratio of the tau-th elementary symmetric polynomial of the spectrum with
    the largest eigenvalue removed to the same with the smallest removed,
    computed scale-free with a shared scale.
    """
    spectrum = np.sort(np.asarray(spectrum, dtype=float))[::-1]
    n = spectrum.size
    if not 0 <= tau <= n - 1:
        raise ValueError(f"tau={tau} out of range for spectrum of size {n}")
    if np.min(spectrum) <= 0:
        raise ValueError("spectrum must be positive")
    top_removed = elementary_symmetric(spectrum[1:], tau)
    bottom_removed = elementary_symmetric(spectrum[:-1], tau)
    # Combine the per-call scales in ratio form; the base is at most one.
    base = top_removed.scale / bottom_removed.scale
    return float(
        top_removed.sigma[tau] / bottom_removed.sigma[tau] * base**tau
    )


# Integer fields of each descriptor form: (required, optional).
_DESCRIPTOR_FIELDS = {
    "identity": (0, 0),
    "inverse": (0, 0),
    "chebyshev": (1, 0),
    "cutting": (1, 0),
    "sympoly": (1, 0),
    "sympoly:stochastic": (1, 2),
}


def parse_descriptor(text: str) -> tuple[str, list[int]]:
    """Check a preconditioner descriptor and split it into its form and integers.

    Understood forms: ``identity``, ``inverse``, ``sympoly:T``,
    ``sympoly:T:stochastic[:S[:SEED]]`` (form ``sympoly:stochastic``),
    ``chebyshev:T`` and ``cutting:T``. Anything else, a trailing field
    included, raises a ValueError naming the text.
    """
    kind, *fields = text.strip().split(":")
    if kind == "sympoly" and fields[1:2] == ["stochastic"]:
        kind = "sympoly:stochastic"
        del fields[1]
    if kind not in _DESCRIPTOR_FIELDS:
        raise ValueError(f"unknown preconditioner descriptor {text!r}")
    required, optional = _DESCRIPTOR_FIELDS[kind]
    if len(fields) < required:
        raise ValueError(f"descriptor {text!r} is missing a degree")
    if len(fields) > required + optional:
        raise ValueError(f"unexpected fields in descriptor {text!r}")
    try:
        return kind, [int(field) for field in fields]
    except ValueError as exc:
        raise ValueError(f"bad integer in descriptor {text!r}") from exc


def build_from_descriptor(text: str, op: SymmetricOperator) -> Preconditioner:
    """Build a preconditioner from its serialized text form (see :func:`parse_descriptor`).

    The spectral constructions require a dense-capable operator.
    """
    kind, numbers = parse_descriptor(text)
    if kind == "identity":
        return IdentityPreconditioner()
    if kind == "inverse":
        return inverse_preconditioner(op)
    tau = numbers[0]
    if kind == "sympoly":
        return build_sympoly(op, tau, "exact")
    if kind == "sympoly:stochastic":
        # Optional sample count and seed; build_sympoly holds their defaults.
        return build_sympoly(op, tau, "stochastic", *numbers[1:])
    dec = spectral_decomposition(op)
    if kind == "chebyshev":
        return chebyshev_preconditioner(dec.lam_max, dec.lam_min, tau)
    return cutting_preconditioner(dec.eigenvalues, tau)
