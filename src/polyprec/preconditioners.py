"""Polynomial preconditioners and their quality metrics.

The trace-recursion family (``sympoly``), eigenvalue-cutting and Chebyshev
constructions all produce polynomials in the curvature operator; applying a
degree-tau preconditioner costs tau matvecs. Quality is measured either by the
two-sided spectral bounds (alpha, beta) or by the scalar deviation gamma of
``s * p(s)`` from 1 over the spectrum. Every function here that reads a
spectrum takes it in any order, finite and positive, with a degree in
0..n-1, and raises a ValueError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    MatvecOperator,
    SymmetricOperator,
    _descending_spectrum,
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
    "compute_alpha_beta",
    "gamma_of_polynomial",
    "cutting_preconditioner",
    "inverse_preconditioner",
    "xi_tau",
    "proposition_bounds",
    "parse_descriptor",
    "build_from_descriptor",
]

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


class Preconditioner:
    """Base class; concrete kinds are polynomial (identity included), chebyshev, the
    exact inverse and the krylov step of :mod:`polyprec.krylov`, whose polynomial
    depends on its vector. A polynomial's scalar form is its ``apply`` on a diagonal."""

    def apply(self, op: SymmetricOperator, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_at(self, s):
        """The scalar form p(s) as p(diag(s)) times a vector of ones, at scalar or
        array points, typed as ``np.polynomial.polynomial.polyval`` returns."""
        s = np.asarray(s, dtype=float)
        if s.size == 0:
            return np.empty(s.shape)
        points = s.ravel()
        diagonal = MatvecOperator(points.size, points.__mul__)
        return self.apply(diagonal, np.ones(points.size)).reshape(s.shape)[()]


@dataclass(frozen=True, eq=False)
class PolynomialPreconditioner(Preconditioner):
    """A polynomial in the operator, coefficients lowest degree first.

    ``scale`` is the factor divided out when the coefficients were normalized;
    ``coeffs * scale`` recovers the unnormalized polynomial.
    """

    coeffs: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not (self.scale > 0):
            raise ValueError("scale must be positive")

    def apply(self, op, v):
        """The polynomial in the operator times ``v`` by the Horner scheme, at one
        matvec per degree."""
        v = np.asarray(v, dtype=float)
        if v.shape != (op.dim,):
            raise ValueError(
                f"vector shape {v.shape} does not match operator dimension {op.dim}"
            )
        c = self.coeffs
        result = c[-1] * v
        for i in range(c.size - 2, -1, -1):
            result = op.matvec(result) + c[i] * v
        return result


class IdentityPreconditioner(PolynomialPreconditioner):
    """The degree-0 polynomial 1: applies as a copy of the vector at zero matvecs."""

    def __init__(self):
        super().__init__(np.ones(1))


class ChebyshevPreconditioner(Preconditioner):
    """Chebyshev approximation of the inverse on a spectral interval.

    Stored as the interval endpoints plus the degree; application, and so the
    scalar form, runs the stable three-term recurrence, which stays accurate
    at any degree; no monomial coefficients are ever formed.
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

    def apply(self, op, v):
        v = np.asarray(v, dtype=float)
        width = self.lam_max - self.lam_min
        shift = self.lam_max + self.lam_min
        u0 = shift / width

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


class MatrixPreconditioner(Preconditioner):
    """The exact inverse as a dense matrix (see :func:`inverse_preconditioner`).

    Its ``apply`` ignores the operator, so its scalar form is its own: 1/s
    above ``cutoff``, the eigenvalue below which the operator counts as
    singular, and 0 below it.
    """

    def __init__(self, matrix: np.ndarray, cutoff: float):
        self.matrix = matrix
        self.cutoff = cutoff

    def apply(self, op, v):
        return self.matrix @ np.asarray(v, dtype=float)

    def eval_at(self, s):
        s = np.asarray(s, dtype=float)
        return np.divide(1.0, s, out=np.zeros_like(s), where=s > self.cutoff)


def sympoly_coefficients(traces, tau: int) -> PolynomialPreconditioner:
    """The degree-tau trace-recursion preconditioner of the given power traces.

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
    scale = float(np.max(np.abs(raw))) or 1.0
    return PolynomialPreconditioner(raw / scale, scale)


def compute_alpha_beta(prec: Preconditioner, op: SymmetricOperator) -> QualityBounds:
    """Tightest two-sided spectral bounds of a preconditioner on a dense operator.

    These are the extremes of ``lam * p(lam)`` over the operator spectrum on
    its range, ``p`` the preconditioner's scalar form. Raises
    :class:`IndefinitePreconditionerError` when the lower bound is not positive.
    """
    lam = spectral_decomposition(op).range_eigenvalues
    vals = lam * prec.eval_at(lam)
    alpha = float(np.min(vals))
    beta = float(np.max(vals))
    if alpha <= 0:
        raise IndefinitePreconditionerError(alpha, beta)
    return QualityBounds(alpha=alpha, beta=beta)


def gamma_of_polynomial(prec: Preconditioner, points) -> float:
    """Worst deviation of ``s * p(s)`` from one over a spectrum of points, ``p``
    the preconditioner's scalar form."""
    points = _descending_spectrum(points)
    return float(np.max(np.abs(points * prec.eval_at(points) - 1.0)))


def cutting_preconditioner(spectrum, tau: int) -> PolynomialPreconditioner:
    """Degree-tau polynomial with roots placed at the top tau eigenvalues.

    ``spectrum`` is the full spectrum, in any order; sorted descending, the
    construction zeroes the residual at its first tau eigenvalues and
    balances the remaining interval with the optimal constant
    a = 2 / (spectrum[tau] + spectrum[-1]). The residual 1 - s p(s) is the
    product of the factors (1 - s / lam) and (1 - a s), whose ascending
    coefficients are those of ``np.poly`` on the reciprocal roots; its
    constant term 1 cancels exactly, so p is minus the others.
    """
    spectrum = _descending_spectrum(spectrum, tau)
    a = 2.0 / (spectrum[tau] + spectrum[-1])
    return PolynomialPreconditioner(-np.poly(np.append(1.0 / spectrum[:tau], a))[1:])


def inverse_preconditioner(op: SymmetricOperator) -> MatrixPreconditioner:
    """Moore-Penrose inverse of a dense-capable operator, the paper's exact endpoint.

    Only the eigenvalues on the operator's range are inverted; the rest (see
    :class:`SpectralDecomposition`) map to zero, so the result stays finite.
    """
    dec = spectral_decomposition(op)
    keep = dec.eigenvalues > dec.cutoff
    q = dec.eigenvectors[:, keep]
    return MatrixPreconditioner((q / dec.eigenvalues[keep]) @ q.T, dec.cutoff)


def xi_tau(spectrum, tau: int) -> float:
    """Condition-number shrink factor of the degree-tau trace-recursion family.

    Ratio of the tau-th elementary symmetric polynomial of the spectrum with
    the largest eigenvalue removed to the same with the smallest removed,
    computed scale-free with a shared scale.
    """
    spectrum = _descending_spectrum(spectrum, tau)
    top_removed, top_scale = elementary_symmetric(spectrum[1:], tau)
    bottom_removed, bottom_scale = elementary_symmetric(spectrum[:-1], tau)
    # Combine the per-call scales in ratio form; the base is at most one.
    base = top_scale / bottom_scale
    return float(top_removed[tau] / bottom_removed[tau] * base**tau)


def _sigma_removed(lam: np.ndarray, remove: int, tau: int) -> float:
    """Elementary symmetric polynomial of the spectrum with one entry removed."""
    reduced = np.delete(lam, remove)
    sigma, scale = elementary_symmetric(reduced, tau)
    # numpy's array power: Python's float power rounds some powers differently.
    return float((sigma * scale ** np.arange(sigma.size))[tau])


def sandwich_slack(spectrum, prec: PolynomialPreconditioner, tau: int) -> float:
    """Slack of the two-sided eigenvalue bounds of a degree-tau trace-recursion member.

    On the spectrum, sorted descending, every product lam_i * p(lam_i), with p
    unnormalized, must lie between lam_n and lam_1 times the tau-th
    elementary symmetric polynomial of the spectrum without lam_n and lam_1
    respectively; the slack is the worst excursion beyond either bound,
    relative to the upper one.
    """
    lam = _descending_spectrum(spectrum, tau)
    vals = lam * prec.eval_at(lam) * prec.scale
    lower = lam[-1] * _sigma_removed(lam, lam.size - 1, tau)
    upper = lam[0] * _sigma_removed(lam, 0, tau)
    return max(
        float(np.max((lower - vals) / upper, initial=0.0)),
        float(np.max((vals - upper) / upper, initial=0.0)),
    )


def proposition_bounds(spectrum, tau: int):
    """Guaranteed condition number of cutting and uniform error of Chebyshev.

    Returns ``(cutting_cond, chebyshev_gamma)`` for degree tau on the given
    spectrum, in any order: lam_(tau+1) / lam_n, the condition number left
    once the top tau eigenvalues are cut, and 2 q^(tau+1) with
    q = (sqrt(lam_1) - sqrt(lam_n)) / (sqrt(lam_1) + sqrt(lam_n)).
    """
    spectrum = _descending_spectrum(spectrum, tau)
    root_top, root_bottom = np.sqrt(spectrum[0]), np.sqrt(spectrum[-1])
    q = (root_top - root_bottom) / (root_top + root_bottom)
    return float(spectrum[tau] / spectrum[-1]), float(2.0 * q ** (tau + 1))


def cutting_excess(spectrum, prec: Preconditioner, tau: int) -> float:
    """How far a degree-tau cutting polynomial's gamma exceeds its guaranteed bound.

    The bound on the spectrum, in any order, is (k - 1) / (k + 1), with k
    the condition number :func:`proposition_bounds` guarantees once the top
    tau eigenvalues are cut; a correct build's excess is at most rounding.
    """
    cond, _ = proposition_bounds(spectrum, tau)
    return gamma_of_polynomial(prec, spectrum) - (cond - 1.0) / (cond + 1.0)


# Largest deviation from its guarantee that an exact sympoly or cutting build
# may show. Monomial coefficients lose the guarantee as the degree grows: on
# the gapped benchmark problem sympoly up to degree 9 and cutting up to 4
# pass, while sympoly:10 misses by 2.4e-5 and cutting:5 by 3.1e-4.
BUILD_TOLERANCE = 1e-6


def check_exact_build(text: str, prec: Preconditioner, op: SymmetricOperator):
    """Raise a ValueError when an exact ``sympoly`` or ``cutting`` build misses its
    guarantee on the operator's range spectrum: :func:`sandwich_slack` or
    :func:`cutting_excess` above :data:`BUILD_TOLERANCE`. Other forms pass."""
    kind, numbers = parse_descriptor(text)
    if kind not in ("sympoly", "cutting"):
        return
    check = sandwich_slack if kind == "sympoly" else cutting_excess
    deviation = check(spectral_decomposition(op).range_eigenvalues, prec, numbers[0])
    if not deviation <= BUILD_TOLERANCE:
        raise ValueError(
            f"{text!r} misses its spectral guarantee on this operator by {deviation:.3e} "
            f"(tolerance {BUILD_TOLERANCE:.0e}); rounding in its coefficients grows "
            "with the degree, so use a lower one"
        )


# Integer fields of each descriptor form: how many are required, the
# defaults of the optional ones after them (stochastic traces: S and SEED),
# and whether the first is a degree capped at n - 1 (the adjugate's).
_DESCRIPTOR_FIELDS = {
    "identity": (0, (), False),
    "inverse": (0, (), False),
    "chebyshev": (1, (), False),
    "cutting": (1, (), True),
    "sympoly": (1, (), True),
    "sympoly:stochastic": (1, (256, 0), True),
}

# Name and smallest allowed value of each integer field, in descriptor order.
_FIELD_MINIMUM = (("degree", 0), ("sample count", 1), ("seed", 0))


def parse_descriptor(text: str, n: int | None = None) -> tuple[str, list[int]]:
    """Check a preconditioner descriptor and split it into its form and integers.

    Understood forms: ``identity``, ``inverse``, ``sympoly:T``,
    ``sympoly:T:stochastic[:S[:SEED]]`` (form ``sympoly:stochastic``: traces
    estimated from S probe vectors drawn from seed SEED, 256 and 0 when left
    out), ``chebyshev:T`` and ``cutting:T``. The integers are the form's
    fields with the defaults of those the text leaves out filled in. Anything
    else, a trailing field or a negative degree, sample count below 1 or
    negative seed included, raises a ValueError naming the text; so does, for
    an operator of size ``n`` when it is given, a ``sympoly`` or ``cutting``
    degree above n - 1.
    """
    kind, *fields = text.strip().split(":")
    if kind == "sympoly" and fields[1:2] == ["stochastic"]:
        kind = "sympoly:stochastic"
        del fields[1]
    if kind not in _DESCRIPTOR_FIELDS:
        raise ValueError(f"unknown preconditioner descriptor {text!r}")
    required, defaults, capped = _DESCRIPTOR_FIELDS[kind]
    if len(fields) < required:
        raise ValueError(f"descriptor {text!r} is missing a degree")
    if len(fields) > required + len(defaults):
        raise ValueError(f"unexpected fields in descriptor {text!r}")
    try:
        numbers = [int(field) for field in fields]
    except ValueError as exc:
        raise ValueError(f"bad integer in descriptor {text!r}") from exc
    for number, (name, low) in zip(numbers, _FIELD_MINIMUM):
        if number < low:
            raise ValueError(f"{name} must be at least {low} in descriptor {text!r}")
    if capped and n is not None and numbers[0] > n - 1:
        raise ValueError(f"degree {numbers[0]} of {text!r} exceeds n-1={n - 1}")
    return kind, numbers + list(defaults[len(numbers) - required :])


def build_from_descriptor(text: str, op: SymmetricOperator) -> Preconditioner:
    """Build a preconditioner from its serialized text form (see :func:`parse_descriptor`).

    A ``sympoly`` form runs the trace recursion on exact or estimated traces.
    Its degree, and ``cutting``'s, is at most ``op.dim - 1``, and an exact
    form's at most the rank minus one, checked before any trace or root is
    formed: above it the polynomial is singular on the operator's range. The
    spectral constructions, exact traces included, require a dense-capable
    operator.
    """
    kind, numbers = parse_descriptor(text, op.dim)
    if kind == "identity":
        return IdentityPreconditioner()
    if kind == "inverse":
        return inverse_preconditioner(op)
    tau, *options = numbers
    if kind == "sympoly:stochastic":
        return sympoly_coefficients(stochastic_traces(op, tau, *options) if tau else [], tau)
    dec = spectral_decomposition(op)
    if kind == "chebyshev":
        return ChebyshevPreconditioner(dec.lam_max, dec.lam_min, tau)
    spectrum = dec.range_eigenvalues
    if tau > spectrum.size - 1:
        raise ValueError(
            f"{text!r} is singular on the operator's range: degree {tau} exceeds "
            f"rank-1={spectrum.size - 1}"
        )
    if kind == "sympoly":
        return sympoly_coefficients(exact_traces(op, tau) if tau else [], tau)
    return cutting_preconditioner(spectrum, tau)
