"""Composite objectives with a fixed curvature operator.

Every objective carries an operator B and constants (L, mu) such that the
Hessian of the smooth part stays between mu*B and L*B; smoothness is measured
in the metric of B throughout. Built-in instances are quadratics and
Huber/logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .operators import GramOperator, SpectralDecomposition, SymmetricOperator
from .preconditioners import Preconditioner

__all__ = [
    "CompositePart",
    "CompositeObjective",
    "HuberLoss",
    "LogisticLoss",
    "make_regression",
    "make_quadratic",
]


class HuberLoss:
    """Rowwise Huber loss for regression residuals.

    Quadratic within ``|t| <= mu_h`` and linear outside; both pieces and the
    derivative are continuous at the seam.
    """

    def __init__(self, mu_h: float):
        if not 0 < mu_h < np.inf:
            raise ValueError(f"huber width must be finite and positive, got {mu_h}")
        self.mu_h = float(mu_h)
        self.curvature_bound = 1.0 / mu_h  # sup of the second derivative

    def __call__(self, t):
        """Values and derivatives at the residuals ``t``."""
        mu_h = self.mu_h
        abst = np.abs(t)
        value = np.where(abst <= mu_h, t * t / (2.0 * mu_h), abst - mu_h / 2.0)
        deriv = np.minimum(np.maximum(t / mu_h, -1.0), 1.0)  # np.clip's bits, less overhead
        return value, deriv


class LogisticLoss:
    """Rowwise softplus loss of classification margins, overflow-safe at both ends.

    The value is max(t, 0) + log1p(exp(-|t|)), the formula of
    ``logaddexp(0, t)`` in numpy's vectorized exp and log1p loops. The
    derivative is computed as exp(t - softplus(t)) so the exponent is never
    positive.
    """

    curvature_bound = 0.25

    def __call__(self, t):
        """Values and sigmoid derivatives at the margins ``t``."""
        value = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
        return value, np.exp(t - value)


@dataclass(frozen=True)
class CompositePart:
    """Nonsmooth part psi of F = f + psi, with its metric proximal oracle.

    ``value(y)`` evaluates psi, and ``prox(M, prec, op, x, g) -> (y,
    step_norm_sq)`` returns the minimizer of ``<g, y> + psi(y) + (M/2)
    ||y - x||^2`` in the inverse-preconditioner metric together with that
    squared step norm. A smooth objective has no composite part
    (``psi=None``) and the solvers take the closed-form step.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable

    def __post_init__(self):
        for name in ("value", "prox"):
            if not callable(getattr(self, name)):
                raise ValueError(f"a composite part requires a callable {name} oracle")


class Costs(NamedTuple):
    """An objective's four cost counters, as :meth:`CompositeObjective.costs`
    reads them; the difference of two readings is what was spent between them."""

    matvecs: int = 0
    f_evals: int = 0
    grad_evals: int = 0
    data_passes: int = 0

    def __sub__(self, other: Costs) -> Costs:
        return Costs(*(now - then for now, then in zip(self, other)))


class CompositeObjective:
    """Smooth convex function plus optional composite part, under one curvature operator.

    ``f_evals``/``grad_evals`` count oracle calls made by algorithms;
    telemetry readouts go through :meth:`full_value`, which touches no counter
    (not even the operator's matvecs, which a quadratic's value spends). The
    counts are calls to :meth:`value` and :meth:`gradient`, not data passes:
    a value callable may reuse work across calls at the same point, as the
    regression objectives of :func:`make_regression` do. ``data_passes``
    counts the products with a regression objective's design that the
    oracles and readouts spend (zero for other objectives). :meth:`costs`
    reads these three counters and the operator's matvecs in one snapshot.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], float],
        gradient: Callable[[np.ndarray], np.ndarray],
        curvature: SymmetricOperator,
        L: float,
        mu: float = 0.0,
        psi: CompositePart | None = None,
        f_star: float | None = None,
        x_star: np.ndarray | None = None,
    ):
        if not L > 0 or mu < 0 or mu > L:
            raise ValueError(f"need 0 <= mu <= L with L > 0, got mu={mu}, L={L}")
        self._value = value
        self._gradient = gradient
        self.curvature = curvature
        self.L = float(L)
        self.mu = float(mu)
        self.psi = psi
        self.f_star = f_star
        self.x_star = x_star
        self.f_evals = 0
        self.grad_evals = 0
        self.data_passes = 0

    @property
    def n(self) -> int:
        """The dimension, the curvature operator's."""
        return self.curvature.dim

    def costs(self) -> Costs:
        """The counters now: curvature matvecs, value calls, gradient calls, data passes."""
        return Costs(self.curvature.matvecs, self.f_evals, self.grad_evals, self.data_passes)

    def value(self, x: np.ndarray) -> float:
        self.f_evals += 1
        return float(self._value(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.grad_evals += 1
        return np.asarray(self._gradient(x), dtype=float)

    def full_value(self, x: np.ndarray) -> float:
        """Smooth plus composite value without touching the evaluation or matvec counters."""
        matvecs = self.curvature.matvecs
        value = float(self._value(x))
        self.curvature.matvecs = matvecs
        if self.psi is not None:
            value += float(self.psi.value(x))
        return value


def make_regression(
    rows,
    targets,
    loss: HuberLoss | LogisticLoss,
    spectral: SpectralDecomposition | None = None,
) -> CompositeObjective:
    """Separable regression objective: rowwise loss of the residuals ``rows @ x - targets``.

    The curvature operator is the Gram matrix of the rows, exposed
    matrix-free; its dense form is available for desk-scale spectra, and
    ``spectral``, when given, is its known eigendecomposition (see
    :class:`GramOperator`). L is the loss's curvature bound and mu is zero
    (both built-in losses have flat tails).

    Value and gradient share a cache of the last two loss evaluations, so a
    point's value and gradient cost one forward product between them, and a
    point evaluated again costs none: a telemetry readout after the accepted
    line-search trial, or the start point after :func:`initial_guess_M` has
    also evaluated its trial point. The cache counts no oracle call:
    ``f_evals`` and ``grad_evals`` still count every one. ``data_passes``
    counts one forward product per cache miss and one adjoint product per
    gradient, readouts included.
    """
    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must form a 2-d array")
    if rows.shape[0] != targets.size:
        raise ValueError("row count and target count differ")
    if rows.shape[0] == 0:
        raise ValueError("empty data")
    curvature = GramOperator(rows, spectral)

    # (point key, loss value sum, loss derivative) of the last evaluations,
    # newest first; the tuple is replaced whole so a reader never sees a mixed
    # one. The key is the point's shape and a copy of its bytes, so a caller
    # mutating its array cannot poison the cache, and only a bitwise-equal
    # point hits it.
    cached = ()

    def evaluate(x):
        nonlocal cached
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        entries = cached
        for entry in entries:
            if entry[0] == key:
                return entry
        obj.data_passes += 1
        values, deriv = loss(rows @ x - targets)
        entry = (key, float(values.sum()), deriv)
        cached = (entry, *entries[:1])
        return entry

    def value(x):
        return evaluate(x)[1]

    def gradient(x):
        deriv = evaluate(x)[2]
        obj.data_passes += 1
        return rows.T @ deriv

    obj = CompositeObjective(
        value=value,
        gradient=gradient,
        curvature=curvature,
        L=loss.curvature_bound,
        mu=0.0,
    )
    return obj


def make_quadratic(B: SymmetricOperator, b: np.ndarray) -> CompositeObjective:
    """Quadratic objective with the operator itself as the Hessian (L = mu = 1)."""
    b = np.asarray(b, dtype=float)
    if b.shape != (B.dim,):
        raise ValueError("linear term does not match operator dimension")

    def value(x):
        return 0.5 * float(B.matvec(x) @ x) - float(b @ x)

    def gradient(x):
        return B.matvec(x) - b

    x_star = None
    f_star = None
    if B.is_dense:
        x_star = np.linalg.solve(B.to_dense(), b)
        f_star = -0.5 * float(b @ x_star)
    return CompositeObjective(
        value=value,
        gradient=gradient,
        curvature=B,
        L=1.0,
        mu=1.0,
        f_star=f_star,
        x_star=x_star,
    )


def gradient_step_with_norm(
    M: float,
    prec: Preconditioner,
    op: SymmetricOperator,
    x: np.ndarray,
    g: np.ndarray,
    psi: CompositePart | None,
):
    """Metric gradient step and its squared step norm in the inverse metric.

    With no composite part (``psi`` None) the step is closed-form and the norm follows from
    ``M ||y - x||^2 = <g, x - y>`` in that metric, avoiding any inversion.
    """
    if M <= 0:
        raise ValueError("step constant must be positive")
    if psi is None:
        y = x - prec.apply(op, g) / M
        step_norm_sq = float(g @ (x - y)) / M
        return y, step_norm_sq
    y, step_norm_sq = psi.prox(M, prec, op, x, g)
    return np.asarray(y, dtype=float), float(step_norm_sq)

