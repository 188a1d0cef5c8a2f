"""Composite objectives with a fixed curvature operator.

Every objective carries an operator B and constants (L, mu) such that the
Hessian of the smooth part stays between mu*B and L*B; smoothness is measured
in the metric of B throughout. Built-in instances are quadratics and
Huber/logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import GramOperator, SymmetricOperator
from .preconditioners import Preconditioner

__all__ = [
    "CompositePart",
    "RegressionData",
    "CompositeObjective",
    "HuberLoss",
    "LogisticLoss",
    "BoundsReport",
    "huber",
    "logistic",
    "make_regression",
    "make_quadratic",
    "gradient_step_with_norm",
    "validate_bounds",
]


def huber(t, mu_h: float):
    """Huber value and derivative; quadratic within ``|t| <= mu_h``, linear outside.

    Both pieces and the derivative are continuous at the seam.
    """
    if mu_h <= 0:
        raise ValueError("huber width must be positive")
    t = np.asarray(t, dtype=float)
    abst = np.abs(t)
    value = np.where(abst <= mu_h, t * t / (2.0 * mu_h), abst - mu_h / 2.0)
    deriv = np.clip(t / mu_h, -1.0, 1.0)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def logistic(t):
    """Softplus value and sigmoid derivative, overflow-safe at both ends.

    The value is max(t, 0) + log1p(exp(-|t|)), the formula of
    ``logaddexp(0, t)`` in numpy's vectorized exp and log1p loops. The
    derivative is computed as exp(t - softplus(t)) so the exponent is never
    positive.
    """
    t = np.asarray(t, dtype=float)
    value = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    deriv = np.exp(t - value)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


class HuberLoss:
    """Rowwise Huber loss for regression residuals."""

    def __init__(self, mu_h: float):
        if mu_h <= 0:
            raise ValueError("huber width must be positive")
        self.mu_h = float(mu_h)
        self.curvature_bound = 1.0 / mu_h  # sup of the second derivative

    name = "huber"

    def __call__(self, t):
        return huber(t, self.mu_h)

    def describe(self) -> str:
        return f"huber:{self.mu_h:g}"


class LogisticLoss:
    name = "logistic"
    curvature_bound = 0.25

    def __call__(self, t):
        return logistic(t)

    def describe(self) -> str:
        return "logistic"


@dataclass
class RegressionData:
    """Dense design rows, targets, and the rowwise loss."""

    rows: np.ndarray
    targets: np.ndarray
    loss: HuberLoss | LogisticLoss

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError("rows must form a 2-d array")
        if self.rows.shape[0] != self.targets.size:
            raise ValueError("row count and target count differ")
        if self.rows.shape[0] == 0:
            raise ValueError("empty data")


@dataclass
class CompositePart:
    """Optional nonsmooth part with its metric proximal oracle.

    The zero kind means no composite term and lets solvers use the closed-form
    step. A custom kind must provide ``value(y)`` and a ``prox`` oracle
    ``(M, prec, op, x, g) -> (y, step_norm_sq)`` returning the minimizer of
    ``<g, y> + value(y) + (M/2) ||y - x||^2`` in the inverse-preconditioner
    metric together with that squared step norm.
    """

    kind: str = "zero"
    value: Callable[[np.ndarray], float] | None = None
    prox: Callable | None = None

    @classmethod
    def zero(cls) -> "CompositePart":
        return cls(kind="zero")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def evaluate(self, y: np.ndarray) -> float:
        if self.is_zero:
            return 0.0
        return float(self.value(y))


class CompositeObjective:
    """Smooth convex function plus optional composite part, under one curvature operator.

    ``f_evals``/``grad_evals`` count oracle calls made by algorithms;
    telemetry readouts go through :meth:`raw_value`, which touches no counter
    (not even the operator's matvecs, which a quadratic's value spends). The
    counts are calls to :meth:`value` and :meth:`gradient`, not data passes:
    a value callable may reuse work across calls at the same point, as the
    regression objectives of :func:`make_regression` do.
    """

    def __init__(
        self,
        n: int,
        value: Callable[[np.ndarray], float],
        gradient: Callable[[np.ndarray], np.ndarray],
        curvature: SymmetricOperator,
        L: float,
        mu: float = 0.0,
        psi: CompositePart | None = None,
        f_star: float | None = None,
        x_star: np.ndarray | None = None,
    ):
        if curvature.dim != n:
            raise ValueError("curvature operator dimension does not match n")
        if not L > 0 or mu < 0 or mu > L:
            raise ValueError(f"need 0 <= mu <= L with L > 0, got mu={mu}, L={L}")
        self.n = n
        self._value = value
        self._gradient = gradient
        self.curvature = curvature
        self.L = float(L)
        self.mu = float(mu)
        self.psi = psi if psi is not None else CompositePart.zero()
        self.f_star = f_star
        self.x_star = x_star
        self.f_evals = 0
        self.grad_evals = 0

    def value(self, x: np.ndarray) -> float:
        self.f_evals += 1
        return float(self._value(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.grad_evals += 1
        return np.asarray(self._gradient(x), dtype=float)

    def raw_value(self, x: np.ndarray) -> float:
        """Objective value without touching the evaluation or matvec counters."""
        matvecs = self.curvature.matvecs
        value = float(self._value(x))
        self.curvature.matvecs = matvecs
        return value

    def full_value(self, x: np.ndarray) -> float:
        """Smooth plus composite value, uncounted (telemetry)."""
        return self.raw_value(x) + self.psi.evaluate(x)


def make_regression(data: RegressionData) -> CompositeObjective:
    """Separable regression objective: rowwise loss of the residuals.

    The curvature operator is the Gram matrix of the rows, exposed
    matrix-free; its dense form is available for desk-scale spectra. L is the
    loss's curvature bound and mu is zero (both built-in losses have flat
    tails).

    Value and gradient share a one-point cache of the last loss evaluation,
    so a point's value and gradient cost one forward product between them,
    and a point evaluated again (a telemetry readout after the accepted
    line-search trial) costs none. The cache counts nothing: ``f_evals`` and
    ``grad_evals`` still count every oracle call.
    """
    rows = data.rows
    targets = data.targets
    loss = data.loss
    curvature = GramOperator(rows)

    # (point, loss value sum, loss derivative) of the last evaluation, replaced
    # whole so a reader never sees a mixed triple; the point is a copy so a
    # caller mutating its array cannot poison the cache.
    cached = None

    def evaluate(x):
        nonlocal cached
        entry = cached
        if entry is None or not np.array_equal(entry[0], x):
            values, deriv = loss(rows @ x - targets)
            entry = (np.array(x, dtype=float), float(np.sum(values)), deriv)
            cached = entry
        return entry

    def value(x):
        return evaluate(x)[1]

    def gradient(x):
        return rows.T @ evaluate(x)[2]

    return CompositeObjective(
        n=rows.shape[1],
        value=value,
        gradient=gradient,
        curvature=curvature,
        L=loss.curvature_bound,
        mu=0.0,
    )


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
        n=B.dim,
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
    psi: CompositePart,
):
    """Metric gradient step and its squared step norm in the inverse metric.

    With no composite part the step is closed-form and the norm follows from
    ``M ||y - x||^2 = <g, x - y>`` in that metric, avoiding any inversion.
    """
    if M <= 0:
        raise ValueError("step constant must be positive")
    if psi.is_zero:
        y = x - prec.apply(op, g) / M
        step_norm_sq = float(g @ (x - y)) / M
        return y, step_norm_sq
    if psi.prox is None:
        raise ValueError("custom composite part requires a prox oracle")
    y, step_norm_sq = psi.prox(M, prec, op, x, g)
    return np.asarray(y, dtype=float), float(step_norm_sq)


@dataclass
class BoundsReport:
    """Outcome of the finite-difference gradient and curvature checks."""

    passed: bool
    max_grad_rel_err: float
    max_upper_violation: float
    max_lower_violation: float
    violations: list = field(default_factory=list)


def validate_bounds(obj: CompositeObjective, trials: int, seed: int) -> BoundsReport:
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
