"""The krylov step: per-iteration optimal polynomial steps.

Each iteration projects the scaled Newton-like direction onto the Krylov
subspace spanned by the gradient and its first tau curvature powers. The
projection coefficients come from a small Gram system assembled with exactly
2*tau + 1 matvecs; the step itself reuses the cached powers.
:func:`run_krylov_gm` hands this step to the shared iteration loop of
:mod:`polyprec.solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import CompositeObjective
from .solvers import RunResult, SolverConfig, Step, drive

__all__ = [
    "GramSystem",
    "KrylovStepInfo",
    "build_gram",
    "solve_gram",
    "krylov_step",
    "run_krylov_gm",
]

PIVOT_THRESHOLD = 1e-12


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    # Pairwise summation: the power inner products span many magnitudes.
    return float(np.sum(u * v))


@dataclass
class GramSystem:
    """Gram matrix, moment vector, and the cached gradient powers behind them."""

    matrix: np.ndarray
    rhs: np.ndarray
    powers: list  # powers[m] = B^m grad, m = 0 .. 2*tau + 1
    grad: np.ndarray


@dataclass
class KrylovStepInfo:
    """Solved step coefficients, zero-padded past the effective degree."""

    coefficients: np.ndarray
    effective_degree: int
    model_decrease: float


def build_gram(obj: CompositeObjective, x: np.ndarray, tau: int) -> GramSystem:
    """Assemble the projection system at x using 2*tau + 1 matvecs.

    Entry (i, j) of the matrix is L times the moment of order i + j + 1 of
    the gradient against the curvature operator; the moment vector holds
    orders 0 .. tau. All entries are inner products of cached powers.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    op = obj.curvature
    g = obj.gradient(x)
    powers = [g]
    for _ in range(2 * tau + 1):
        powers.append(op.matvec(powers[-1]))
    size = tau + 1
    matrix = np.empty((size, size))
    rhs = np.empty(size)
    for i in range(size):
        rhs[i] = _dot(powers[0], powers[i])
        for j in range(i, size):
            value = obj.L * _dot(powers[0], powers[i + j + 1])
            matrix[i, j] = value
            matrix[j, i] = value
    return GramSystem(matrix=matrix, rhs=rhs, powers=powers, grad=g)


def solve_gram(sys: GramSystem) -> KrylovStepInfo:
    """Solve the projection system, truncating degenerate trailing directions.

    The moment diagonal spans many orders of magnitude (it grows with the
    operator powers), so the system is first scaled to unit diagonal; a
    Cholesky pivot of the scaled matrix falling below the threshold then
    signals a genuinely dependent Krylov direction. The solve restricts to
    the leading well-posed block, which is the projection onto the
    nondegenerate subspace; coefficients beyond it are zero.
    """
    matrix = sys.matrix
    rhs = sys.rhs
    m = rhs.size
    coeffs = np.zeros(m)
    diag = matrix.diagonal().copy()
    positive = diag > 0.0
    if not np.any(positive):
        return KrylovStepInfo(coeffs, effective_degree=0, model_decrease=0.0)
    limit = int(np.argmin(positive)) if not positive.all() else m
    if limit == 0:
        return KrylovStepInfo(coeffs, effective_degree=0, model_decrease=0.0)
    root = np.sqrt(diag[:limit])
    scaled = matrix[:limit, :limit] / np.outer(root, root)
    chol = np.zeros((limit, limit))
    size = limit
    for i in range(limit):
        pivot = scaled[i, i] - _dot(chol[i, :i], chol[i, :i])
        if pivot <= PIVOT_THRESHOLD:
            size = i
            break
        chol[i, i] = np.sqrt(pivot)
        for j in range(i + 1, limit):
            chol[j, i] = (scaled[j, i] - _dot(chol[j, :i], chol[i, :i])) / chol[i, i]
    if size == 0:
        return KrylovStepInfo(coeffs, effective_degree=0, model_decrease=0.0)
    block = chol[:size, :size]
    scaled_rhs = rhs[:size] / root[:size]
    y = np.linalg.solve(block, scaled_rhs)
    coeffs[:size] = np.linalg.solve(block.T, y) / root[:size]
    # Model value at the solved step is -rhs @ a / 2; record the decrease.
    decrease = 0.5 * float(rhs[:size] @ coeffs[:size])
    return KrylovStepInfo(coeffs, effective_degree=size - 1, model_decrease=decrease)


def krylov_step(
    obj: CompositeObjective, x: np.ndarray, info: KrylovStepInfo, sys: GramSystem
) -> np.ndarray:
    """Apply the solved polynomial step using the cached powers (no matvecs)."""
    step = np.zeros_like(x)
    for a_i, w_i in zip(info.coefficients, sys.powers):
        if a_i != 0.0:
            step += a_i * w_i
    return x - step


def run_krylov_gm(obj: CompositeObjective, config: SolverConfig, tau: int) -> RunResult:
    """Gradient method with the per-iteration optimal degree-tau polynomial step.

    Defined for the smooth case only; the telemetry records the effective
    degree actually used each iteration.
    """
    if not obj.psi.is_zero:
        raise ValueError("krylov preconditioning handles the smooth case only")
    if tau < 0:
        raise ValueError("tau must be nonnegative")

    def step(x):
        sys = build_gram(obj, x, tau)
        info = solve_gram(sys)
        # Stationarity residual in the step metric; 2x the model decrease.
        grad_map = np.sqrt(max(obj.L * 2.0 * info.model_decrease, 0.0))
        return Step(krylov_step(obj, x, info, sys), grad_map, eff_degree=info.effective_degree)

    return drive("krylov", obj, config, step)
