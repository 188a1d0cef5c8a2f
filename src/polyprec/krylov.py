"""The krylov step: per-iteration optimal polynomial steps.

Each iteration projects the scaled Newton-like direction onto the Krylov
subspace spanned by the gradient and its first tau curvature powers. A
Lanczos basis of that subspace costs at most tau + 1 matvecs and gives a
small, well-conditioned projection system; the step itself reuses the basis.
:func:`run_krylov_gm` hands this step to the shared iteration loop of
:mod:`polyprec.solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import lanczos
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


@dataclass
class GramSystem:
    """Projected curvature matrix, projected gradient, and the Krylov basis behind them."""

    matrix: np.ndarray
    rhs: np.ndarray
    basis: np.ndarray  # orthonormal columns spanning {grad, B grad, ...}


@dataclass
class KrylovStepInfo:
    """Solved step coefficients in the Krylov basis."""

    coefficients: np.ndarray
    effective_degree: int
    model_decrease: float


def build_gram(obj: CompositeObjective, x: np.ndarray, tau: int) -> GramSystem:
    """Assemble the projection system at x using at most tau + 1 matvecs.

    The Lanczos basis Q of the gradient's Krylov space gives the matrix
    ``L * Q^T B Q`` and the right-hand side ``Q^T grad``; the basis stops
    short of tau + 1 columns when the space stops growing.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    g = obj.gradient(x)
    basis, projected = lanczos(obj.curvature, g, tau + 1)
    return GramSystem(matrix=obj.L * projected, rhs=basis.T @ g, basis=basis)


def solve_gram(sys: GramSystem) -> KrylovStepInfo:
    """Solve the projection system; an empty basis (stationary point) gives a zero step."""
    coeffs = np.linalg.solve(sys.matrix, sys.rhs)
    # Model value at the solved step is -rhs @ a / 2; record the decrease.
    decrease = 0.5 * float(sys.rhs @ coeffs)
    degree = max(sys.rhs.size - 1, 0)
    return KrylovStepInfo(coeffs, effective_degree=degree, model_decrease=decrease)


def krylov_step(x: np.ndarray, info: KrylovStepInfo, sys: GramSystem) -> np.ndarray:
    """Apply the solved polynomial step in the cached basis (no matvecs)."""
    return x - sys.basis @ info.coefficients


def run_krylov_gm(obj: CompositeObjective, config: SolverConfig, tau: int) -> RunResult:
    """Gradient method with the per-iteration optimal degree-tau polynomial step.

    Defined for the smooth case only; an iteration of effective degree d
    spends d + 1 matvecs, which the records' matvec counts carry.
    """
    if obj.psi is not None:
        raise ValueError("krylov preconditioning handles the smooth case only")
    if tau < 0:
        raise ValueError("tau must be nonnegative")

    def step(x):
        sys = build_gram(obj, x, tau)
        info = solve_gram(sys)
        # Stationarity residual in the step metric; 2x the model decrease.
        grad_map = np.sqrt(max(obj.L * 2.0 * info.model_decrease, 0.0))
        return Step(krylov_step(x, info, sys), grad_map)

    return drive("krylov", obj, config, step)
