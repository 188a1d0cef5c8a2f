"""The krylov step: the gradient method with a per-vector optimal polynomial.

Applied to a gradient g, :class:`KrylovPreconditioner` returns the step that
minimizes the curvature model over the Krylov subspace spanned by g and its
first tau curvature powers. A Lanczos basis of that subspace costs at most
tau + 1 matvecs and gives a small, well-conditioned projected system.
:func:`run_krylov_gm` runs the fixed-step gradient method of
:mod:`polyprec.solvers` with it at M = L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SymmetricOperator, lanczos
from .preconditioners import Preconditioner
from .problems import CompositeObjective
from .solvers import RunResult, SolverConfig, run_gm

__all__ = [
    "KrylovStepInfo",
    "build_gram",
    "solve_gram",
    "run_krylov_gm",
]


@dataclass
class KrylovStepInfo:
    """Solved step coefficients in the Krylov basis."""

    coefficients: np.ndarray
    effective_degree: int


def build_gram(op: SymmetricOperator, v: np.ndarray, tau: int):
    """Lanczos basis Q of the Krylov space of v and ``Q^T B Q``, at most tau + 1
    matvecs; the basis is shorter when the space stops growing."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return lanczos(op, v, tau + 1)


def solve_gram(basis: np.ndarray, projected: np.ndarray, v: np.ndarray) -> KrylovStepInfo:
    """Solve the projected system for v; an empty basis (v = 0) gives no coefficients."""
    coeffs = np.linalg.solve(projected, basis.T @ v)
    return KrylovStepInfo(coeffs, effective_degree=max(coeffs.size - 1, 0))


class KrylovPreconditioner(Preconditioner):
    """``Q T^-1 Q^T v`` from the degree-tau Krylov space of v; no scalar form."""

    def __init__(self, tau: int):
        self.tau = tau

    def apply(self, op, v):
        basis, projected = build_gram(op, v, self.tau)
        return basis @ solve_gram(basis, projected, v).coefficients

    def eval_at(self, s):
        raise ValueError("the krylov step depends on its vector and has no scalar form")


def run_krylov_gm(obj: CompositeObjective, config: SolverConfig, tau: int) -> RunResult:
    """Gradient method at M = L with the per-iteration optimal degree-tau step.

    Defined for the smooth case only; an iteration of effective degree d
    spends d + 1 matvecs, which the records' matvec counts carry.
    """
    if obj.psi is not None:
        raise ValueError("krylov preconditioning handles the smooth case only")
    return run_gm(obj, KrylovPreconditioner(tau), config, obj.L)
