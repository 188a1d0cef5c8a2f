"""Matrix-free symmetric operators, spectral utilities, and symmetric polynomials.

The elementary symmetric polynomials of a spectrum, which the sympoly family,
its shrink factor and the verified identities are built from, are the
coefficient magnitudes of the polynomial with that spectrum as roots, from
``np.poly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SymmetricOperator",
    "DenseOperator",
    "MatvecOperator",
    "GramOperator",
    "spectral_decomposition",
    "lanczos",
    "exact_traces",
    "stochastic_traces",
    "elementary_symmetric",
]


class SymmetricOperator:
    """A symmetric positive definite operator exposed through matrix-vector products.

    The ``matvecs`` attribute counts products applied through :meth:`matvec`
    and is the cost unit reported by all solvers. Operators are otherwise
    immutable, so one keeps its eigendecomposition once computed (see
    :func:`spectral_decomposition`). Runs may share an operator, since each
    counts from its own start: ``bench`` builds a problem once for each run of
    consecutive configs with the same problem fields.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"operator dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.matvecs = 0
        self._spectral: SpectralDecomposition | None = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(
                f"vector shape {v.shape} does not match operator dimension {self.dim}"
            )
        self.matvecs += 1
        return self._apply(v)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_dense(self) -> bool:
        """Whether a dense matrix (and hence an eigendecomposition) is available."""
        return False

    def to_dense(self) -> np.ndarray:
        raise ValueError("operator is matrix-free; no dense representation available")


class DenseOperator(SymmetricOperator):
    """Operator backed by an explicit symmetric matrix."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        asym = np.max(np.abs(matrix - matrix.T))
        scale = max(np.max(np.abs(matrix)), 1.0)
        if asym > 1e-10 * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        super().__init__(matrix.shape[0])
        self.matrix = 0.5 * (matrix + matrix.T)

    def _apply(self, v):
        return self.matrix @ v

    @property
    def is_dense(self):
        return True

    def to_dense(self):
        return self.matrix


class MatvecOperator(SymmetricOperator):
    """Operator defined by a user-supplied matvec callable."""

    def __init__(self, dim: int, fn: Callable[[np.ndarray], np.ndarray]):
        super().__init__(dim)
        self._fn = fn

    def _apply(self, v):
        return np.asarray(self._fn(v), dtype=float)


class GramOperator(SymmetricOperator):
    """The Gram matrix of a data matrix, applied as two products with the data.

    A tall design (more rows than columns) is applied through its n x n Gram
    matrix instead, formed once by :meth:`to_dense`. A square or wide design
    keeps the two products, which round alike at any BLAS thread count where
    the formed Gram does not (on the planted n = 100 design of seed 204,
    ``design.T @ design`` differs bitwise between one and two OpenBLAS
    threads), so a synthetic run's CSV is the same at any count. Not forming
    the Gram keeps memory from growing only for library callers: every
    dataset run's reference forms it for its ``inverse`` preconditioner.
    Either way one application counts as a single matvec: the Gram matrix is
    the curvature operator and its products are the unit of cost.

    ``spectral``, when given, is the Gram's known eigendecomposition (a
    generator that planted the spectrum has it); the operator keeps it in
    place of the one :func:`spectral_decomposition` would compute.
    """

    def __init__(self, design: np.ndarray, spectral: SpectralDecomposition | None = None):
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        super().__init__(design.shape[1])
        if spectral is not None and spectral.eigenvectors.shape != (self.dim, self.dim):
            raise ValueError(
                f"decomposition shape {spectral.eigenvectors.shape} does not match "
                f"operator dimension {self.dim}"
            )
        self.design = design
        self._dense: np.ndarray | None = None
        self._spectral = spectral

    def _apply(self, v):
        if self.design.shape[0] > self.dim:
            return self.to_dense() @ v
        return self.design.T @ (self.design @ v)

    @property
    def is_dense(self):
        return True

    def to_dense(self):
        if self._dense is None:
            self._dense = self.design.T @ self.design
        return self._dense


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending and the matching orthonormal eigenvectors.

    Both arrays are made read-only, since every user of an operator shares them.
    Eigenvalues at or below ``cutoff`` (``lam_max * n * eps``) are rounding noise
    of a singular operator, whichever sign they round to, so ``lam_min`` and
    ``range_eigenvalues`` judge the spectrum on the operator's range.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def cutoff(self) -> float:
        return self.lam_max * self.eigenvalues.size * np.finfo(float).eps

    @property
    def range_eigenvalues(self) -> np.ndarray:
        kept = self.eigenvalues[self.eigenvalues > self.cutoff]
        if kept.size == 0:
            raise ValueError("the operator is zero up to rounding; its range is empty")
        return kept

    @property
    def lam_min(self) -> float:
        return float(self.range_eigenvalues[-1])


def spectral_decomposition(op: SymmetricOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a dense-capable operator, eigenvalues descending.

    Computed once per operator and kept on it: traces, the spectral
    preconditioners, their quality bounds and the exact inverse all share one
    ``eigh``, or none when the operator was built with its decomposition.
    """
    if not op.is_dense:
        raise ValueError("spectral decomposition requires a dense-capable operator")
    if op._spectral is None:
        vals, vecs = np.linalg.eigh(op.to_dense())
        op._spectral = SpectralDecomposition(
            eigenvalues=vals[::-1], eigenvectors=vecs[:, ::-1]
        )
    return op._spectral


# A new Lanczos direction whose reorthogonalized norm falls to this fraction of
# the product it came from means the Krylov space has stopped growing.
LANCZOS_BREAKDOWN = 1e-6


def lanczos(op: SymmetricOperator, v: np.ndarray, steps: int):
    """Orthonormal basis Q of the Krylov space of ``v`` and the projection T = Q^T B Q.

    Runs at most ``steps`` Lanczos steps at one matvec each, so Q spans
    ``{v, Bv, ..., B^(m-1) v}`` with m <= steps columns. Each new direction is
    reorthogonalized twice against the whole basis, which keeps Q orthonormal
    and T tridiagonal to rounding. The run stops early at a breakdown (the
    space stopped growing); a zero ``v`` gives an empty basis.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros((op.dim, 0)), np.zeros((0, 0))
    columns = [v / norm]
    diagonal: list[float] = []
    offdiagonal: list[float] = []
    while True:
        w = op.matvec(columns[-1])
        diagonal.append(float(columns[-1] @ w))
        if len(columns) == steps:
            break
        Q = np.column_stack(columns)
        r = w - Q @ (Q.T @ w)
        r -= Q @ (Q.T @ r)
        beta = float(np.linalg.norm(r))
        if beta <= LANCZOS_BREAKDOWN * float(np.linalg.norm(w)):
            break
        offdiagonal.append(beta)
        columns.append(r / beta)
    T = np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)
    return np.column_stack(columns), T


def exact_traces(op: SymmetricOperator, k_max: int) -> np.ndarray:
    """Traces of the first ``k_max`` operator powers via the dense eigendecomposition."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lam = spectral_decomposition(op).eigenvalues
    return np.array([float(np.sum(lam**k)) for k in range(1, k_max + 1)])


def stochastic_traces(
    op: SymmetricOperator, k_max: int, samples: int, seed: int
) -> np.ndarray:
    """Monte-Carlo estimates of the traces of the first ``k_max`` operator powers.

    Averages ``n * <B^k u, u>`` over unit-sphere directions u drawn as
    normalized Gaussians, sharing the draws across powers so each sample
    costs ``k_max`` matvecs. Deterministic for a fixed seed; unbiased.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if k_max < 1:
        raise ValueError("power must be at least 1")
    rng = np.random.default_rng(seed)
    n = op.dim
    draws = rng.standard_normal((samples, n))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    estimates = np.empty((samples, k_max))
    for i in range(samples):
        u = draws[i]
        w = u
        for k in range(k_max):
            w = op.matvec(w)
            estimates[i, k] = n * float(w @ u)
    return np.mean(estimates, axis=0)


def elementary_symmetric(values, k_max: int) -> tuple[np.ndarray, float]:
    """Elementary symmetric polynomials up to order ``k_max``, as ``(sigma, scale)``.

    ``sigma[k]`` is the k-th elementary symmetric polynomial of the inputs
    divided by ``scale``, their maximum, since the raw values grow
    combinatorially; ratios at equal k are therefore scale-free, and
    ``sigma * scale ** np.arange(sigma.size)`` restores the raw values when
    they fit in double precision. The sums are the magnitudes of the
    coefficients of the polynomial with the scaled inputs as roots.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if k_max > m:
        raise ValueError(f"k_max={k_max} exceeds the number of values {m}")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if m and np.min(values) <= 0:
        raise ValueError("values must be positive")
    scale = float(np.max(values)) if m else 1.0
    return np.abs(np.atleast_1d(np.poly(values / scale)))[: k_max + 1], scale
