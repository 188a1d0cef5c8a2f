"""Argument guards of the library that no run or CLI path reaches: each call
raises its exception type with its exact message."""

import re

import numpy as np
import pytest

from polyprec import (
    ChebyshevPreconditioner,
    CompositeObjective,
    DenseOperator,
    GramOperator,
    HuberLoss,
    IdentityPreconditioner,
    MatvecOperator,
    PolynomialPreconditioner,
    Preconditioner,
    SolverConfig,
    SymmetricOperator,
    elementary_symmetric,
    exact_traces,
    initial_guess_M,
    make_quadratic,
    make_regression,
    solve_coefficient_equation,
    stochastic_traces,
    synth_regression,
    sympoly_coefficients,
    verify_adjugate,
    verify_lemma_spec,
    volume_sampling_expectation,
)
from polyprec.krylov import build_gram
from polyprec.problems import gradient_step_with_norm


def eye(n):
    return DenseOperator(np.eye(n))


def unit_quadratic():
    return make_quadratic(eye(2), np.ones(2))


# The guarded function, a call, and the type and whole message it raises.
GUARDS = [
    # operators
    (
        "SymmetricOperator",
        lambda: SymmetricOperator(0),
        ValueError,
        "operator dimension must be positive, got 0",
    ),
    (
        "SymmetricOperator._apply",
        lambda: SymmetricOperator(2).matvec(np.ones(2)),
        NotImplementedError,
        "",
    ),
    (
        "MatvecOperator.to_dense",
        lambda: MatvecOperator(2, np.negative).to_dense(),
        ValueError,
        "operator is matrix-free; no dense representation available",
    ),
    (
        "DenseOperator",
        lambda: DenseOperator(np.ones((2, 3))),
        ValueError,
        "expected a square matrix, got shape (2, 3)",
    ),
    (
        "GramOperator",
        lambda: GramOperator(np.ones(3)),
        ValueError,
        "design matrix must be two-dimensional",
    ),
    ("exact_traces", lambda: exact_traces(eye(2), 0), ValueError, "k_max must be at least 1"),
    (
        "stochastic_traces-samples",
        lambda: stochastic_traces(eye(2), 1, 0, 0),
        ValueError,
        "samples must be at least 1",
    ),
    (
        "stochastic_traces-power",
        lambda: stochastic_traces(eye(2), 0, 1, 0),
        ValueError,
        "power must be at least 1",
    ),
    (
        "elementary_symmetric-k_max",
        lambda: elementary_symmetric([1.0], -1),
        ValueError,
        "k_max must be nonnegative",
    ),
    (
        "elementary_symmetric-values",
        lambda: elementary_symmetric([1.0, -1.0], 1),
        ValueError,
        "values must be positive",
    ),
    # preconditioners
    (
        "Preconditioner.apply",
        lambda: Preconditioner().apply(eye(2), np.ones(2)),
        NotImplementedError,
        "",
    ),
    (
        "PolynomialPreconditioner-coeffs",
        lambda: PolynomialPreconditioner([]),
        ValueError,
        "coefficients must be a nonempty 1-d sequence",
    ),
    (
        "PolynomialPreconditioner-scale",
        lambda: PolynomialPreconditioner([1.0], 0.0),
        ValueError,
        "scale must be positive",
    ),
    (
        "PolynomialPreconditioner.apply",
        lambda: PolynomialPreconditioner([1.0, 2.0]).apply(eye(2), np.ones(3)),
        ValueError,
        "vector shape (3,) does not match operator dimension 2",
    ),
    (
        "ChebyshevPreconditioner",
        lambda: ChebyshevPreconditioner(2.0, 1.0, -1),
        ValueError,
        "degree must be nonnegative",
    ),
    (
        "sympoly_coefficients",
        lambda: sympoly_coefficients([1.0], 2),
        ValueError,
        "need at least 2 traces, got 1",
    ),
    # problems
    (
        "CompositeObjective",
        lambda: CompositeObjective(np.sum, np.negative, eye(2), 0.0),
        ValueError,
        "need 0 <= mu <= L with L > 0, got mu=0.0, L=0.0",
    ),
    (
        "make_regression-rows",
        lambda: make_regression(np.ones(3), np.ones(3), HuberLoss(0.1)),
        ValueError,
        "rows must form a 2-d array",
    ),
    (
        "make_regression-targets",
        lambda: make_regression(np.ones((3, 2)), np.ones(2), HuberLoss(0.1)),
        ValueError,
        "row count and target count differ",
    ),
    (
        "make_quadratic",
        lambda: make_quadratic(eye(2), np.ones(3)),
        ValueError,
        "linear term does not match operator dimension",
    ),
    (
        "gradient_step_with_norm",
        lambda: gradient_step_with_norm(
            0.0, IdentityPreconditioner(), eye(2), np.zeros(2), np.ones(2), None
        ),
        ValueError,
        "step constant must be positive",
    ),
    # solvers
    (
        "SolverConfig.start_point",
        lambda: SolverConfig(x0=np.ones(3)).start_point(2),
        ValueError,
        "x0 shape (3,) does not match dimension 2",
    ),
    (
        "solve_coefficient_equation",
        lambda: solve_coefficient_equation(2.0, -1.0, 0.0),
        ValueError,
        "rho and A must be nonnegative",
    ),
    (
        "initial_guess_M",
        lambda: initial_guess_M(unit_quadratic(), IdentityPreconditioner(), np.zeros(2), 0.0),
        ValueError,
        "trial step constant must be positive",
    ),
    # krylov
    (
        "build_gram",
        lambda: build_gram(eye(2), np.ones(2), -1),
        ValueError,
        "tau must be nonnegative",
    ),
    # datasets
    (
        "synth_regression",
        lambda: synth_regression((4.0, 2.0, 1.0, 3), "huber"),
        ValueError,
        "unsupported loss 'huber'",
    ),
    # diagnostics
    (
        "verify_lemma_spec",
        lambda: verify_lemma_spec(eye(65), 0),
        ValueError,
        "verifier is desk-scale; need n <= 64",
    ),
    (
        "verify_adjugate",
        lambda: verify_adjugate(eye(11)),
        ValueError,
        "verifier is desk-scale; need n <= 10",
    ),
    (
        "volume_sampling_expectation-n",
        lambda: volume_sampling_expectation(eye(13), 1),
        ValueError,
        "subset enumeration is desk-scale; need n <= 12",
    ),
    (
        "volume_sampling_expectation-m",
        lambda: volume_sampling_expectation(eye(3), 0),
        ValueError,
        "need 1 <= m <= n, got m=0",
    ),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*row, id=name) for name, *row in GUARDS]
)
def test_guard_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
