"""Matrix-free convex optimization with polynomial preconditioning."""

from .operators import (
    DenseOperator,
    GramOperator,
    MatvecOperator,
    SymmetricOperator,
    elementary_symmetric,
    exact_traces,
    lanczos,
    spectral_decomposition,
    stochastic_traces,
)
from .preconditioners import (
    ChebyshevPreconditioner,
    IdentityPreconditioner,
    IndefinitePreconditionerError,
    MatrixPreconditioner,
    PolynomialPreconditioner,
    Preconditioner,
    QualityBounds,
    build_from_descriptor,
    build_sympoly,
    chebyshev_polynomial,
    compute_alpha_beta,
    cutting_preconditioner,
    gamma_of_polynomial,
    inverse_preconditioner,
    parse_descriptor,
    sympoly_coefficients,
    xi_tau,
)
from .problems import (
    CompositeObjective,
    CompositePart,
    HuberLoss,
    LogisticLoss,
    make_quadratic,
    make_regression,
)
from .solvers import (
    FGMState,
    RunResult,
    SolverConfig,
    fgm_step,
    initial_guess_M,
    quadratic_growth_predicate,
    run_adaptive_fgm,
    run_adaptive_gm,
    run_fgm,
    run_gm,
    solve_coefficient_equation,
)
from .krylov import KrylovStepInfo, build_gram, run_krylov_gm, solve_gram
from .diagnostics import (
    CheckReport,
    fgm_envelopes,
    gm_envelopes,
    krylov_envelope,
    proposition_bounds,
    run_verification_suite,
    verify_adjugate,
    verify_lemma_spec,
    verify_sandwich,
    volume_sampling_expectation,
    xi_table,
)
from .datasets import (
    DatasetMatrix,
    SyntheticSpectrumSpec,
    logistic_from_dataset,
    parse_libsvm,
    standardize_columns,
    synth_regression,
    write_libsvm,
)
from .experiments import (
    ExperimentConfig,
    Reference,
    merge_plotdata,
    parse_config_file,
    reference_optimum,
    run_bench,
    run_experiment,
)

__version__ = "0.1.0"
