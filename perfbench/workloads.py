"""Seeded inputs and expectations of the benchmark workloads.

Everything the program sees (the a9a-shaped data file and the flat
``key=value`` config files) is generated here from the benchmark's seed, so
the same seed gives byte-identical inputs. The program only receives the
generated files. Each workload also states what its outputs must show and
which traced boundaries it must cross.

Every workload keeps its problem fixed, and the seed only orders it: the rows
of the a9a file and the configs of the batch. No order changes the
problem, so the counts repeat exactly across seeds and the times move only
with the machine. Between problems drawn from one distribution, iterations to
a fixed gap swing by a tenth to a quarter (the adaptive step sizes take
another path), and the Jacobi eigensolver behind every spectral set-up takes
3 to 5 sweeps (gapped problems of dimension 150), which moves gapped-bench's
set-up time by about a fifth either way. Both are more than the bounds allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Shape of the a9a dataset: binary features and nonzeros per row, with a
# quarter of its 32,561 rows, so that one run repeats the solve several times.
A9A_ROWS = 8_000
A9A_FEATURES = 123
A9A_NNZ = 14

# One gap target for every run that stops on accuracy.
GAP_TOL = 1e-6

# Seed of the a9a-shaped data; the benchmark seed orders its rows.
A9A_DATA_SEED = 13

# Problem of gapped-bench: seed, dimension and iteration budgets. At this
# size one bench command takes under ten seconds, so one run repeats it.
GAPPED_PROBLEM_SEED = 204
GAPPED_DIM = 100
GAPPED_ITERS = 200
GAPPED_REFERENCE_ITERS = 1000

# Boundaries every workload crosses: one run builds a problem twice (reference
# and measured run), builds an exact sympoly preconditioner for the reference,
# and runs an adaptive method.
COMMON_BOUNDARIES = (
    "experiments.run_experiment",
    "experiments.reference_optimum",
    "experiments.build_problem",
    "experiments.write_run_csv",
    "problems.make_regression",
    "problems.value",
    "problems.gradient",
    "problems.full_value",
    "preconditioners.build_from_descriptor",
    "preconditioners.apply",
    "operators.spectral_decomposition",
    "operators.exact_traces",
    "operators.matvec",
    "solvers.initial_guess_M",
    "solvers.run_adaptive_gm",
    "solvers.run_adaptive_fgm",
)

BATCH_BOUNDARIES = (
    "experiments.run_bench",
    "experiments.parse_config_file",
    "datasets.synth_regression",
    "preconditioners.compute_alpha_beta",
    "solvers.run_gm",
    "solvers.run_fgm",
)


@dataclass
class RunSpec:
    """One run of a workload: its output name and expected termination."""

    name: str
    termination: str


@dataclass
class Workload:
    """The CLI arguments of one workload and what its outputs must show."""

    argv: list
    runs: list
    config_paths: list
    boundaries: tuple


def write_a9a_like(path: Path, seed: int) -> None:
    """Write an a9a-shaped sparse file: 14 distinct binary features per row.

    Feature frequencies are mildly skewed, which gives the Gram operator one
    large eigenvalue over a spread bulk, as one-hot census data does. Labels
    come from a planted linear model through a weak logistic link, so the
    classes overlap and the logistic optimum is interior. The rows are drawn
    from ``A9A_DATA_SEED`` and written in an order drawn from ``seed``.
    """
    rng = np.random.default_rng(A9A_DATA_SEED)
    weights = 1.0 / np.arange(1, A9A_FEATURES + 1) ** 0.3
    # Gumbel top-k: each row draws 14 distinct columns with these weights.
    keys = np.log(weights) + rng.gumbel(size=(A9A_ROWS, A9A_FEATURES))
    cols = np.sort(np.argpartition(-keys, A9A_NNZ, axis=1)[:, :A9A_NNZ], axis=1)
    planted = rng.standard_normal(A9A_FEATURES)
    margins = planted[cols].sum(axis=1)
    margins = (margins - np.median(margins)) / np.std(margins)
    probs = 1.0 / (1.0 + np.exp(-0.25 * margins))
    labels = np.where(rng.random(A9A_ROWS) < probs, 1, -1)
    order = np.random.default_rng(seed).permutation(A9A_ROWS)
    lines = [
        f"{label:+d} " + " ".join(f"{j + 1}:1" for j in row)
        for label, row in zip(labels[order].tolist(), cols[order].tolist())
    ]
    path.write_text("\n".join(lines) + "\n")


def _write_configs(work: Path, configs: list, seed: int) -> list:
    """Write one config file per run, in an order drawn from ``seed``."""
    configs = [configs[i] for i in np.random.default_rng(seed).permutation(len(configs))]
    paths = []
    for values in configs:
        path = work / f"{values['name']}.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        paths.append(str(path))
    return paths


def a9a_solve(work: Path, out: Path, seed: int) -> Workload:
    """One dataset solve to gap 1e-6 (the only tall, rows >> dim, path)."""
    data = work / "a9a.txt"
    write_a9a_like(data, seed)
    # The reference runs 10x max_iters; 60 leaves room over the 51 needed.
    options = {
        "method": "adaptive-gm",
        "precond": "sympoly:2",
        "dataset": str(data),
        "loss": "logistic",
        "max_iters": 60,
        "tol": GAP_TOL,
        "seed": seed,
    }
    argv = ["solve", "--name", "a9a", "--out", str(out)]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    # The same run as a config file, for the set-up probe.
    paths = _write_configs(work, [{"name": "a9a", **options}], seed)
    boundaries = COMMON_BOUNDARIES + (
        "datasets.parse_libsvm",
        "datasets.logistic_from_dataset",
        "datasets.standardize_columns",
        "datasets.to_dense",
    )
    return Workload(argv, [RunSpec("a9a", "gap_target")], paths, boundaries)


def gapped_bench(work: Path, out: Path, seed: int) -> Workload:
    """Eight fixed-budget configs sharing one square gapped Huber problem."""
    problem = {
        "synthetic": f"1000,300,1,{GAPPED_DIM}",
        "loss": "huber:0.1",
        "seed": GAPPED_PROBLEM_SEED,
        "max_iters": GAPPED_ITERS,
        # Half the default 10x budget; the output check confirms that no run
        # ends below the reference.
        "reference_iters": GAPPED_REFERENCE_ITERS,
    }
    methods = [
        ("gm-identity", "gm", "identity", 0),
        ("gm-sympoly2", "gm", "sympoly:2", 0),
        ("fgm-sympoly3", "fgm", "sympoly:3", 0),
        ("fgm-chebyshev4", "fgm", "chebyshev:4", 0),
        ("agm-stochastic3", "adaptive-gm", "sympoly:3:stochastic:64", 0),
        ("agm-cutting2", "adaptive-gm", "cutting:2", 0),
        ("afgm-sympoly2", "adaptive-fgm", "sympoly:2", 0),
        ("krylov3", "krylov", "identity", 3),
    ]
    configs = [
        {"name": name, "method": method, "precond": precond, "tau": tau, **problem}
        for name, method, precond, tau in methods
    ]
    paths = _write_configs(work, configs, seed)
    runs = [RunSpec(c["name"], "max_iters") for c in configs]
    boundaries = COMMON_BOUNDARIES + BATCH_BOUNDARIES + (
        "operators.stochastic_traces",
        "krylov.run_krylov_gm",
        "krylov.build_gram",
        "krylov.solve_gram",
    )
    return Workload(["bench", *paths, "--out", str(out)], runs, paths, boundaries)


WORKLOADS = {
    "a9a-solve": a9a_solve,
    "gapped-bench": gapped_bench,
}
