"""Experiment configs, benchmark runs, and plot-ready CSV emission.

A run writes one CSV of per-iteration telemetry (`iter,fval,gap,matvecs,
grad_evals,ls_trials,M_k,time_ms`) plus a JSON summary, each through a
temporary file renamed into place. Gaps are measured against a reference
optimum computed once per problem, so identical seeds give identical CSVs
apart from the wall-clock column: for synthetic problems at any BLAS thread
count, for dataset problems only at a fixed one (their Gram products and
eigendecomposition round differently by thread count).
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datasets import (
    logistic_from_dataset,
    open_utf8,
    parse_libsvm,
    planted_spectrum,
    synth_regression,
)
from .krylov import run_krylov_gm
from .preconditioners import (
    build_from_descriptor,
    check_exact_build,
    compute_alpha_beta,
    parse_descriptor,
)
from .problems import CompositeObjective, Costs, HuberLoss, LogisticLoss
from .solvers import (
    _RUN_NAME,
    RunResult,
    SolverConfig,
    initial_guess_M,
    run_adaptive_fgm,
    run_adaptive_gm,
    run_fgm,
    run_gm,
)

__all__ = [
    "ExperimentConfig",
    "parse_config_file",
    "Reference",
    "reference_optimum",
    "run_experiment",
    "run_bench",
    "merge_plotdata",
]

CSV_HEADER = ["iter", "fval", "gap", "matvecs", "grad_evals", "ls_trials", "M_k", "time_ms"]

METHODS = ("gm", "fgm", "adaptive-gm", "adaptive-fgm", "krylov")

# Smallest allowed value of each integer budget, and of the seed.
_MINIMUM = {"tau": 0, "max_iters": 1, "reference_iters": 1, "seed": 0}

# BLAS splits its reductions by thread count, so Gram products and A^T z
# round differently at different counts; a summary records what set it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclass
class ExperimentConfig:
    """One benchmark run: problem source, method, preconditioner, budgets."""

    name: str = "run"
    method: str = "adaptive-gm"
    precond: str = "identity"
    tau: int = 0
    dataset: str | None = None
    synthetic: tuple | None = None  # (lam1, lam2, tail, n)
    rows: int | None = None
    loss: str = "logistic"
    max_iters: int = 1000
    tol: float | None = None  # optimality-gap target against the reference
    seed: int = 0
    out_dir: str = "."
    standardize: bool = True
    reference_iters: int | None = None

    def validate(self):
        _check_fields(self)
        if self.dataset is None and self.synthetic is None:
            raise ValueError("exactly one of dataset or synthetic must be given")
        # Checked once the whole config is known: a config file may set tau
        # before it sets the method.
        if self.tau != 0 and self.method != "krylov":
            raise ValueError(
                f"tau is the degree of the krylov method; the {self.method} method "
                "ignores it, so drop --tau, or tau = in a config file"
            )


def _check_fields(config: ExperimentConfig):
    """Check every field that is set, alone and against the others.

    A config file runs this after each line, so that the line that makes a
    field bad or two fields clash is the one an error names.
    """
    if not _is_plain_name(config.name):
        raise ValueError(f"name must be a plain file name, got {config.name!r}")
    _parse_loss(config.loss)
    kind, _ = parse_descriptor(config.precond)
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}; choose from {METHODS}")
    if config.method == "krylov" and kind != "identity":
        raise ValueError(
            "the krylov method chooses its own polynomial; drop --precond, "
            "or precond = in a config file"
        )
    if config.dataset is not None and config.synthetic is not None:
        raise ValueError("exactly one of dataset or synthetic must be given")
    if config.dataset is not None and config.rows is not None:
        raise ValueError("rows sets the size of a synthetic design; a dataset has its own rows")
    if config.dataset is not None and config.loss != "logistic":
        raise ValueError("dataset runs use the logistic loss")
    if config.tol is not None and not 0 <= config.tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {config.tol}")
    for key, low in _MINIMUM.items():
        value = getattr(config, key)
        if value is not None and value < low:
            raise ValueError(f"{key} must be at least {low}, got {value}")
    if config.synthetic is not None:
        # A dataset's n is known only once it is parsed; there the
        # preconditioner build checks the degree.
        parse_descriptor(config.precond, planted_spectrum(config.synthetic, config.rows).size)


def _is_plain_name(name) -> bool:
    """Whether ``name`` is a string that names a file in its own directory."""
    if not isinstance(name, str) or name in ("", ".", ".."):
        return False
    return "/" not in name and os.sep not in name


def _parse_loss(text: str):
    """``logistic``, or ``huber`` with an optional ``:WIDTH`` (default 0.1)."""
    if text == "logistic":
        return LogisticLoss()
    name, *fields = text.split(":")
    if name != "huber" or len(fields) > 1:
        raise ValueError(f"unknown loss {text!r} (expected 'logistic' or 'huber:WIDTH')")
    return HuberLoss(float(fields[0]) if fields else 0.1)


def parse_synthetic(text: str) -> tuple:
    """The ``lam1,lam2,tail,n`` spectrum pattern of a synthetic problem."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"synthetic needs lam1,lam2,tail,n, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])


def parse_config_file(path) -> ExperimentConfig:
    """Flat key=value lines with '#' comments; a bad value reports its line."""
    config = ExperimentConfig(name=Path(path).stem)
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            try:
                if key in ("name", "method", "precond", "dataset", "loss", "out_dir"):
                    setattr(config, key, raw)
                elif key in ("tau", "max_iters", "seed", "rows", "reference_iters"):
                    setattr(config, key, int(raw))
                elif key == "tol":
                    config.tol = float(raw)
                elif key == "standardize":
                    if raw.lower() not in _TRUE_WORDS + _FALSE_WORDS:
                        raise ValueError(f"expected one of {_TRUE_WORDS + _FALSE_WORDS}")
                    config.standardize = raw.lower() in _TRUE_WORDS
                elif key == "synthetic":
                    config.synthetic = parse_synthetic(raw)
                else:
                    raise ValueError("unknown config key")
                _check_fields(config)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key!r}: {exc}") from exc
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return config


def build_problem(config: ExperimentConfig) -> CompositeObjective:
    """Fresh objective (own operator and counters) from a validated config."""
    if config.dataset is not None:
        try:
            # No name holds the parsed arrays, so the unscaled values go once
            # they are standardized, before the dense design is allocated.
            return logistic_from_dataset(
                parse_libsvm(config.dataset), standardize=config.standardize
            )
        except MemoryError as exc:
            raise ValueError(f"{config.dataset}: {exc}") from exc
    return synth_regression(config.synthetic, _parse_loss(config.loss), config.seed, config.rows)


class Reference(NamedTuple):
    """A reference optimum, what certifies it (the run's length, end and
    residual) and the :class:`Costs` it spent, its build included."""

    f_star: float
    iterations: int
    termination: str
    grad_map: float
    costs: Costs


REFERENCE_METHOD = "adaptive-fgm"
REFERENCE_PRECOND = "inverse"

logger = logging.getLogger("polyprec")


def reference_optimum(config: ExperimentConfig, obj: CompositeObjective) -> Reference:
    """High-accuracy optimum estimate of the run's objective for gap measurements.

    Runs the adaptive fast method in the exact inverse metric (so only the
    loss curvature conditions it) for at most ``reference_iters`` iterations
    (unset, ten times the experiment budget), until its gradient map falls
    below 1e-12 or reaches the rounding floor, and keeps the best value seen
    (the accelerated method is not monotone). The run spends the objective's
    counters, and the reference reports what it spent. A run that ends at its
    iteration cap has no certificate; it is still used, and a warning on the
    ``polyprec`` logger names the config.
    """
    start = obj.costs()
    solver_config = SolverConfig(max_iters=_reference_budget(config), tol=1e-12)
    prec, bounds, _ = _build(obj, REFERENCE_METHOD, REFERENCE_PRECOND)
    run, _ = _run(obj, REFERENCE_METHOD, 0, prec, bounds, solver_config)
    f_star = float(min(r.f_value for r in run.records))
    if run.termination == "max_iters":
        logger.warning(
            "reference optimum of config %r is not certified: termination %s after "
            "%d iterations (gradient map %.3e)",
            config.name,
            run.termination,
            run.iterations,
            run.records[-1].grad_map,
        )
    return Reference(
        f_star,
        run.iterations,
        run.termination,
        float(run.records[-1].grad_map),
        obj.costs() - start,
    )


def _reference_budget(config: ExperimentConfig) -> int:
    """Iteration cap of a config's reference run: ``reference_iters``, else 10 x ``max_iters``."""
    return 10 * config.max_iters if config.reference_iters is None else config.reference_iters


def _problem_key(config: ExperimentConfig) -> tuple:
    """What fixes a config's problem: the fields :func:`build_problem` reads."""
    return (
        config.dataset,
        config.synthetic,
        config.rows,
        config.loss,
        config.seed,
        config.standardize,
    )


def _reference_key(config: ExperimentConfig) -> tuple:
    """What fixes a config's reference: its problem and reference budget."""
    return _problem_key(config) + (_reference_budget(config),)


def _build(obj: CompositeObjective, method: str, precond: str) -> tuple:
    """The preconditioner ``method`` runs with, its bounds (gm and fgm only, so
    an indefinite one fails here) and the :class:`Costs` the build spent;
    krylov chooses its own polynomial at every step and builds nothing. An
    exact ``sympoly`` or ``cutting`` build that misses its guarantee fails
    here too (see :func:`check_exact_build`)."""
    if method == "krylov":
        return None, None, Costs()
    start = obj.costs()
    prec = build_from_descriptor(precond, obj.curvature)
    check_exact_build(precond, prec, obj.curvature)
    bounds = compute_alpha_beta(prec, obj.curvature) if method in ("gm", "fgm") else None
    return prec, bounds, obj.costs() - start


def _run(
    obj: CompositeObjective, method: str, tau: int, prec, bounds, solver_config: SolverConfig
) -> tuple[RunResult, int]:
    """Run ``method`` on ``obj`` from what :func:`_build` returned; the one
    dispatch of runs, references and the verify suite's envelope runs. gm and
    fgm take M = beta L and fgm rho = alpha mu from the bounds; the adaptive
    methods start from :func:`initial_guess_M` at the run's start point.
    Returns the run and the :class:`Costs` its initial guess spent; the run's
    own are in its records."""
    if method == "krylov":
        return run_krylov_gm(obj, solver_config, tau), Costs()
    if method == "fgm":
        run = run_fgm(obj, prec, solver_config, bounds.beta * obj.L, bounds.alpha * obj.mu)
        return run, Costs()
    if method == "gm":
        return run_gm(obj, prec, solver_config, bounds.beta * obj.L), Costs()
    start = obj.costs()
    guess = initial_guess_M(obj, prec, solver_config.start_point(obj.n), 1.0)
    spent = obj.costs() - start
    runner = run_adaptive_gm if method == "adaptive-gm" else run_adaptive_fgm
    return runner(obj, prec, solver_config, guess), spent


def _write_atomic(path, fill):
    """Write ``path`` through ``fill(handle)`` into a hidden temporary file beside
    it, then rename that into place; a failed write removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="") as handle:
            fill(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows):
    """Write a header and then ``rows``, an iterable of rows, as one CSV file."""

    def fill(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    _write_atomic(path, fill)


def write_json(path, payload):
    """Write ``payload`` as one indented JSON file."""
    _write_atomic(path, lambda handle: json.dump(payload, handle, indent=2))


def write_run_csv(path, run: RunResult, f_star: float):
    rows = (
        [
            r.k,
            repr(float(r.f_value)),
            repr(float(r.f_value - f_star)),
            r.matvecs,
            r.grad_evals,
            r.ls_trials,
            repr(float(r.M_k)),
            repr(float(r.time_ms)),
        ]
        for r in run.records
    )
    write_csv(path, CSV_HEADER, rows)


def run_experiment(
    config: ExperimentConfig,
    references: dict | None = None,
    problem: CompositeObjective | None = None,
) -> dict:
    """Execute one configured run; writes NAME.csv and NAME.json, returns the summary.

    ``references``, when given, maps a problem (see :func:`_reference_key`) to
    its :class:`Reference`; a run reuses the entry for its problem or adds it.
    ``problem``, when given, is the objective :func:`build_problem` made for a
    config with the same problem fields (see :func:`_problem_key`); the run
    uses it instead of building its own. Every count a run reports starts
    from the run's own start, so sharing a problem changes no output.

    The summary reports four costs (:class:`Costs`) for each span of the
    run: the build (``precond.setup``), the initial guess
    (``precond.guess``), the iterations (top-level ``total_matvecs``,
    ``f_evals``, ``grad_evals`` and ``data_passes``, what the CSV's last row
    counts) and the reference (``reference``). Over a run, the objective's
    counters move by the sum of the first three, plus the fourth when the
    run computed its reference rather than reusing one.
    """
    config.validate()
    obj = build_problem(config) if problem is None else problem
    # Built before the reference, so a failing build costs no reference run.
    prec, bounds, setup = _build(obj, config.method, config.precond)
    references = {} if references is None else references
    key = _reference_key(config)
    if key not in references:
        references[key] = reference_optimum(config, obj)
    reference = references[key]
    f_star = reference.f_star
    solver_config = SolverConfig(max_iters=config.max_iters, gap_target=config.tol, f_star=f_star)
    named = _RUN_NAME.set(config.name)  # so the run's warnings name the config
    try:
        run, guess = _run(obj, config.method, config.tau, prec, bounds, solver_config)
    finally:
        _RUN_NAME.reset(named)
    last = run.records[-1]

    # Made only now, so a run that fails before its first file leaves no directory.
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_csv(out_dir / f"{config.name}.csv", run, f_star)

    summary = {
        "config": asdict(config),
        "iterations": run.iterations,
        "iterations_to_tolerance": run.iterations if run.termination == "gap_target" else None,
        "total_matvecs": run.total_matvecs(),
        "termination": run.termination,
        "f_star_reference": f_star,
        "final_fval": last.f_value,
        "f_evals": last.f_evals,
        "grad_evals": last.grad_evals,
        "data_passes": last.data_passes,
        "precond": {
            "setup": setup._asdict(),
            "guess": guess._asdict(),
            **(asdict(bounds) if bounds else dict.fromkeys(("alpha", "beta"))),
        },
        "reference": {
            "method": REFERENCE_METHOD,
            "precond": REFERENCE_PRECOND,
            "iterations": reference.iterations,
            "termination": reference.termination,
            "grad_map": reference.grad_map,
            "negative_gaps": sum(r.f_value < f_star for r in run.records),
            **reference.costs._asdict(),
        },
        "environment": _environment(),
    }
    write_json(out_dir / f"{config.name}.json", summary)
    return summary


def _environment() -> dict:
    """What a run's numbers depend on besides its config: numpy, its BLAS, the
    cores this process may use and the BLAS thread variables as set, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):  # a numpy before 1.26 takes no mode
        blas = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cores": len(affinity(0)) if affinity else os.cpu_count(),
        **{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }


def run_bench(config_paths, out_dir=None) -> list[dict]:
    """Run a batch of config files; each produces its own CSV and summary.

    Every config is parsed and validated before the first run starts, so a bad
    file, or two files that would write the same outputs (the same directory,
    after ``out_dir`` overrides it, and name), fail the batch without writing
    any output. A config with the same problem fields as the one before it
    runs on the problem already built, and configs that share a problem and
    reference budget share one reference optimum.

    A config that fails once its runs start (a build that fails, a doubling
    cap, an unreadable dataset) writes no file, and the batch goes on. Returns
    one entry per config, in order: the run's summary, or for a failed config
    ``{"config": ..., "error": exc}`` with the exception that stopped it.
    """
    configs = [parse_config_file(path) for path in config_paths]
    writers = {}
    for path, config in zip(config_paths, configs):
        if out_dir is not None:
            config.out_dir = str(out_dir)
        target = (Path(config.out_dir) / config.name).resolve()
        if target in writers:
            raise ValueError(
                f"{writers[target]} and {path} both write {config.name}.csv and "
                f"{config.name}.json in {config.out_dir}"
            )
        writers[target] = path
    references: dict = {}
    outcomes = []
    built_key, problem = None, None
    for config in configs:
        try:
            if _problem_key(config) != built_key:
                problem = None  # let the previous problem go before the next is built
                built_key, problem = _problem_key(config), build_problem(config)
            outcomes.append(run_experiment(config, references, problem))
        except (ValueError, OSError, MemoryError, RuntimeError) as exc:
            outcomes.append({"config": asdict(config), "error": exc})
    return outcomes


def merge_plotdata(run_dir, out_path) -> int:
    """Merge every run CSV in a directory into one long-format table.

    Adds run/method/precond columns from the JSON summaries so the result
    plots directly; returns the number of runs merged. A JSON file that is
    not a run summary (no ``config`` object), whose run name is not a plain
    file name, or whose CSV is missing or has another header is skipped; one
    that is not JSON at all fails, naming the file. Both files are read as
    UTF-8, and a byte that is not fails, naming the file and its line.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ValueError(f"run directory {run_dir} is not a directory")
    merged = 0
    rows = []
    for summary_path in sorted(run_dir.glob("*.json")):
        with open_utf8(summary_path) as sh:
            try:
                summary = json.load(sh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{summary_path}: {exc}") from None
        config = summary.get("config") if isinstance(summary, dict) else None
        if not isinstance(config, dict):
            continue
        name = config.get("name", summary_path.stem)
        csv_path = run_dir / f"{name}.csv"
        if not _is_plain_name(name) or not csv_path.exists():
            continue
        with open_utf8(csv_path, newline="") as ch:
            reader = csv.reader(ch)
            if next(reader, None) != CSV_HEADER:
                continue
            labels = [name, config.get("method", ""), config.get("precond", "")]
            rows += [labels + row for row in reader]
        merged += 1
    write_csv(out_path, ["run", "method", "precond"] + CSV_HEADER, rows)
    return merged
