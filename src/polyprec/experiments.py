"""Experiment configs, benchmark runs, and plot-ready CSV emission.

A run writes one CSV of per-iteration telemetry (`iter,fval,gap,matvecs,
grad_evals,ls_trials,M_k,time_ms`) plus a JSON summary, each through a
temporary file renamed into place. Gaps are measured against a reference
optimum computed once per problem, so identical seeds give identical CSVs
apart from the wall-clock column.
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
    SyntheticSpectrumSpec,
    logistic_from_dataset,
    parse_libsvm,
    synth_regression,
)
from .krylov import run_krylov_gm
from .preconditioners import build_from_descriptor, compute_alpha_beta, parse_descriptor
from .problems import CompositeObjective, HuberLoss, LogisticLoss
from .solvers import (
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
    "CSV_HEADER",
    "parse_config_file",
    "build_problem",
    "Reference",
    "reference_optimum",
    "run_experiment",
    "run_bench",
    "merge_plotdata",
]

CSV_HEADER = ["iter", "fval", "gap", "matvecs", "grad_evals", "ls_trials", "M_k", "time_ms"]

METHODS = ("gm", "fgm", "adaptive-gm", "adaptive-fgm", "krylov")

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
        _parse_loss(self.loss)
        parse_descriptor(self.precond)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.method == "krylov" and self.precond not in ("identity",):
            raise ValueError("the krylov method chooses its own polynomial; drop --precond")
        if (self.dataset is None) == (self.synthetic is None):
            raise ValueError("exactly one of dataset or synthetic must be given")
        if self.dataset is not None and self.loss != "logistic":
            raise ValueError("dataset runs use the logistic loss")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


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
    with open(path) as handle:
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
                    # Checked here too, so that a bad value names its line.
                    if key == "loss":
                        _parse_loss(raw)
                    elif key == "precond":
                        parse_descriptor(raw)
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
        dataset = parse_libsvm(config.dataset)
        return logistic_from_dataset(dataset, standardize=config.standardize)
    lam1, lam2, tail, n = config.synthetic
    spec = SyntheticSpectrumSpec(
        lam1=lam1, lam2=lam2, tail=tail, n=n, seed=config.seed, rows=config.rows
    )
    objective, _ = synth_regression(spec, _parse_loss(config.loss))
    return objective


class Reference(NamedTuple):
    """A reference optimum and what certifies it: the run's length, end and residual."""

    f_star: float
    iterations: int
    termination: str
    grad_map: float


REFERENCE_PRECOND = "inverse"

logger = logging.getLogger("polyprec")


def reference_optimum(config: ExperimentConfig, obj: CompositeObjective) -> Reference:
    """High-accuracy optimum estimate of the run's objective for gap measurements.

    Runs the adaptive fast method in the exact inverse metric (so only the
    loss curvature conditions it) for at most ten times the experiment
    budget, until its gradient map falls below 1e-12 or reaches the rounding
    floor, and keeps the best value seen (the accelerated method is not
    monotone). The run spends the objective's counters, but records count
    from their own start. A run that ends at its iteration cap has no
    certificate; it is still used, and a warning on the ``polyprec`` logger
    names the config.
    """
    budget = config.reference_iters or 10 * config.max_iters
    prec = build_from_descriptor(REFERENCE_PRECOND, obj.curvature)
    guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
    run = run_adaptive_fgm(
        obj,
        prec,
        SolverConfig(max_iters=budget, initial_guess=guess.value, tol=1e-12),
    )
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
    return Reference(f_star, run.iterations, run.termination, float(run.records[-1].grad_map))


def _reference_key(config: ExperimentConfig) -> tuple:
    """What fixes a config's reference: its problem fields and reference budget."""
    budget = config.reference_iters or 10 * config.max_iters
    return (
        config.dataset,
        config.synthetic,
        config.rows,
        config.loss,
        config.seed,
        config.standardize,
        budget,
    )


def _execute(config: ExperimentConfig, obj: CompositeObjective, f_star: float) -> RunResult:
    solver_config = SolverConfig(
        max_iters=config.max_iters,
        gap_target=config.tol,
        f_star=f_star if config.tol is not None else None,
    )
    if config.method == "krylov":
        return run_krylov_gm(obj, solver_config, config.tau)
    prec = build_from_descriptor(config.precond, obj.curvature)
    if config.method in ("gm", "fgm"):
        bounds = compute_alpha_beta(prec, obj.curvature)
        solver_config.step_constant = bounds.beta * obj.L
        if config.method == "fgm":
            solver_config.rho = bounds.alpha * obj.mu
            return run_fgm(obj, prec, solver_config)
        return run_gm(obj, prec, solver_config)
    guess = initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
    solver_config.initial_guess = guess.value
    if config.method == "adaptive-gm":
        return run_adaptive_gm(obj, prec, solver_config)
    return run_adaptive_fgm(obj, prec, solver_config)


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


def write_run_csv(path, run: RunResult, f_star: float):
    def fill(handle):
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for r in run.records:
            writer.writerow(
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
            )

    _write_atomic(path, fill)


def run_experiment(config: ExperimentConfig, references: dict | None = None) -> dict:
    """Execute one configured run; writes NAME.csv and NAME.json, returns the summary.

    ``references``, when given, maps a problem (see :func:`_reference_key`) to
    its :class:`Reference`; a run reuses the entry for its problem or adds it.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = build_problem(config)
    references = {} if references is None else references
    key = _reference_key(config)
    if key not in references:
        references[key] = reference_optimum(config, obj)
    reference = references[key]
    f_star = reference.f_star
    run = _execute(config, obj, f_star)

    csv_path = out_dir / f"{config.name}.csv"
    write_run_csv(csv_path, run, f_star)

    iterations_to_tol = None
    if config.tol is not None:
        for r in run.records:
            if r.f_value - f_star <= config.tol:
                iterations_to_tol = r.k
                break
    summary = {
        "config": asdict(config),
        "iterations": run.iterations,
        "iterations_to_tolerance": iterations_to_tol,
        "total_matvecs": run.total_matvecs(),
        "termination": run.termination,
        "f_star_reference": f_star,
        "final_fval": run.records[-1].f_value,
        "f_evals": run.records[-1].f_evals,
        "grad_evals": run.records[-1].grad_evals,
        "reference": {
            "method": "adaptive-fgm",
            "precond": REFERENCE_PRECOND,
            "iterations": reference.iterations,
            "termination": reference.termination,
            "grad_map": reference.grad_map,
            "negative_gaps": sum(r.f_value < f_star for r in run.records),
        },
    }
    _write_atomic(
        out_dir / f"{config.name}.json",
        lambda handle: json.dump(summary, handle, indent=2),
    )
    return summary


def run_bench(config_paths, out_dir=None) -> list[dict]:
    """Run a batch of config files; each produces its own CSV and summary.

    Every config is parsed and validated before the first run starts, so a bad
    file fails the batch without writing any output. Configs that share a
    problem and reference budget share one reference optimum.
    """
    configs = [parse_config_file(path) for path in config_paths]
    references: dict = {}
    summaries = []
    for config in configs:
        if out_dir is not None:
            config.out_dir = str(out_dir)
        summaries.append(run_experiment(config, references))
    return summaries


def merge_plotdata(run_dir, out_path) -> int:
    """Merge every run CSV in a directory into one long-format table.

    Adds run/method/precond columns from the JSON summaries so the result
    plots directly; returns the number of runs merged.
    """
    run_dir = Path(run_dir)
    merged = 0
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run", "method", "precond"] + CSV_HEADER)
        for summary_path in sorted(run_dir.glob("*.json")):
            with open(summary_path) as sh:
                summary = json.load(sh)
            config = summary.get("config", {})
            name = config.get("name", summary_path.stem)
            csv_path = run_dir / f"{name}.csv"
            if not csv_path.exists():
                continue
            with open(csv_path, newline="") as ch:
                reader = csv.reader(ch)
                next(reader)
                for row in reader:
                    writer.writerow(
                        [name, config.get("method", ""), config.get("precond", "")] + row
                    )
            merged += 1
    return merged
