"""Run one polyprec CLI command in-process with its layer boundaries traced.

Usage: python3 perfbench/trace_probe.py RESULT.json CLI-ARGS...

Each public boundary is wrapped under the name its *calling* module binds:
modules import functions by name, so patching only the defining module would
miss the calls. Coarse boundaries keep one span per call; hot per-iteration
calls (matvec, value, gradient, apply and the krylov Gram steps) keep a
count, a total and per-call durations instead. A layer's self time is the
time inside its boundaries minus the time inside the boundaries they call.
Writes the per-layer metrics, the calls per boundary and the spans.
"""

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import polyprec.cli as cli
import polyprec.datasets as datasets
import polyprec.experiments as experiments
import polyprec.krylov as krylov
import polyprec.operators as operators
import polyprec.preconditioners as preconditioners
import polyprec.problems as problems

LAYERS = (
    "datasets",
    "operators",
    "preconditioners",
    "problems",
    "solvers",
    "krylov",
    "experiments",
    "cli",
)

# (module or class whose binding the callers use, attribute, boundary name)
COARSE = [
    (cli, "run_experiment", "experiments.run_experiment"),
    (cli, "run_bench", "experiments.run_bench"),
    (experiments, "run_experiment", "experiments.run_experiment"),
    (experiments, "parse_config_file", "experiments.parse_config_file"),
    (experiments, "reference_optimum", "experiments.reference_optimum"),
    (experiments, "build_problem", "experiments.build_problem"),
    (experiments, "write_run_csv", "experiments.write_run_csv"),
    (experiments, "parse_libsvm", "datasets.parse_libsvm"),
    (experiments, "logistic_from_dataset", "datasets.logistic_from_dataset"),
    (experiments, "synth_regression", "datasets.synth_regression"),
    (datasets, "standardize_columns", "datasets.standardize_columns"),
    (datasets.DatasetMatrix, "to_dense", "datasets.to_dense"),
    (datasets, "make_regression", "problems.make_regression"),
    (experiments, "compute_alpha_beta", "preconditioners.compute_alpha_beta"),
    (experiments, "initial_guess_M", "solvers.initial_guess_M"),
    (preconditioners, "exact_traces", "operators.exact_traces"),
    (preconditioners, "stochastic_traces", "operators.stochastic_traces"),
    (preconditioners, "spectral_decomposition", "operators.spectral_decomposition"),
    (operators, "spectral_decomposition", "operators.spectral_decomposition"),
    (experiments, "run_krylov_gm", "krylov.run_krylov_gm"),
]

HOT = [
    (problems.CompositeObjective, "value", "problems.value"),
    (problems.CompositeObjective, "gradient", "problems.gradient"),
    (problems.CompositeObjective, "full_value", "problems.full_value"),
    (krylov, "build_gram", "krylov.build_gram"),
]

SOLVER_RUNS = ("run_gm", "run_fgm", "run_adaptive_gm", "run_adaptive_fgm")


class _Frame:
    __slots__ = ("span_id", "child")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Spans, call counts and self time per layer, kept in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stack = []
        self.active = Counter()
        self.spans = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.samples = defaultdict(list)
        self.self_time = defaultdict(float)
        self.setup_matvecs = 0
        self.eff_degrees = []
        self.measured_runs = []  # (RunResult, seconds) of solver runs outside the reference

    def call(self, name, fn, args, kwargs, hot=False):
        parent = self.stack[-1].span_id if self.stack else None
        if hot:
            frame = _Frame(parent)
        else:
            frame = _Frame(len(self.spans))
            span = [frame.span_id, parent, name, time.perf_counter() - self.origin, None]
            self.spans.append(span)
        self.stack.append(frame)
        self.active[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = end - start
            self.stack.pop()
            self.active[name] -= 1
            self.calls[name] += 1
            if not self.active[name]:
                self.total[name] += duration
            self.self_time[name.split(".", 1)[0]] += duration - frame.child
            if self.stack:
                self.stack[-1].child += duration
            if hot:
                self.samples[name].append(duration)
            else:
                span[4] = end - self.origin

    def wrap(self, owner, attr, name, hot=False):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, hot)

        setattr(owner, attr, traced)

    def install(self):
        for owner, attr, name in COARSE:
            self.wrap(owner, attr, name)
        for owner, attr, name in HOT:
            self.wrap(owner, attr, name, hot=True)
        for cls in _with_own(operators.SymmetricOperator, "matvec"):
            self.wrap(cls, "matvec", "operators.matvec", hot=True)
        for cls in _with_own(preconditioners.Preconditioner, "apply"):
            self.wrap(cls, "apply", "preconditioners.apply", hot=True)
        self._wrap_build()
        self._wrap_solve_gram()
        for attr in SOLVER_RUNS:
            self._wrap_solver_run(attr)

    def _wrap_build(self):
        original = experiments.build_from_descriptor

        def traced(text, op, *args, **kwargs):
            before = op.matvecs
            try:
                return self.call(
                    "preconditioners.build_from_descriptor", original, (text, op, *args), kwargs
                )
            finally:
                self.setup_matvecs += op.matvecs - before

        experiments.build_from_descriptor = traced

    def _wrap_solve_gram(self):
        original = krylov.solve_gram

        def traced(*args, **kwargs):
            info = self.call("krylov.solve_gram", original, args, kwargs, hot=True)
            self.eff_degrees.append(info.effective_degree)
            return info

        krylov.solve_gram = traced

    def _wrap_solver_run(self, attr):
        original = getattr(experiments, attr)
        name = f"solvers.{attr}"

        def traced(*args, **kwargs):
            in_reference = self.active["experiments.reference_optimum"] > 0
            start = time.perf_counter()
            run = self.call(name, original, args, kwargs)
            if not in_reference:
                self.measured_runs.append((run, time.perf_counter() - start))
            return run

        setattr(experiments, attr, traced)

    def metrics(self) -> dict:
        def ms(*names):
            return 1e3 * sum(self.total[n] for n in names)

        def p50_us(name):
            samples = self.samples[name]
            return 1e6 * float(np.median(samples)) if samples else 0.0

        steps_us = [
            1e3 * np.diff([r.time_ms for r in run.records]) for run, _ in self.measured_runs
        ]
        steps_us = np.concatenate(steps_us) if steps_us else np.zeros(0)
        adaptive = [run for run, _ in self.measured_runs if run.method.startswith("adaptive")]
        trials = sum(run.total_ls_trials() for run in adaptive)
        out = {
            "datasets.parse_ms": ms("datasets.parse_libsvm"),
            "datasets.standardize_ms": ms("datasets.standardize_columns"),
            "datasets.densify_ms": ms("datasets.to_dense"),
            "datasets.synth_ms": ms("datasets.synth_regression"),
            "operators.spectral_ms": ms("operators.spectral_decomposition"),
            "operators.spectral_calls": self.calls["operators.spectral_decomposition"],
            "operators.trace_ms": ms("operators.exact_traces", "operators.stochastic_traces"),
            "operators.matvec_calls": self.calls["operators.matvec"],
            "operators.matvec_us_p50": p50_us("operators.matvec"),
            "preconditioners.build_ms": ms("preconditioners.build_from_descriptor"),
            "preconditioners.alpha_beta_ms": ms("preconditioners.compute_alpha_beta"),
            "preconditioners.setup_matvecs": self.setup_matvecs,
            "preconditioners.apply_calls": self.calls["preconditioners.apply"],
            "preconditioners.apply_us_p50": p50_us("preconditioners.apply"),
            "problems.value_calls": self.calls["problems.value"],
            "problems.value_us_p50": p50_us("problems.value"),
            "problems.gradient_calls": self.calls["problems.gradient"],
            "problems.gradient_us_p50": p50_us("problems.gradient"),
            "problems.full_value_calls": self.calls["problems.full_value"],
            "solvers.solve_ms": 1e3 * sum(seconds for _, seconds in self.measured_runs),
            "solvers.iter_us_p50": float(np.percentile(steps_us, 50)) if steps_us.size else 0.0,
            "solvers.iter_us_p99": float(np.percentile(steps_us, 99)) if steps_us.size else 0.0,
            "solvers.initial_guess_ms": ms("solvers.initial_guess_M"),
            "solvers.ls_accept_ratio": sum(r.iterations for r in adaptive) / trials if trials else 0.0,
            "krylov.build_gram_ms": ms("krylov.build_gram"),
            "krylov.solve_gram_ms": ms("krylov.solve_gram"),
            "krylov.eff_degree_mean": float(np.mean(self.eff_degrees)) if self.eff_degrees else 0.0,
            "experiments.reference_ms": ms("experiments.reference_optimum"),
            "experiments.reference_calls": self.calls["experiments.reference_optimum"],
            "experiments.build_problem_ms": ms("experiments.build_problem"),
            "experiments.build_problem_calls": self.calls["experiments.build_problem"],
            "experiments.write_ms": ms("experiments.write_run_csv"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * self.self_time[layer]
        return out


def _with_own(base, attr):
    """The class and its subclasses that define ``attr`` themselves."""
    found = [base] if attr in vars(base) else []
    for sub in base.__subclasses__():
        found += _with_own(sub, attr)
    return found


def main(result_path, cli_args) -> int:
    tracer = Tracer()
    tracer.install()
    code = tracer.call("cli.main", cli.main, (cli_args,), {})
    with open(result_path, "w") as handle:
        json.dump(
            {"metrics": tracer.metrics(), "calls": dict(tracer.calls), "spans": tracer.spans},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
