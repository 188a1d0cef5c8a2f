"""Benchmark of the polyprec CLI: time to accuracy, set-up time and paper cost units.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every workload is one ``polyprec solve`` or ``polyprec bench`` command on
inputs generated from ``--seed`` (see ``workloads.py``). With ``--trace 0`` the
command is repeated, one fresh process each time (``rss_probe.py``, which also
records the process's peak memory), until ``--seconds`` of measuring are used
(at least once). Between the repetitions the public set-up calls are timed,
each time in a fresh process (``setup_probe.py``), for about a fifth of the
measuring time, so both medians are taken over the whole run. The run reports
the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` the command
runs alternately plain and under ``trace_probe.py`` and the run reports the
per-layer metrics. Every child runs with one BLAS thread, and every run's
outputs are checked. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

CSV_HEADER = "iter,fval,gap,matvecs,grad_evals,ls_trials,M_k,time_ms"
SUMMARY_KEYS = ("iterations", "total_matvecs", "termination", "f_star_reference", "final_fval")
# Share of the measuring time spent on set-up samples, at least one per command.
SETUP_SHARE = 0.2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; children still running at this point are killed.
RUN_LIMIT_S = 170.0


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, deadline: float):
        self.name = name
        self.seconds = seconds
        self.deadline = deadline
        self.work = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: list[dict] = []
        self.samples: dict = {}
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spec = workloads.WORKLOADS[name](self.work, self.out, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        # One BLAS thread: on two cores, a busy second core doubled the set-up
        # time with two BLAS threads and raised it by two fifths with one.
        self.env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

    def child(self, argv: list, log_name: str):
        """Run a child process to its end: (exit code or None on timeout, wall seconds)."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(self.work / log_name, "wb") as log:
            start = time.perf_counter()
            try:
                code = subprocess.run(
                    [sys.executable, *argv],
                    cwd=ROOT,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=timeout,
                ).returncode
            except subprocess.TimeoutExpired:
                code = None
            wall = time.perf_counter() - start
        if code != 0:
            tail = (self.work / log_name).read_text(errors="replace")[-2000:]
            status = f"timed out after {timeout:.0f} s" if code is None else f"exited {code}"
            print(f"[{self.name}] {log_name} {status}:\n{tail}", file=sys.stderr)
        return code, wall

    def command(self, traced_result: Path | None = None):
        """One repetition of the workload command; checks its outputs.

        Returns the wall seconds and the peak RSS in MB (None when traced).
        """
        shutil.rmtree(self.out, ignore_errors=True)
        rss_file = self.work / "rss.txt"
        rss_file.unlink(missing_ok=True)
        if traced_result is None:
            argv = [str(HERE / "rss_probe.py"), str(rss_file), *self.spec.argv]
        else:
            argv = [str(HERE / "trace_probe.py"), str(traced_result), *self.spec.argv]
        code, wall = self.child(argv, "command.log")
        self.attempted += len(self.spec.runs)
        if code != 0:
            self.fail(len(self.spec.runs), f"command failed ({code})")
            return wall, None
        rss = int(rss_file.read_text()) / 1024.0 if traced_result is None else None
        totals = dict.fromkeys(("iterations", "matvecs", "grad_evals", "ls_trials"), 0)
        for run in self.spec.runs:
            problems, counts = check_run(self.out, run)
            if problems:
                self.fail(1, f"{run.name}: {'; '.join(problems)}")
            for key in totals:
                totals[key] += counts.get(key, 0)
        if self.counts and totals != self.counts[0]:
            self.failures.append(f"counts differ between repetitions: {self.counts[0]} vs {totals}")
        self.counts.append(totals)
        return wall, rss

    def setup(self):
        """Set up every config in one fresh process: (set-up seconds or None, wall seconds)."""
        result = self.work / "setup.json"
        result.unlink(missing_ok=True)
        argv = [str(HERE / "setup_probe.py"), str(result), *self.spec.config_paths]
        code, wall = self.child(argv, "setup.log")
        self.attempted += len(self.spec.config_paths)
        if code != 0:
            self.fail(len(self.spec.config_paths), f"set-up failed ({code})")
            return None, wall
        return json.loads(result.read_text())["setup_s"], wall

    def warm_up(self):
        """Import the program once, so no timed process compiles or first reads it."""
        code, _ = self.child(["-c", "import polyprec.cli"], "warm_up.log")
        if code != 0:
            self.failures.append(f"importing polyprec failed ({code})")

    def fail(self, runs: int, message: str):
        self.failed += runs
        self.failures.append(message)

    def measuring(self, used: float, last: float) -> bool:
        """Whether another round of `last` seconds fits the measuring time and the run limit."""
        left = self.deadline - time.monotonic()
        return used + last <= self.seconds and 2 * last < left

    def end_to_end(self) -> dict:
        self.warm_up()
        walls, rss, setups = [], [], []
        used = setup_used = 0.0
        while True:
            wall, peak = self.command()
            walls.append(wall)
            rss.append(peak)
            used += wall
            while True:
                seconds, wall = self.setup()
                setups.append(seconds)
                used += wall
                setup_used += wall
                if setup_used >= SETUP_SHARE * used:
                    break
            if not self.measuring(used, used / len(walls)):
                break
        counts = self.counts[0] if self.counts else {}
        self.samples = {"wall_s": walls, "setup_s": setups}
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median([s for s in setups if s is not None] or [0.0]),
            "peak_rss_mb": statistics.median([r for r in rss if r is not None] or [0.0]),
            **counts,
        }

    def per_layer(self) -> tuple[dict, list]:
        self.warm_up()
        result = self.work / "trace.json"
        samples, spans, used = [], [], 0.0
        while True:
            plain, _ = self.command()
            result.unlink(missing_ok=True)
            traced, _ = self.command(traced_result=result)
            used += plain + traced
            if not result.is_file():
                self.failures.append("traced run wrote no result")
                break
            trace = json.loads(result.read_text())
            missing = [b for b in self.spec.boundaries if not trace["calls"].get(b)]
            if missing:
                self.fail(len(self.spec.runs), f"traced boundaries never fired: {', '.join(missing)}")
            samples.append({**trace["metrics"], "trace.overhead_s": traced - plain})
            spans = trace["spans"]
            if not self.measuring(used, plain + traced):
                break
        metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]} if samples else {}
        return metrics, spans


def check_run(out: Path, run: workloads.RunSpec):
    """Problems found in one run's outputs, and its cost counts."""
    csv_path, summary_path = out / f"{run.name}.csv", out / f"{run.name}.json"
    if not csv_path.is_file() or not summary_path.is_file():
        return ["missing CSV or JSON summary"], {}
    with open(csv_path) as handle:
        header = handle.readline().strip()
    if header != CSV_HEADER:
        return [f"CSV header {header!r}"], {}
    try:
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        summary = json.loads(summary_path.read_text())
        summary = {key: summary[key] for key in SUMMARY_KEYS}
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"], {}
    columns = dict(zip(CSV_HEADER.split(","), table.T))
    f_star = summary["f_star_reference"]
    problems = []
    if not (np.isfinite(table).all() and np.isfinite([f_star, summary["final_fval"]]).all()):
        problems.append("non-finite value")
    if columns["gap"][-1] < -1e-9 * max(1.0, abs(f_star)):
        problems.append(f"final gap {float(columns['gap'][-1])!r} below the reference")
    if summary["termination"] != run.termination:
        problems.append(f"termination {summary['termination']!r}, expected {run.termination!r}")
    last = {
        "iterations": columns["iter"][-1],
        "total_matvecs": columns["matvecs"][-1],
        "final_fval": columns["fval"][-1],
    }
    if any(summary[key] != value for key, value in last.items()):
        problems.append("JSON summary disagrees with the CSV's last row")
    counts = {
        "iterations": int(summary["iterations"]),
        "matvecs": int(summary["total_matvecs"]),
        "grad_evals": int(columns["grad_evals"][-1]),
        "ls_trials": int(columns["ls_trials"].sum()),
    }
    return problems, counts


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sources = sorted((ROOT / "src" / "polyprec").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cores": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_polyprec_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def bench_one(name: str, seed: int, seconds: float, trace: bool, declared: dict, deadline: float):
    run = Run(name, seed, seconds, deadline)
    try:
        if trace:
            values, spans = run.per_layer()
        else:
            values, spans = run.end_to_end(), []
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    missing = sorted(set(declared) - set(values))
    if missing and not run.failures:
        run.failures.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {k: {"value": values[k], "unit": declared[k]} for k in declared if k in values}
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "failures": run.failures,
        "samples": run.samples,
        "spans": spans,
    }


def print_table(results: dict, declared: dict, by_metric: bool):
    """End-to-end metrics one row per workload; per-layer metrics one row per metric."""
    def cell(result, key):
        metric = result["metrics"].get(key)
        return f"{metric['value']:.6g}" if metric else "-"

    if by_metric:
        print("metric [unit]".ljust(44) + "".join(n.rjust(16) for n in results))
        for key, unit in declared.items():
            print(f"{key} [{unit}]".ljust(44) + "".join(cell(r, key).rjust(16) for r in results.values()))
        return
    columns = [f"{key} [{unit}]" for key, unit in declared.items()]
    print("workload".ljust(16) + "runs  failed_runs  samples  " + "  ".join(columns))
    for name, result in results.items():
        cells = [cell(result, key).rjust(len(c)) for key, c in zip(declared, columns)]
        samples = "/".join(str(len(v)) for v in result["samples"].values())
        print(
            name.ljust(16)
            + f"{result['attempted']:<6}{result['failed']:<13}{samples:<9}"
            + "  ".join(cells)
        )
    print("samples: repetitions of the command / set-up processes; times are their medians")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polyprec" / "__init__.py").is_file():
        print("perfbench: no polyprec sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    results = {}
    for name in names:
        deadline = start + RUN_LIMIT_S * (len(results) + 1)
        results[name] = bench_one(name, args.seed, args.seconds, bool(args.trace), declared, deadline)
        for failure in results[name]["failures"]:
            print(f"[{name}] FAILED {failure}", file=sys.stderr)
    env = environment()
    print("environment: " + json.dumps(env))
    print_table(results, declared, by_metric=bool(args.trace))
    records = WORK / "results"
    records.mkdir(parents=True, exist_ok=True)
    record = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "results": results}, indent=1))
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
