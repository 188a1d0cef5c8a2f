"""The traced benchmark run wraps library names; each must still exist and be crossed.

``perfbench/trace_probe.py`` patches functions and methods by name. A rename
in the library would make ``--trace 1`` fail at install time, so this test
loads the probe by path (without installing it) and checks every name it
wraps. A name that exists but is no longer called would leave its metrics at
zero, so one small traced ``bench`` checks the calls too.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "trace_probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("trace_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coarse_and_hot_names_exist(probe):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in probe.COARSE + probe.HOT
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_solver_runs_and_special_wraps_exist(probe):
    for attr in probe.SOLVER_RUNS:
        assert callable(getattr(probe.experiments, attr, None)), attr
    assert callable(getattr(probe.experiments, "build_from_descriptor", None))
    assert callable(getattr(probe.krylov, "solve_gram", None))


def test_traced_bench_crosses_the_krylov_boundaries(tmp_path):
    problem = "synthetic = 40,4,1,12\nloss = huber:0.1\nmax_iters = 10\n"
    configs = []
    for name, method, precond, tau in (
        ("kry", "krylov", "identity", 2),
        ("afgm", "adaptive-fgm", "sympoly:2", 0),
        ("gm", "gm", "identity", 0),
    ):
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            f"name = {name}\nmethod = {method}\nprecond = {precond}\ntau = {tau}\n{problem}"
        )
        configs.append(str(path))
    result = tmp_path / "trace.json"
    argv = [str(PROBE), str(result), "bench", *configs, "--out", str(tmp_path / "out")]
    pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(result.read_text())
    for name in (
        "krylov.run_krylov_gm",
        "krylov.build_gram",
        "krylov.solve_gram",
        "preconditioners.apply",
        "solvers.run_gm",
    ):
        assert traced["calls"].get(name, 0) >= 1, name
    assert traced["metrics"]["krylov.eff_degree_mean"] > 0
