"""The traced benchmark run wraps library names; each must still exist.

``perfbench/trace_probe.py`` patches functions and methods by name. A rename
in the library would make ``--trace 1`` fail at install time, so this test
loads the probe by path (without installing it) and checks every name it
wraps.
"""

import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "trace_probe.py"


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
