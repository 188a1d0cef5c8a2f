"""The benchmark's set-up probe still runs against the library.

``perfbench/setup_probe.py`` calls ``build_problem``, ``build_from_descriptor``,
``compute_alpha_beta`` and ``initial_guess_M`` by name. A change to one of their
signatures would otherwise show only as a failed ``setup_s`` measurement, so
these tests load the probe by path (without installing it) and time a fixed-step
and an adaptive config with it. The probe's builds are the library's, so they
reject what a run rejects and pay the guarantee check every exact build pays.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import polyprec.preconditioners as preconditioners

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PROBE = PERFBENCH / "setup_probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("setup_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "options",
    ["method = gm\nprecond = sympoly:1\n", "method = adaptive-gm\n"],
    ids=["gm-sympoly1", "adaptive-gm"],
)
def test_setup_seconds_is_finite_and_positive(probe, tmp_path, options):
    config = tmp_path / "setup.cfg"
    config.write_text(options + "synthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 5\n")
    seconds = probe.setup_seconds([str(config)])
    assert math.isfinite(seconds) and seconds > 0


def test_setup_rejects_a_build_that_misses_its_guarantee(probe, tmp_path):
    config = tmp_path / "setup.cfg"
    config.write_text(
        "method = adaptive-gm\nprecond = sympoly:10\n"
        "synthetic = 1000,300,1,100\nloss = huber:0.1\nseed = 204\n"
    )
    with pytest.raises(ValueError, match="'sympoly:10' misses its spectral guarantee"):
        probe.setup_seconds([str(config)])


def test_setup_checks_each_exact_build_of_gapped_bench(probe, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    checked = {"sandwich_slack": [], "cutting_excess": []}

    def spy(name):
        original = getattr(preconditioners, name)
        return lambda points, prec, tau: checked[name].append(tau) or original(points, prec, tau)

    for name in checked:
        monkeypatch.setattr(preconditioners, name, spy(name))
    bench = workloads.gapped_bench(tmp_path, tmp_path / "out", 1)
    assert len(bench.config_paths) == 8
    probe.setup_seconds(bench.config_paths)
    # gm-sympoly2, fgm-sympoly3 and afgm-sympoly2; agm-cutting2.
    assert sorted(checked["sandwich_slack"]) == [2, 2, 3]
    assert checked["cutting_excess"] == [2]
