"""The benchmark's set-up probe still runs against the library.

``perfbench/setup_probe.py`` calls ``build_problem``, ``build_from_descriptor``,
``compute_alpha_beta`` and ``initial_guess_M`` by name. A change to one of their
signatures would otherwise show only as a failed ``setup_s`` measurement, so
this test loads the probe by path (without installing it) and times a fixed-step
and an adaptive config with it.
"""

import importlib.util
import math
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"


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
