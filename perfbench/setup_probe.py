"""Time the public set-up calls of a workload's configs in one fresh process.

Usage: python3 perfbench/setup_probe.py RESULT.json CONFIG.cfg [CONFIG.cfg ...]

For each config this builds the problem and its preconditioner the way a run
does before its solver starts: ``experiments.build_problem``,
``preconditioners.build_from_descriptor``, ``preconditioners.compute_alpha_beta``
(fixed-step methods) and ``solvers.initial_guess_M`` (adaptive methods). The
reference optimum is not part of set-up. Writes ``{"setup_s": seconds}``.
"""

import json
import sys
import time

import numpy as np

from polyprec import experiments, preconditioners, solvers


def setup_seconds(config_paths) -> float:
    total = 0.0
    for path in config_paths:
        config = experiments.parse_config_file(path)
        start = time.perf_counter()
        obj = experiments.build_problem(config)
        if config.method != "krylov":
            prec = preconditioners.build_from_descriptor(config.precond, obj.curvature)
            if config.method in ("gm", "fgm"):
                preconditioners.compute_alpha_beta(prec, obj.curvature)
            else:
                solvers.initial_guess_M(obj, prec, np.zeros(obj.n), 1.0)
        total += time.perf_counter() - start
    return total


if __name__ == "__main__":
    seconds = setup_seconds(sys.argv[2:])
    with open(sys.argv[1], "w") as handle:
        json.dump({"setup_s": seconds}, handle)
