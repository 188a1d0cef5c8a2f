"""Golden outputs of the benchmark workloads, pinned by sha256.

Runs the eight ``gapped-bench`` configs and the ``a9a-solve`` config that
``perfbench/workloads.py`` writes at seed 1, in process, the way ``bench``
and ``solve`` run them. Each run CSV is pinned with its ``time_ms`` column
dropped, and each JSON summary without the fields that name paths or the
host (``config.out_dir``, ``config.dataset``, ``environment``). The
a9a-shaped run's CSV is not pinned: its ``fval`` column moves with the BLAS
thread count, so only its counts and f* are.

The same runs check the matvec ledger: the products a run spends on the
problem's curvature operator are the build's (``precond.setup_matvecs``), the
initial guess's (``precond.guess_matvecs``) and the iterations'
(``total_matvecs``), and no others. The reference, in the exact inverse
metric, spends none.

A PR that moves a pin changes its digest here and lists the move in
``CHANGES.md`` as a behaviour change. The digests were taken with numpy 2.4.6
on scipy-openblas 0.3.31 at one and two BLAS threads; another numpy or BLAS
may round differently and move them.
"""

import csv
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from polyprec.experiments import build_problem, parse_config_file, run_experiment

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

GAPPED_CSV = {
    "gm-identity": "eaef616c1852100240b0ca079825b5b7a8101041a360a11196948ab8716a5240",
    "gm-sympoly2": "53df1709b6aa868f68cf40a2a9049ee2a6c9ee010ecaf4b672948e475bbef4f5",
    "fgm-sympoly3": "88c3f84c8c3ab6e3ea27860204132ce65f9690ef0685c01edbfa070f5f98cdaa",
    "fgm-chebyshev4": "3fb34d17c10400756e527015f7207b468fdf0bf65544361c4ae01f8e6d7651e6",
    "agm-stochastic3": "86684ce024102cfa2ef92ddb8565423b1f606be717d9f8a53ba9a2bd452c6b86",
    "agm-cutting2": "ddfe9301e55e35d4d9717ee477520fcc067ae5046fc03a843484775625c1ae54",
    "afgm-sympoly2": "ef5df65096f812125548cdcdae221ecc18206b329d1553451e44d4cae403016c",
    "krylov3": "38c1a9d3278918aea7d772b2095bfc53ca90bdc6179af78b9ad6a6f858b0b69e",
}

GAPPED_JSON = {
    "gm-identity": "5fcd974bd69b092e8ebdb3249ad8825bd181aa12f723db9ef8a04bb58227c3b0",
    "gm-sympoly2": "06952afdd45045cc0e0ab082f83b33109c5cce24f89dbe27e90ffcbd4e357fb4",
    "fgm-sympoly3": "c099361d4c3746f4158722f52da874dd6794a91b10fb6433fdcb6923a94e4f36",
    "fgm-chebyshev4": "98355a5c95a217a2a20a26596f936044b666830c8aa648597cea1efc99f0b8c0",
    "agm-stochastic3": "dcc8c0d0be046efcd25b0d90ed98ff24eb2a8831658f5ba3143eb1e6ea8ba98a",
    "agm-cutting2": "4ea36cc0efb3a97a8a82a92a218b3dd5b30e449461544892dad761e76aa7818d",
    "afgm-sympoly2": "fa00739055232e333780f42d7e4f3d1d4996d323c71c242c1ca36fd77c2c0d08",
    "krylov3": "7aa1df5dccd3597285de4156c4ecd2df4698008a6c7e52a09dd38165e2864002",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", module)  # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


def _run_configs(config_paths, out):
    """Run configs as ``bench`` does, on one problem and one reference table.

    Returns the problem and, by run name, each run's summary and the
    curvature matvecs the problem's operator spent on it.
    """
    configs = [parse_config_file(path) for path in config_paths]
    problem = build_problem(configs[0])
    references = {}
    runs = {}
    for config in configs:
        config.out_dir = str(out)
        before = problem.curvature.matvecs
        summary = run_experiment(config, references, problem)
        runs[config.name] = (summary, problem.curvature.matvecs - before)
    return problem, runs


@pytest.fixture(scope="module")
def gapped(workloads, tmp_path_factory):
    work = tmp_path_factory.mktemp("gapped")
    bench = workloads.gapped_bench(work, work / "out", 1)
    return (work / "out", *_run_configs(bench.config_paths, work / "out"))


@pytest.fixture(scope="module")
def a9a(workloads, tmp_path_factory):
    work = tmp_path_factory.mktemp("a9a")
    solve = workloads.a9a_solve(work, work / "out", 1)
    return (work / "out", *_run_configs(solve.config_paths, work / "out"))


def _csv_digest(path) -> str:
    """sha256 of a run CSV with its last column, ``time_ms``, dropped."""
    lines = Path(path).read_text().splitlines()
    assert lines[0].endswith(",time_ms")
    return hashlib.sha256("\n".join(line.rsplit(",", 1)[0] for line in lines).encode()).hexdigest()


def _json_digest(path) -> str:
    """sha256 of a run summary without the fields that name paths or the host."""
    summary = json.loads(Path(path).read_text())
    del summary["config"]["out_dir"], summary["config"]["dataset"], summary["environment"]
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def _column(path, name) -> list:
    with open(path, newline="") as handle:
        return [row[name] for row in csv.DictReader(handle)]


@pytest.mark.parametrize("name", sorted(GAPPED_CSV))
def test_gapped_bench_outputs_pinned(gapped, name):
    out, _, _ = gapped
    assert _csv_digest(out / f"{name}.csv") == GAPPED_CSV[name]
    assert _json_digest(out / f"{name}.json") == GAPPED_JSON[name]


def test_a9a_solve_summary_pinned(a9a):
    out, _, runs = a9a
    summary, _ = runs["a9a"]
    trials = sum(int(t) for t in _column(out / "a9a.csv", "ls_trials"))
    assert (
        summary["iterations"],
        summary["total_matvecs"],
        summary["grad_evals"],
        trials,
        summary["termination"],
        summary["data_passes"],
    ) == (51, 102, 51, 103, "gap_target", 157)
    assert summary["f_star_reference"] == 5427.233443353216


def _ledger(summary) -> tuple:
    """Matvecs a run's summary reports: build, initial guess and iterations."""
    precond = summary["precond"]
    return precond["setup_matvecs"], precond["guess_matvecs"], summary["total_matvecs"]


def test_gapped_bench_summaries_account_for_every_matvec(gapped):
    _, _, runs = gapped
    for name, (summary, spent) in runs.items():
        assert sum(_ledger(summary)) == spent, name
    totals = [sum(column) for column in zip(*(_ledger(s) for s, _ in runs.values()))]
    assert totals == [192, 7, 3902]
    assert sum(spent for _, spent in runs.values()) == 4101


def test_a9a_solve_summary_accounts_for_every_matvec(a9a):
    _, _, runs = a9a
    summary, spent = runs["a9a"]
    assert _ledger(summary) == (0, 2, 102)
    assert spent == 104


def test_fixed_step_runs_step_at_beta_L(gapped):
    # gm and fgm step at M = beta L from the bounds their summary reports;
    # the other methods have no bounds to report.
    out, problem, runs = gapped
    for name, (summary, _) in runs.items():
        precond = summary["precond"]
        if summary["config"]["method"] in ("gm", "fgm"):
            M = precond["beta"] * problem.L
            assert all(float(m) == M for m in _column(out / f"{name}.csv", "M_k")), name
            assert 0 < precond["alpha"] <= precond["beta"]
        else:
            assert precond["alpha"] is None and precond["beta"] is None, name
