"""Golden outputs of the benchmark workloads, pinned by sha256.

Runs the eight ``gapped-bench`` configs and the ``a9a-solve`` config that
``perfbench/workloads.py`` writes at seed 1, in process, the way ``bench``
and ``solve`` run them. Each run CSV is pinned with its ``time_ms`` column
dropped, and each JSON summary without the fields that name paths or the
host (``config.out_dir``, ``config.dataset``, ``environment``). The
a9a-shaped run's CSV is not pinned: its ``fval`` column moves with the BLAS
thread count, so only its counts and f* are.

The same runs check the cost ledger in all four units (curvature matvecs,
values, gradients and data passes): what a run spends on the problem is the
build's (``precond.setup``), the initial guess's (``precond.guess``), the
iterations' (top-level ``total_matvecs``, ``f_evals``, ``grad_evals`` and
``data_passes``) and, for the run that computes a reference, the
reference's (``reference``), and no more. They also check what the runs log
on the ``polyprec`` logger: one non-descent warning, from ``agm-stochastic3``.

A PR that moves a pin changes its digest here and lists the move in
``CHANGES.md`` as a behaviour change. The digests were taken with numpy 2.4.6
on scipy-openblas 0.3.31 at one and two BLAS threads; another numpy or BLAS
may round differently and move them. One pin holds at two threads only: the
a9a-shaped run's reference ledger, whose reference stops two iterations
earlier at one thread (same f*), because near the optimum its line searches
start from curvatures read off differences of f at its rounding level.
"""

import csv
import hashlib
import importlib.util
import json
import logging
import sys
from pathlib import Path

import pytest

from polyprec.experiments import build_problem, parse_config_file, run_experiment
from polyprec.problems import Costs

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

GAPPED_CSV = {
    "gm-identity": "eaef616c1852100240b0ca079825b5b7a8101041a360a11196948ab8716a5240",
    "gm-sympoly2": "53df1709b6aa868f68cf40a2a9049ee2a6c9ee010ecaf4b672948e475bbef4f5",
    "fgm-sympoly3": "88c3f84c8c3ab6e3ea27860204132ce65f9690ef0685c01edbfa070f5f98cdaa",
    "fgm-chebyshev4": "3fb34d17c10400756e527015f7207b468fdf0bf65544361c4ae01f8e6d7651e6",
    "agm-stochastic3": "b85dd2d5ec33a48af2b08f216eb2ab9df8b5a4bfd3c9be76685488cfca60c265",
    "agm-cutting2": "2490f75ff42d8aa0c82a6dfca22a0311ba3c7e056283afbc7032a56e088f000a",
    "afgm-sympoly2": "effbc932036631d6c25b65314a99221c1efece91586602c716e9cfc35647fb1f",
    "krylov3": "38c1a9d3278918aea7d772b2095bfc53ca90bdc6179af78b9ad6a6f858b0b69e",
}

GAPPED_JSON = {
    "gm-identity": "cbbdfb0915f9e81c42b66f564ff559ab4d313976f620afec0eb24d9cb2fe3990",
    "gm-sympoly2": "91f06f5d5cdb9f3963d42bc96a9ea0b50fb8a1c2892de928ce36d1b112bbacdb",
    "fgm-sympoly3": "bacb2b99ab117b0cf303badb3a6dc161b46e1ec9935734523bed812d773c7840",
    "fgm-chebyshev4": "ae481d444dc641ae50a8c41da6f9898e156e3d7eb4ed598feba2591ada16bd04",
    "agm-stochastic3": "ba69eb3e59cce26b42a3a2a8e22f39748ac861e07778810327bd1b8484711993",
    "agm-cutting2": "4c9a503591fb3ad2fddba403e8da6010e8cd20cb86e2957865576e82bf1c8a77",
    "afgm-sympoly2": "404c19f480da276514b9c1bffa2ace8cf05f0361b6671a57d9ba957520581a58",
    "krylov3": "8bc5f63c0407163f1be686e7b5fd9155f9849bea349a8e5af684b578378c7f6f",
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

    Returns the problem and, by run name, each run's summary, the
    :class:`Costs` the problem's counters moved by over the run and whether
    the run computed its reference; then, by run name, the messages each run
    logged on the ``polyprec`` logger.
    """
    configs = [parse_config_file(path) for path in config_paths]
    problem = build_problem(configs[0])
    references = {}
    runs = {}
    messages, logged = [], {}
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logging.getLogger("polyprec").addHandler(handler)
    try:
        for config in configs:
            config.out_dir = str(out)
            start, known, seen = problem.costs(), len(references), len(messages)
            summary = run_experiment(config, references, problem)
            runs[config.name] = (summary, problem.costs() - start, len(references) > known)
            logged[config.name] = messages[seen:]
    finally:
        logging.getLogger("polyprec").removeHandler(handler)
    return problem, runs, logged


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
    out, _, _, _ = gapped
    assert _csv_digest(out / f"{name}.csv") == GAPPED_CSV[name]
    assert _json_digest(out / f"{name}.json") == GAPPED_JSON[name]


def test_a9a_solve_summary_pinned(a9a):
    out, _, runs, _ = a9a
    summary, _, _ = runs["a9a"]
    trials = sum(int(t) for t in _column(out / "a9a.csv", "ls_trials"))
    assert (
        summary["iterations"],
        summary["total_matvecs"],
        summary["grad_evals"],
        trials,
        summary["termination"],
        summary["data_passes"],
    ) == (41, 82, 41, 55, "gap_target", 96)
    assert summary["f_star_reference"] == 5427.233443353216


def _spans(summary) -> dict:
    """The costs a run's summary reports, by span."""
    iterations = ("total_matvecs", "f_evals", "grad_evals", "data_passes")
    return {
        "setup": Costs(**summary["precond"]["setup"]),
        "guess": Costs(**summary["precond"]["guess"]),
        "iterations": Costs(*(summary[key] for key in iterations)),
        "reference": Costs(*(summary["reference"][unit] for unit in Costs._fields)),
    }


def _total(costs) -> Costs:
    return Costs(*map(sum, zip(*costs)))


def _accounted(summary, computed_reference: bool) -> Costs:
    """What the summary says the run spent: build, guess and iterations, and the
    reference when the run computed it."""
    spans = _spans(summary)
    if not computed_reference:
        del spans["reference"]
    return _total(spans.values())


def test_gapped_bench_summaries_account_for_every_matvec(gapped):
    # Every matvec, and every value, gradient and data pass as well.
    _, _, runs, _ = gapped
    for name, (summary, spent, computed) in runs.items():
        assert _accounted(summary, computed) == spent, name
    assert [computed for _, _, computed in runs.values()].count(True) == 1
    totals = {
        span: _total(_spans(summary)[span] for summary, _, _ in runs.values())
        for span in ("setup", "guess", "iterations")
    }
    assert totals == {
        "setup": Costs(192, 0, 0, 0),
        "guess": Costs(7, 6, 3, 9),
        "iterations": Costs(3712, 1601, 1712, 4274),
    }
    assert _total(spent for _, spent, _ in runs.values()) == Costs(3911, 1811, 1817, 4588)


def test_a9a_solve_summary_accounts_for_every_matvec(a9a):
    # Every matvec, and every value, gradient and data pass as well.
    _, _, runs, _ = a9a
    summary, spent, computed = runs["a9a"]
    assert computed
    assert _spans(summary) == {
        "setup": Costs(0, 0, 0, 0),
        "guess": Costs(2, 2, 1, 3),
        "iterations": Costs(82, 96, 41, 96),
        "reference": Costs(0, 40, 20, 59),
    }
    assert spent == Costs(84, 138, 62, 158)


def test_fixed_step_runs_step_at_beta_L(gapped):
    # gm and fgm step at M = beta L from the bounds their summary reports;
    # the other methods have no bounds to report.
    out, problem, runs, _ = gapped
    for name, (summary, _, _) in runs.items():
        precond = summary["precond"]
        if summary["config"]["method"] in ("gm", "fgm"):
            M = precond["beta"] * problem.L
            assert all(float(m) == M for m in _column(out / f"{name}.csv", "M_k")), name
            assert 0 < precond["alpha"] <= precond["beta"]
        else:
            assert precond["alpha"] is None and precond["beta"] is None, name


def test_only_the_stalled_stochastic_run_warns(gapped, a9a):
    # agm-stochastic3's stochastic sympoly:3 is indefinite along its gradients
    # from iteration 7 on (ROADMAP item 4); every other run descends.
    logged = {**gapped[3], **a9a[3]}
    assert {name: len(messages) for name, messages in logged.items() if messages} == {
        "agm-stochastic3": 1
    }
    assert logged["agm-stochastic3"][0].startswith(
        "config 'agm-stochastic3': adaptive-gm: iteration 7 accepted a non-descent step"
    )
