import argparse
import csv
import hashlib
import importlib.util
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import polyprec
from polyprec import (
    DatasetMatrix,
    DenseOperator,
    ExperimentConfig,
    HuberLoss,
    LogisticLoss,
    RunResult,
    SolverConfig,
    inverse_preconditioner,
    logistic_from_dataset,
    merge_plotdata,
    parse_config_file,
    parse_descriptor,
    parse_libsvm,
    planted_spectrum,
    reference_optimum,
    run_experiment,
    spectral_decomposition,
    standardize_columns,
    synth_regression,
)
from polyprec.cli import build_parser, main as cli_main
from polyprec.experiments import CSV_HEADER, build_problem, run_bench, write_run_csv
from polyprec.solvers import ROUNDING_FLOOR, IterationRecord
from conftest import synth_classification_dataset, write_libsvm


def read_run_csv(path) -> dict:
    """Read a run CSV back into arrays keyed by column name."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                columns[name].append(float(value))
    return {name: np.asarray(values) for name, values in columns.items()}


FIXTURE_LINES = [
    "+1 1:0.5 3:2.0",
    "0 2:1.0",
    "-1 1:-1.5 2:0.25 4:4.0",
    "1 4:1.0",
    "+1 2:0.125",
    "0 1:3.0 3:-0.5",
    "-1 3:2.25",
    "1 1:1.0 2:1.0 3:1.0 4:1.0",
    "0 4:-2.0",
    "+1 1:0.75",
    "-1 2:-0.25 4:0.5",
    "1 3:10.0",
    "0 1:0.0625 4:8.0",
    "+1 2:5.0 3:0.2",
    "-1 1:0.3",
    "1 2:0.7 4:-1.25",
    "0 3:4.5",
    "+1 1:2.0 4:0.1",
    "-1 2:6.0",
    "1 1:0.9 3:0.45",
]

EXPECTED_ROWS = [
    [(0, 0.5), (2, 2.0)],
    [(1, 1.0)],
    [(0, -1.5), (1, 0.25), (3, 4.0)],
    [(3, 1.0)],
    [(1, 0.125)],
    [(0, 3.0), (2, -0.5)],
    [(2, 2.25)],
    [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
    [(3, -2.0)],
    [(0, 0.75)],
    [(1, -0.25), (3, 0.5)],
    [(2, 10.0)],
    [(0, 0.0625), (3, 8.0)],
    [(1, 5.0), (2, 0.2)],
    [(0, 0.3)],
    [(1, 0.7), (3, -1.25)],
    [(2, 4.5)],
    [(0, 2.0), (3, 0.1)],
    [(1, 6.0)],
    [(0, 0.9), (2, 0.45)],
]

EXPECTED_LABELS = [1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1]


def _run_fresh(script, argv):
    """Run ``script`` with ``argv`` in a fresh interpreter that imports this polyprec."""
    src = str(Path(polyprec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestParseLibsvm:
    def test_fixture_field_by_field(self, tmp_path):
        path = tmp_path / "fixture.txt"
        path.write_text("\n".join(FIXTURE_LINES) + "\n")
        ds = parse_libsvm(path)
        assert ds.n_rows == 20
        assert ds.n_features == 4
        assert list(ds.labels) == EXPECTED_LABELS
        expected = [(i, j, v) for i, row in enumerate(EXPECTED_ROWS) for j, v in row]
        row = np.repeat(np.arange(ds.n_rows), np.diff(ds.indptr))
        assert list(zip(row.tolist(), ds.col.tolist(), ds.val.tolist())) == expected

    def test_label_only_lines_are_rows(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("+1\n-1 2:1.5\n0\n")
        ds = parse_libsvm(path)
        assert ds.n_rows == 3
        assert list(ds.labels) == [1, -1, -1]
        assert np.array_equal(ds.to_dense(), [[0.0, 0.0], [0.0, 1.5], [0.0, 0.0]])

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("+1 1:1\n0 2:1\n-1 1:2\n1 2:2\n")
        ds = parse_libsvm(path)
        assert list(ds.labels) == [1, -1, -1, 1]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:0.5\n+1 2:oops\n")
        with pytest.raises(ValueError, match="2"):
            parse_libsvm(path)

    @pytest.mark.parametrize(
        "line, field",
        [("+1 1:0.5 2:nan", "feature"), ("-1 2:inf", "feature"), ("nan 1:0.5", "label")],
    )
    def test_non_finite_reports_number(self, tmp_path, line, field):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"+1 1:0.5\n{line}\n")
        with pytest.raises(ValueError, match=f":2: non-finite {field}"):
            parse_libsvm(path)

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"+1 1:1\n\xff\xfe 2:1\n", 2),
            (b"+1 1:1\r\n-1 2:1\r\n+1 \xe9:1\r\n", 3),
            (b"+1 1:1\r-1 2:1\r\r-1 1:\x80\r", 4),
            # Past the first block and the first read, after a valid multibyte comment.
            (b"# caf\xc3\xa9\n" + b"+1 1:1\n" * 1000 + b"-1 1:\xc3\n", 1002),
        ],
        ids=["lf", "crlf", "cr", "late"],
    )
    def test_undecodable_bytes_report_their_line(self, tmp_path, data, lineno):
        path = tmp_path / "bytes.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: not UTF-8"):
            parse_libsvm(path)

    def test_nonmonotone_indices_rejected(self, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text("+1 3:1.0 2:1.0\n")
        with pytest.raises(ValueError, match="increasing"):
            parse_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            parse_libsvm(path)

    def test_write_parse_round_trip(self, tmp_path, rng):
        rows = rng.standard_normal((6, 4))
        rows[rows < -0.8] = 0.0
        labels = np.where(rng.random(6) > 0.5, 1.0, -1.0)
        path = tmp_path / "rt.txt"
        write_libsvm(path, rows, labels)
        ds = parse_libsvm(path)
        assert np.allclose(ds.to_dense(), rows)
        assert np.array_equal(ds.labels, labels)


def _write_a9a_shaped(path, rows=32_561, features=123, per_row=14):
    """A file of a9a's full shape: ``per_row`` distinct binary features per row."""
    rng = np.random.default_rng(0)
    lines = []
    for start in range(0, rows, 4096):
        m = min(4096, rows - start)
        keys = rng.random((m, features))
        cols = np.sort(np.argpartition(keys, per_row, axis=1)[:, :per_row], axis=1) + 1
        labels = np.where(rng.random(m) < 0.5, 1, -1)
        lines += [
            f"{label:+d} " + " ".join(f"{j}:1" for j in row)
            for label, row in zip(labels.tolist(), cols.tolist())
        ]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def a9a_full(tmp_path_factory):
    path = tmp_path_factory.mktemp("a9a") / "a9a_full.txt"
    _write_a9a_shaped(path)
    return path


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nbytes(ds: DatasetMatrix) -> int:
    return ds.indptr.nbytes + ds.col.nbytes + ds.val.nbytes + ds.labels.nbytes


def test_parse_holds_one_block_beside_its_output(a9a_full):
    peak = _traced_peak(parse_libsvm, a9a_full)
    ds = parse_libsvm(a9a_full)
    assert ds.n_rows == 32_561 and ds.col.size == 14 * 32_561
    # Reading the whole text at once peaked at about 5x the output (38 MiB
    # here), and joining per-block lists at about 1.55x. The output arrays
    # are now allocated once, so one block's text and arrays remain, about 1.1x.
    assert peak <= 1.25 * _nbytes(ds)


def test_build_problem_holds_the_design_beside_one_parse_output(a9a_full):
    ds = parse_libsvm(a9a_full)
    dense_bytes = ds.n_rows * ds.n_features * 8
    peak = _traced_peak(build_problem, ExperimentConfig(dataset=str(a9a_full)))
    # The unscaled values go before the design is allocated, so the parsed
    # arrays are held once beside it (the standardized values replace the
    # unscaled ones); keeping both read 1.37x the design.
    assert peak <= dense_bytes + _nbytes(ds) + 2**20


class TestStandardize:
    def test_unit_column_norms(self, tmp_path, rng):
        rows = rng.standard_normal((8, 3))
        path = tmp_path / "s.txt"
        write_libsvm(path, rows, np.ones(8))
        ds = standardize_columns(parse_libsvm(path))
        dense = ds.to_dense()
        assert np.allclose(np.linalg.norm(dense, axis=0), 1.0)

    def test_matches_entrywise_loop(self, tmp_path, rng):
        rows = rng.standard_normal((9, 4))
        rows[rows < -0.5] = 0.0
        rows[:, 2] = 0.0
        path = tmp_path / "loop.txt"
        write_libsvm(path, rows, np.ones(9))
        ds = parse_libsvm(path)
        norms_sq = np.zeros(4)
        for j, value in zip(ds.col, ds.val):
            norms_sq[j] += value * value
        norms = np.sqrt(norms_sq)
        norms[norms == 0.0] = 1.0
        assert np.array_equal(standardize_columns(ds).to_dense(), ds.to_dense() / norms)

    def test_logistic_objective_shapes(self, tmp_path, rng):
        rows = rng.standard_normal((10, 4))
        labels = np.where(rng.random(10) > 0.5, 1.0, -1.0)
        path = tmp_path / "l.txt"
        write_libsvm(path, rows, labels)
        obj = logistic_from_dataset(parse_libsvm(path))
        assert obj.n == 4
        assert obj.value(np.zeros(4)) == pytest.approx(10 * np.log(2.0))

    @staticmethod
    def _sparse_dataset(rng, m=4000, n=60, per_row=5):
        cols = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :per_row], axis=1)
        return DatasetMatrix(
            indptr=np.arange(0, m * per_row + 1, per_row),
            col=cols.ravel(),
            val=rng.standard_normal(m * per_row),
            labels=np.where(rng.random(m) > 0.5, 1.0, -1.0),
            n_features=n,
        )

    @pytest.mark.parametrize("standardize", [True, False])
    def test_logistic_rows_are_folded_design(self, rng, standardize):
        ds = self._sparse_dataset(rng, m=50, n=7, per_row=3)
        rows = logistic_from_dataset(ds, standardize=standardize).curvature.design
        scaled = standardize_columns(ds) if standardize else ds
        # Bitwise, signed zeros included: the labels fold into the design once.
        assert rows.tobytes() == (-scaled.labels[:, None] * scaled.to_dense()).tobytes()

    def test_parsed_arrays_go_when_the_problem_is_built(self, tmp_path, monkeypatch, rng):
        import weakref

        import polyprec.experiments as experiments

        path = tmp_path / "held.txt"
        write_libsvm(path, rng.standard_normal((12, 3)), np.ones(12))
        parsed, unscaled_alive = [], []

        def parse(data_path):
            dataset = parse_libsvm(data_path)
            parsed.append([weakref.ref(array) for array in (dataset.col, dataset.val)])
            return dataset

        def to_dense(self):
            # The unscaled values go once standardized, before the design exists.
            unscaled_alive.append(parsed[0][1]() is not None)
            return dense(self)

        dense = DatasetMatrix.to_dense
        monkeypatch.setattr(experiments, "parse_libsvm", parse)
        monkeypatch.setattr(DatasetMatrix, "to_dense", to_dense)
        obj = build_problem(ExperimentConfig(dataset=str(path)))
        assert obj.n == 3
        assert unscaled_alive == [False]
        assert [ref() for ref in parsed[0]] == [None, None]

    def test_logistic_holds_one_dense_design(self, rng):
        ds = self._sparse_dataset(rng)
        dense_bytes = ds.n_rows * ds.n_features * 8
        tracemalloc.start()
        try:
            logistic_from_dataset(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * dense_bytes


class TestSynthetic:
    def test_spectrum_round_trip(self):
        for seed in range(10):
            synthetic = (50.0, 5.0, 1.0, 12)
            obj = synth_regression(synthetic, HuberLoss(0.1), seed)
            got = np.sort(np.linalg.eigvalsh(obj.curvature.to_dense()))[::-1]
            assert np.allclose(got, planted_spectrum(synthetic), rtol=1e-9, atol=1e-9)

    def test_planted_spectrum_sorts_the_pattern(self):
        assert planted_spectrum((2.0, 12.0, 1.0, 5), rows=5).tolist() == [12, 2, 1, 1, 1]

    @pytest.mark.parametrize(
        "synthetic, rows, message",
        [
            ((1.0, 1.0, 1.0, 1), None, "pattern spec needs n >= 2"),
            ((12.0, 2.0, 0.0, 6), None, "spectrum must be finite and positive"),
            ((np.inf, 2.0, 1.0, 6), None, "spectrum must be finite and positive"),
            ((12.0, 2.0, 1.0, 6), 5, "rows must be at least the dimension 6, got 5"),
        ],
    )
    def test_planted_spectrum_rejects(self, synthetic, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            planted_spectrum(synthetic, rows)

    def test_same_seed_same_problem(self):
        a = synth_regression((9.0, 2.0, 1.0, 6), HuberLoss(0.1), 4)
        b = synth_regression((9.0, 2.0, 1.0, 6), HuberLoss(0.1), 4)
        assert np.array_equal(a.curvature.design, b.curvature.design)
        # The targets enter the value and the gradient at any point.
        x = np.linspace(-1.0, 1.0, 6)
        assert a.value(x) == b.value(x)
        assert np.array_equal(a.gradient(x), b.gradient(x))

    @pytest.mark.parametrize("n, seed", [(100, 204), (100, 1), (300, 7), (1000, 204)])
    def test_design_scaling_matches_the_dense_product(self, n, seed):
        from polyprec.datasets import _design_matrix, _orthonormal

        lam = planted_spectrum((300.0, 20.0, 1.0, n))
        q = _orthonormal(np.random.default_rng(seed), (n, n))
        expected = np.diag(np.sqrt(lam)) @ q.T
        got, _ = _design_matrix(lam, None, np.random.default_rng(seed))
        # The layout too: products with a column-major design round differently.
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    def test_overdetermined_rows_exact_spectrum(self):
        synthetic = (20.0, 4.0, 1.0, 8)
        obj = synth_regression(synthetic, LogisticLoss(), seed=2, rows=40)
        assert obj.curvature.design.shape == (40, 8)
        got = np.sort(np.linalg.eigvalsh(obj.curvature.to_dense()))[::-1]
        assert np.allclose(got, planted_spectrum(synthetic), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "rows, loss",
        [(rows, loss) for rows in (None, 300) for loss in (HuberLoss(0.1), LogisticLoss())],
    )
    def test_kept_decomposition_is_the_grams(self, monkeypatch, rows, loss):
        synthetic = (1000, 300, 1, 100)
        op = synth_regression(synthetic, loss, seed=204, rows=rows).curvature
        gram = op.to_dense()
        expected = np.sort(np.linalg.eigvalsh(gram))[::-1]
        monkeypatch.setattr(np.linalg, "eigh", None)  # the kept decomposition needs none
        dec = spectral_decomposition(op)
        assert dec.eigenvalues.tobytes() == planted_spectrum(synthetic).tobytes()
        assert np.allclose(dec.eigenvalues, expected, rtol=1e-10, atol=0.0)
        q = dec.eigenvectors
        assert np.allclose(q @ np.diag(dec.eigenvalues) @ q.T, gram, rtol=0.0, atol=1e-12)
        for array in (dec.eigenvalues, dec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_classification_dataset_not_separable_tag(self):
        ds = synth_classification_dataset((30.0, 6.0, 1.0, 10), seed=3, rows=50, flip=0.25)
        assert ds.n_rows == 50
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}


class TestExperiments:
    def test_run_experiment_files(self, tmp_path):
        config = ExperimentConfig(
            name="demo",
            method="adaptive-gm",
            precond="sympoly:1",
            synthetic=(20.0, 2.0, 1.0, 12),
            loss="huber:0.1",
            max_iters=150,
            tol=1e-5,
            seed=5,
            out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        assert (tmp_path / "demo.csv").exists()
        assert (tmp_path / "demo.json").exists()
        assert summary["termination"] in ("gap_target", "max_iters")
        data = read_run_csv(tmp_path / "demo.csv")
        assert list(data.keys()) == [
            "iter", "fval", "gap", "matvecs", "grad_evals", "ls_trials", "M_k", "time_ms",
        ]

    def test_gap_met_at_the_cap_is_reached(self, tmp_path):
        # A fixed reference budget keeps f* the same across the budgets.
        config = ExperimentConfig(
            name="cap", synthetic=(40.0, 4.0, 1.0, 10), rows=50, max_iters=500, tol=1e-6,
            reference_iters=2000, out_dir=str(tmp_path),
        )
        k = run_experiment(config)["iterations_to_tolerance"]
        config.max_iters = k
        summary = run_experiment(config)
        assert summary["termination"] == "gap_target"
        assert summary["iterations"] == summary["iterations_to_tolerance"] == k
        config.max_iters = k - 1
        summary = run_experiment(config)
        assert (summary["termination"], summary["iterations_to_tolerance"]) == ("max_iters", None)

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_unmet_gap_has_no_iterations_to_tolerance(self, tmp_path, tol):
        config = ExperimentConfig(
            name="short", synthetic=(40.0, 4.0, 1.0, 10), rows=50, max_iters=3, tol=tol,
            out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        assert summary["termination"] == "max_iters"
        assert summary["iterations_to_tolerance"] is None
        assert json.loads((tmp_path / "short.json").read_text())["iterations_to_tolerance"] is None

    def test_run_builds_its_problem_once(self, tmp_path, monkeypatch):
        import polyprec.experiments as experiments

        calls = []
        build = experiments.build_problem

        def counted(config):
            calls.append(config.name)
            return build(config)

        monkeypatch.setattr(experiments, "build_problem", counted)
        config = ExperimentConfig(
            name="once",
            method="krylov",
            tau=2,
            synthetic=(20.0, 2.0, 1.0, 8),
            loss="huber:0.1",
            max_iters=10,
            out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        assert calls == ["once"]
        # The reference shares the objective, but the run counts from its own start.
        assert summary["total_matvecs"] == read_run_csv(tmp_path / "once.csv")["matvecs"][-1]
        assert summary["total_matvecs"] <= 10 * 3

    @pytest.mark.parametrize("method", ["adaptive-gm", "adaptive-fgm"])
    def test_adaptive_guess_is_taken_at_the_start_point(self, monkeypatch, method):
        import polyprec.experiments as experiments

        obj = build_problem(ExperimentConfig(synthetic=(20.0, 2.0, 1.0, 12), loss="huber:0.1"))
        prec, bounds, _ = experiments._build(obj, method, "sympoly:1")
        x0 = np.linspace(-1.0, 1.0, obj.n)
        guess, points = experiments.initial_guess_M, []

        def spied(obj, prec, x, M0_prime):
            points.append(x)
            return guess(obj, prec, x, M0_prime)

        monkeypatch.setattr(experiments, "initial_guess_M", spied)
        run, _ = experiments._run(obj, method, 0, prec, bounds, SolverConfig(max_iters=3, x0=x0))
        assert len(points) == 1 and np.array_equal(points[0], x0)
        assert run.records[0].M_k == guess(obj, prec, x0, 1.0)
        assert run.records[0].M_k != guess(obj, prec, np.zeros(obj.n), 1.0)

    def test_csv_round_trip_lossless(self, tmp_path):
        config = ExperimentConfig(
            name="rt",
            method="fgm",
            precond="sympoly:2",
            synthetic=(10.0, 2.0, 1.0, 8),
            loss="huber:0.1",
            max_iters=40,
            seed=1,
            out_dir=str(tmp_path),
        )
        run_experiment(config)
        first = read_run_csv(tmp_path / "rt.csv")
        # Rewrite from parsed floats and re-read; every column must survive.
        rewritten = tmp_path / "rt2.csv"
        with open(tmp_path / "rt.csv") as src, open(rewritten, "w", newline="") as dst:
            reader = csv.reader(src)
            writer = csv.writer(dst)
            writer.writerow(next(reader))
            for row in reader:
                writer.writerow([repr(float(v)) for v in row])
        second = read_run_csv(rewritten)
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_krylov_config_rejects_precond(self):
        config = ExperimentConfig(
            method="krylov", precond="sympoly:2", synthetic=(10.0, 2.0, 1.0, 8)
        )
        with pytest.raises(ValueError, match="krylov"):
            config.validate()

    @pytest.mark.parametrize("method", ["gm", "fgm", "adaptive-gm", "adaptive-fgm"])
    def test_tau_needs_the_krylov_method(self, tmp_path, method):
        config = ExperimentConfig(method=method, tau=2, synthetic=(10.0, 2.0, 1.0, 8))
        with pytest.raises(ValueError, match=f"the {method} method ignores it"):
            config.validate()
        # A file may set tau before its method; only the whole file is judged.
        path = tmp_path / "late.cfg"
        path.write_text("tau = 3\nmethod = krylov\nsynthetic = 10,2,1,8\n")
        assert parse_config_file(path).tau == 3
        path.write_text(f"tau = 3\nmethod = {method}\nsynthetic = 10,2,1,8\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tau is the degree"):
            parse_config_file(path)

    def test_config_needs_exactly_one_problem(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(method="gm", dataset="x.txt", synthetic=(1, 1, 1, 4)).validate()

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# benchmark\n"
            "name = cfgdemo\n"
            "method = fgm\n"
            "precond = sympoly:2\n"
            "synthetic = 30,3,1,10\n"
            "loss = huber:0.1\n"
            "max_iters = 50\n"
            "seed = 9\n"
        )
        config = parse_config_file(path)
        assert config.name == "cfgdemo"
        assert config.method == "fgm"
        assert config.synthetic == (30.0, 3.0, 1.0, 10)

    def test_every_config_field_is_a_solve_flag_and_a_config_key(self, tmp_path):
        names = {field.name for field in fields(ExperimentConfig)}
        actions = build_parser()._actions
        [commands] = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        flags = {action.dest for action in commands.choices["solve"]._actions}
        assert names - flags == {"reference_iters"}
        # One valid value per field, none its default; dataset and synthetic
        # exclude each other, so two files.
        files = [
            {
                "name": "every", "method": "krylov", "tau": "1",
                "synthetic": "12,2,1,6", "rows": "20", "loss": "huber:0.2", "max_iters": "7",
                "tol": "0.001", "seed": "3", "out_dir": "o", "reference_iters": "9",
            },
            {"dataset": "x.txt", "standardize": "no", "precond": "sympoly:2"},
        ]
        assert {key for keys in files for key in keys} == names
        default = ExperimentConfig()
        for i, values in enumerate(files):
            path = tmp_path / f"{i}.cfg"
            path.write_text("".join(f"{key} = {raw}\n" for key, raw in values.items()))
            config = parse_config_file(path)
            for key in values:
                assert getattr(config, key) != getattr(default, key), key

    def test_parse_config_undecodable_bytes_report_their_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"method = gm\r\n# caf\xc3\xa9\r\n\xff=1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not UTF-8"):
            parse_config_file(path)

    def test_parse_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("method = gm\nwat = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_iters = ten", "invalid literal"),
            ("synthetic = 12,2,1,6.7", "invalid literal"),
            ("synthetic = 12,2,1", "lam1,lam2,tail,n"),
            ("standardize = ture", "expected one of"),
            ("tol = small", "could not convert"),
            ("precond = cutting:1:zz", "unexpected fields"),
            ("loss = huberish:0.2", "unknown loss"),
            ("loss = huber:nan", "huber width must be finite and positive, got nan"),
            ("loss = huber:inf", "huber width must be finite and positive, got inf"),
            ("loss = huber:0", "huber width must be finite and positive, got 0.0"),
            ("precond = sympoly:-1", "degree must be at least 0"),
            ("precond = chebyshev:-2", "degree must be at least 0"),
            ("precond = cutting:-1", "degree must be at least 0"),
            ("precond = sympoly:3:stochastic:0", "sample count must be at least 1"),
            ("precond = sympoly:2:stochastic:64:-5", "seed must be at least 0"),
            ("seed = -1", "seed must be at least 0, got -1"),
            ("tol = -1", "tol must be finite and nonnegative, got -1.0"),
            ("tol = nan", "tol must be finite and nonnegative, got nan"),
            ("rows = 4", "rows must be at least the dimension 6, got 4"),
            ("synthetic = 1,1,1,1", "n >= 2"),
            ("synthetic = 12,2,0,6", "spectrum must be finite and positive"),
            ("synthetic = nan,2,1,6", "spectrum must be finite and positive"),
            ("synthetic = inf,2,1,6", "spectrum must be finite and positive"),
            ("precond = cutting:6", "degree 6 of 'cutting:6' exceeds n-1=5"),
            ("precond = sympoly:9", "degree 9 of 'sympoly:9' exceeds n-1=5"),
            ("precond = sympoly:6:stochastic", "degree 6 of .* exceeds n-1=5"),
            ("precond = sympoly:7:stochastic:8:1", "degree 7 of .* exceeds n-1=5"),
            ("method = gmx", "unknown method 'gmx'"),
            ("dataset = x.txt", "exactly one of dataset or synthetic"),
        ],
    )
    def test_parse_config_bad_value_reports_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"method = gm\nsynthetic = 12,2,1,6\n# comment\n{line}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:4: .*{message}"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("method = krylov", "precond = sympoly:2", "drop --precond, or precond = in a config"),
            ("dataset = x.txt", "loss = huber:0.1", "dataset runs use the logistic loss"),
            ("dataset = x.txt", "rows = 5", "rows sets the size of a synthetic design"),
        ],
    )
    def test_parse_config_clash_names_the_later_line(self, tmp_path, first, second, message):
        # Either order: the line that makes two fields clash is the one named.
        for order in ((first, second), (second, first)):
            path = tmp_path / "clash.cfg"
            path.write_text(f"{order[0]}\n# comment\n{order[1]}\n")
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: .*{message}"):
                parse_config_file(path)

    @pytest.mark.parametrize("word, expected", [("yes", True), ("OFF", False), ("0", False)])
    def test_parse_config_standardize_words(self, tmp_path, word, expected):
        path = tmp_path / "words.cfg"
        path.write_text(f"dataset = x.txt\nstandardize = {word}\n")
        assert parse_config_file(path).standardize is expected

    def test_bench_deterministic_csvs(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(
            "name = det\n"
            "method = adaptive-fgm\n"
            "precond = sympoly:1\n"
            "synthetic = 25,5,1,10\n"
            "loss = huber:0.1\n"
            "max_iters = 60\n"
            "seed = 3\n"
        )
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        run_bench([cfg], out_dir=out1)
        run_bench([cfg], out_dir=out2)
        rows1 = (out1 / "det.csv").read_text().splitlines()
        rows2 = (out2 / "det.csv").read_text().splitlines()
        assert len(rows1) == len(rows2)
        for a, b in zip(rows1, rows2):
            assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]  # all but time_ms

    def test_degree_above_dim_names_the_later_line(self, tmp_path):
        path = tmp_path / "late.cfg"
        path.write_text("precond = cutting:9\nmethod = gm\nsynthetic = 12,2,1,6\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: 'synthetic': degree 9"):
            parse_config_file(path)

    @pytest.mark.parametrize("precond", ["cutting:6", "sympoly:6", "sympoly:6:stochastic:8"])
    def test_validate_bounds_degree_by_dim(self, precond):
        config = ExperimentConfig(precond=precond, synthetic=(12.0, 2.0, 1.0, 6), loss="huber:0.1")
        with pytest.raises(ValueError, match="exceeds n-1=5"):
            config.validate()
        lower = precond.replace(":6", ":5", 1)
        ExperimentConfig(precond=lower, synthetic=(12.0, 2.0, 1.0, 6), loss="huber:0.1").validate()
        # A dataset's n is known only after parsing; its build checks the degree.
        ExperimentConfig(precond=precond, dataset="x.txt").validate()
        # Chebyshev's degree has no bound.
        ExperimentConfig(precond="chebyshev:9", synthetic=(12.0, 2.0, 1.0, 6)).validate()

    def _one_problem_batch(self, tmp_path, second_seed=5):
        paths = []
        for name, method, precond, seed in (
            ("g", "gm", "sympoly:2", 5),
            ("f", "fgm", "cutting:1", 5),
            ("a", "adaptive-fgm", "sympoly:1:stochastic:16", second_seed),
        ):
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                f"name = {name}\nmethod = {method}\nprecond = {precond}\n"
                f"synthetic = 20,4,1,8\nloss = huber:0.1\nmax_iters = 25\nseed = {seed}\n"
            )
            paths.append(path)
        return paths

    def test_bench_builds_each_problem_once(self, tmp_path, monkeypatch):
        import polyprec.experiments as experiments

        calls = []
        build = experiments.build_problem

        def counted(config):
            calls.append(config.name)
            return build(config)

        monkeypatch.setattr(experiments, "build_problem", counted)
        paths = self._one_problem_batch(tmp_path)
        run_bench(paths, out_dir=tmp_path / "batch")
        assert calls == ["g"]
        for path in paths:
            config = parse_config_file(path)
            config.out_dir = str(tmp_path / "alone")
            run_experiment(config)
        for path in paths:
            rows = [
                [line.rsplit(",", 1)[0] for line in (tmp_path / side / f"{path.stem}.csv").open()]
                for side in ("batch", "alone")
            ]
            assert rows[0] == rows[1]  # every column but time_ms
            summaries = [
                json.loads((tmp_path / side / f"{path.stem}.json").read_text())
                for side in ("batch", "alone")
            ]
            for summary in summaries:
                del summary["config"]["out_dir"]
            assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("source", ["synthetic", "dataset"])
    def test_bench_decomposes_each_problem_once(self, tmp_path, monkeypatch, rng, source):
        # Two problems, each run by a fixed-step method with every spectral
        # family and an adaptive one, each with its inverse-metric reference.
        # A synthetic problem keeps its planted decomposition, so it costs no
        # eigh; a dataset costs one per problem.
        paths = []
        for name, method, precond, problem in (
            ("g", "gm", "sympoly:2", 0),
            ("f", "fgm", "cutting:1", 0),
            ("c", "fgm", "chebyshev:3", 1),
            ("a", "adaptive-fgm", "sympoly:1:stochastic:16", 1),
        ):
            if source == "synthetic":
                fields = f"synthetic = 20,4,1,8\nloss = huber:0.1\nseed = {5 + problem}\n"
            else:
                data = tmp_path / f"d{problem}.txt"
                if not data.exists():
                    write_libsvm(data, rng.standard_normal((30, 8)), rng.choice([-1.0, 1.0], 30))
                fields = f"dataset = {data}\n"
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                f"name = {name}\nmethod = {method}\nprecond = {precond}\nmax_iters = 25\n{fields}"
            )
            paths.append(path)
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        run_bench(paths, out_dir=tmp_path / "runs")
        assert calls == ([] if source == "synthetic" else [(8, 8)] * 2)

    def test_bench_imports_no_numpy_polynomial(self, tmp_path):
        paths = self._one_problem_batch(tmp_path)
        script = (
            "import sys\n"
            "from polyprec.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.polynomial' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        done = _run_fresh(script, ["bench", *map(str, paths), "--out", str(tmp_path / "runs")])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_plotdata_merge(self, tmp_path):
        for name, method in (("m1", "gm"), ("m2", "fgm")):
            run_experiment(
                ExperimentConfig(
                    name=name,
                    method=method,
                    precond="identity",
                    synthetic=(10.0, 2.0, 1.0, 6),
                    loss="huber:0.1",
                    max_iters=20,
                    seed=2,
                    out_dir=str(tmp_path),
                )
            )
        out = tmp_path / "merged.csv"
        merged = merge_plotdata(tmp_path, out)
        assert merged == 2
        lines = out.read_text().splitlines()
        assert lines[0].startswith("run,method,precond,iter")
        assert len(lines) == 1 + 2 * 21

    def test_failed_write_leaves_nothing(self, tmp_path):
        class Unwritable:
            def __float__(self):
                raise RuntimeError("disk full")

        good = IterationRecord(0, 1.0, np.inf, 0, 0, 0, 0, 0, 1.0, 0.0, 0.0)
        bad = IterationRecord(1, Unwritable(), 0.5, 1, 1, 1, 1, 1, 1.0, 0.0, 0.1)
        run = RunResult("gm", [good, bad], np.zeros(2), "max_iters")
        with pytest.raises(RuntimeError, match="disk full"):
            write_run_csv(tmp_path / "broken.csv", run, 0.0)
        assert list(tmp_path.iterdir()) == []
        # A failed rewrite keeps the previous file whole.
        write_run_csv(tmp_path / "kept.csv", RunResult("gm", [good], np.zeros(2), "x"), 0.0)
        before = (tmp_path / "kept.csv").read_text()
        with pytest.raises(RuntimeError, match="disk full"):
            write_run_csv(tmp_path / "kept.csv", run, 0.0)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
        assert (tmp_path / "kept.csv").read_text() == before


GAPPED = dict(synthetic=(1000.0, 300.0, 1.0, 100), loss="huber:0.1", seed=204)


class TestReference:
    """The reference optimum: exact inverse metric, stopped at the rounding floor."""

    def test_summary_certifies_the_reference(self, tmp_path):
        code = cli_main(
            [
                "solve", "--name", "cert", "--synthetic", "15,3,1,8",
                "--loss", "huber:0.1", "--max-iters", "40", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "cert.json").read_text())
        reference = summary["reference"]
        assert set(reference) == {
            "method", "precond", "iterations", "termination", "grad_map", "negative_gaps",
            "matvecs", "f_evals", "grad_evals", "data_passes",
        }
        assert reference["method"] == "adaptive-fgm"
        assert reference["precond"] == "inverse"
        assert reference["termination"] in ("grad_map_tol", "rounding_floor")
        assert 1 <= reference["iterations"] < 400
        assert np.isfinite(reference["grad_map"])
        assert summary["f_star_reference"] <= summary["final_fval"]

    @pytest.mark.parametrize(
        "overrides, termination",
        [
            (dict(synthetic=(40, 4, 1, 10), rows=50, reference_iters=1), "max_iters"),
            (dict(synthetic=(40, 4, 1, 10), rows=50), "rounding_floor"),
            (dict(synthetic=(15, 3, 1, 8), loss="huber:0.1"), "grad_map_tol"),
        ],
    )
    def test_uncertified_reference_warns(self, caplog, overrides, termination):
        config = ExperimentConfig(name="probe", max_iters=40, **overrides)
        with caplog.at_level(logging.WARNING, logger="polyprec"):
            reference = reference_optimum(config, build_problem(config))
        assert reference.termination == termination
        messages = [r.getMessage() for r in caplog.records if r.name == "polyprec"]
        if termination == "max_iters":
            assert len(messages) == 1
            assert "'probe'" in messages[0] and "max_iters" in messages[0]
        else:
            assert messages == []

    def test_bench_completes_with_uncertified_reference(self, tmp_path, caplog):
        path = tmp_path / "short.cfg"
        path.write_text("synthetic = 40,4,1,10\nrows = 50\nmax_iters = 20\nreference_iters = 1\n")
        with caplog.at_level(logging.WARNING, logger="polyprec"):
            code = cli_main(["bench", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "short.csv").exists() and (tmp_path / "short.json").exists()
        assert any("'short'" in r.getMessage() for r in caplog.records if r.name == "polyprec")

    def test_indefinite_preconditioner_fails_before_the_reference(
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        import polyprec.experiments as experiments

        references = []
        monkeypatch.setattr(experiments, "reference_optimum", lambda *a: references.append(a))
        argv = [
            "solve", "--synthetic", "1000,300,1,100", "--loss", "huber:0.1", "--seed", "204",
            "--method", "gm", "--precond", "sympoly:3:stochastic:64", "--max-iters", "5",
            "--out", str(tmp_path / "out"),
        ]
        with caplog.at_level(logging.WARNING, logger="polyprec"):
            assert cli_main(argv) == 1
        assert "preconditioner is indefinite" in capsys.readouterr().err
        assert [r for r in caplog.records if r.name == "polyprec"] == []
        assert references == []

    def test_dataset_degree_above_n_fails_before_the_reference(
        self, tmp_path, capsys, monkeypatch, rng
    ):
        import polyprec.experiments as experiments

        references = []
        monkeypatch.setattr(experiments, "reference_optimum", lambda *a: references.append(a))
        data = tmp_path / "d.txt"
        write_libsvm(data, rng.standard_normal((30, 4)), np.where(rng.random(30) < 0.5, 1, -1))
        argv = ["solve", "--dataset", str(data), "--precond", "cutting:10", "--out", str(tmp_path)]
        assert cli_main(argv) == 1
        assert "exceeds n-1=3" in capsys.readouterr().err
        assert references == []

    @pytest.mark.parametrize("reference_iters", [None, 1])
    def test_summary_reports_oracle_counts_and_negative_gaps(
        self, tmp_path, monkeypatch, reference_iters
    ):
        import polyprec.experiments as experiments

        runs = []
        run_step = experiments._run

        def captured(*args):
            result = run_step(*args)
            runs.append(result[0])
            return result

        monkeypatch.setattr(experiments, "_run", captured)
        config = ExperimentConfig(
            name="counts", synthetic=(40, 4, 1, 10), rows=50, max_iters=20,
            reference_iters=reference_iters, out_dir=str(tmp_path),
        )
        run_experiment(config)
        summary = json.loads((tmp_path / "counts.json").read_text())
        columns = read_run_csv(tmp_path / "counts.csv")
        assert [run.method for run in runs] == ["adaptive-fgm", "adaptive-gm"]
        records = runs[-1].records  # the reference runs first
        assert summary["f_evals"] == records[-1].f_evals
        assert summary["grad_evals"] == records[-1].grad_evals == columns["grad_evals"][-1]
        negative = summary["reference"]["negative_gaps"]
        f_star = summary["f_star_reference"]
        assert negative == sum(r.f_value < f_star for r in records)
        assert negative == int(np.sum(columns["gap"] < 0))
        # A one-iteration reference sits above most of the run.
        assert (negative > 0) == (reference_iters == 1)

    @pytest.mark.parametrize("method", ["adaptive-gm", "adaptive-fgm", "gm"])
    def test_summary_data_passes_match_spied_products(self, tmp_path, monkeypatch, rng, method):
        import polyprec.experiments as experiments
        import polyprec.problems as problems

        path = tmp_path / "passes.txt"
        write_libsvm(path, rng.standard_normal((30, 4)), np.where(rng.random(30) < 0.5, 1, -1))
        # Each loss call follows one forward product and each gradient call
        # makes one adjoint product.
        products = [0]
        loss_call = problems.LogisticLoss.__call__
        gradient = problems.CompositeObjective.gradient

        def forward(self, t):
            products[0] += 1
            return loss_call(self, t)

        def adjoint(self, x):
            products[0] += 1
            return gradient(self, x)

        spent = {"reference_optimum": [], "initial_guess_M": []}

        def spy(name):
            original = getattr(experiments, name)

            def spied(*args):
                before = products[0]
                out = original(*args)
                spent[name].append(products[0] - before)
                return out

            monkeypatch.setattr(experiments, name, spied)

        monkeypatch.setattr(problems.LogisticLoss, "__call__", forward)
        monkeypatch.setattr(problems.CompositeObjective, "gradient", adjoint)
        spy("reference_optimum")
        spy("initial_guess_M")
        config = ExperimentConfig(
            name="passes", dataset=str(path), method=method, precond="sympoly:1",
            max_iters=15, out_dir=str(tmp_path),
        )
        summary = run_experiment(config)
        assert json.loads((tmp_path / "passes.json").read_text()) == summary
        (reference,) = spent["reference_optimum"]
        # The reference's adaptive run makes the first guess, an adaptive run the second.
        guesses = spent["initial_guess_M"][1:]
        assert len(guesses) == (method != "gm")
        assert summary["reference"]["data_passes"] == reference > 0
        assert summary["precond"]["guess"]["data_passes"] == sum(guesses)
        # The rest is the iterations', readouts included.
        assert summary["data_passes"] == products[0] - reference - sum(guesses)
        assert summary["data_passes"] > summary["grad_evals"]

    def test_singular_gram_from_unused_feature(self, tmp_path):
        rng = np.random.default_rng(8)
        lines = []
        for _ in range(60):
            features = sorted(rng.choice([1, 2, 4, 5], size=2, replace=False))
            label = "+1" if rng.random() < 0.5 else "-1"
            lines.append(label + "".join(f" {j}:{rng.uniform(0.5, 2):.3f}" for j in features))
        path = tmp_path / "gap3.txt"
        path.write_text("\n".join(lines) + "\n")
        op = logistic_from_dataset(parse_libsvm(path)).curvature
        B = op.to_dense()
        P = inverse_preconditioner(op).matrix
        # Finite, and nothing from inverting the zero eigenvalue's rounding noise.
        assert np.all(np.isfinite(P))
        assert np.abs(P).max() < 1e3
        assert np.allclose(B @ P @ B, B, atol=1e-12 * np.abs(B).max())
        code = cli_main(
            ["solve", "--name", "gap3", "--dataset", str(path), "--max-iters", "50",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "gap3.json").read_text())
        f_star = summary["f_star_reference"]
        assert np.isfinite(f_star)
        # A reference stopped at the rounding floor is optimal up to rounding.
        assert f_star - summary["final_fval"] <= ROUNDING_FLOOR * abs(f_star)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--method", "gm", "--precond", "identity"],
            ["solve", "--method", "fgm", "--precond", "identity"],
            ["solve", "--method", "gm", "--precond", "inverse"],
            ["solve", "--method", "fgm", "--precond", "chebyshev:3"],
            ["solve", "--method", "gm", "--precond", "cutting:2"],
            ["spectrum"],
        ],
    )
    def test_singular_gram_runs_on_its_range(self, tmp_path, argv):
        # A feature that never occurs: the Gram's zero eigenvalue rounds to
        # -1.7e-17 here, and the spectral set-ups must look past its sign.
        design = np.random.default_rng(0).standard_normal((30, 6))
        design[:, 2] = 0.0
        path = tmp_path / "zero3.txt"
        write_libsvm(path, design, np.where(np.arange(30) % 2 == 0, 1, -1))
        argv = [*argv, "--dataset", str(path), "--out", str(tmp_path / "out")]
        if argv[0] == "solve":
            argv += ["--max-iters", "20"]
        assert cli_main(argv) == 0

    def test_tall_huber_matches_newton(self):
        config = ExperimentConfig(rows=300, max_iters=200, **GAPPED)
        f_star = reference_optimum(config, build_problem(config)).f_star
        # Value of a damped Newton solve with gradient norm 4e-13.
        assert f_star == pytest.approx(151.8331653956, rel=1e-10)

    def test_gapped_interpolating_problem_reaches_zero(self):
        config = ExperimentConfig(max_iters=200, reference_iters=1000, **GAPPED)
        reference = reference_optimum(config, build_problem(config))
        assert reference.f_star <= 1e-20
        assert reference.termination == "grad_map_tol"

    @pytest.mark.parametrize("second_seed, expected_calls", [(3, 1), (4, 2)])
    def test_bench_shares_one_reference_per_problem(
        self, tmp_path, monkeypatch, second_seed, expected_calls
    ):
        import polyprec.experiments as experiments

        calls = []
        reference = experiments.reference_optimum

        def counted(config, obj):
            calls.append(config.name)
            return reference(config, obj)

        monkeypatch.setattr(experiments, "reference_optimum", counted)
        paths = []
        for name, method, seed in (("a", "gm", 3), ("b", "adaptive-fgm", second_seed)):
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                f"name = {name}\nmethod = {method}\nsynthetic = 12,2,1,6\n"
                f"loss = huber:0.1\nmax_iters = 15\nseed = {seed}\n"
            )
            paths.append(path)
        summaries = run_bench(paths, out_dir=tmp_path / "runs")
        assert len(calls) == expected_calls
        if expected_calls == 1:
            assert summaries[0]["reference"] == summaries[1]["reference"]


class TestCLI:
    def test_solve_and_exit_zero(self, tmp_path, capsys):
        code = cli_main(
            [
                "solve", "--name", "clirun", "--method", "adaptive-gm",
                "--precond", "sympoly:1", "--synthetic", "15,3,1,8",
                "--loss", "huber:0.1", "--max-iters", "80", "--seed", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "clirun.csv").exists()

    def test_krylov_solve(self, tmp_path):
        code = cli_main(
            [
                "solve", "--name", "k", "--method", "krylov", "--tau", "2",
                "--synthetic", "15,3,1,8", "--loss", "huber:0.1",
                "--max-iters", "30", "--out", str(tmp_path),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "name, data, argv",
        [
            ("bad.txt", b"+1 1:1\n\xff\xfe 2:1\n", ["solve", "--dataset"]),
            ("bad.cfg", b"method = gm\nmax_iters = 3\n\xff=1\n", ["bench"]),
        ],
    )
    def test_undecodable_file_is_exit_one_with_its_line(self, tmp_path, capsys, name, data, argv):
        path = tmp_path / name
        path.write_bytes(data)
        assert cli_main([*argv, str(path), "--out", str(tmp_path / "o")]) == 1
        lineno = 2 if name == "bad.txt" else 3
        assert capsys.readouterr().err.startswith(f"polyprec: error: {path}:{lineno}: not UTF-8")

    def test_a9a_shaped_run_meets_its_gap_at_the_cap(self, tmp_path, capsys, monkeypatch):
        # The benchmark's seed-1 file reaches a 1e-6 gap at iteration 41.
        source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", source)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        data = tmp_path / "a9a.txt"
        workloads.write_a9a_like(data, 1)
        argv = [
            "solve", "--method", "adaptive-gm", "--precond", "sympoly:2", "--dataset", str(data),
            "--max-iters", "41", "--tol", "1e-6", "--out", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["termination"] == "gap_target"
        assert summary["iterations"] == summary["iterations_to_tolerance"] == 41

    def test_usage_error_is_exit_one(self):
        assert cli_main(["solve", "--method", "nope"]) == 1
        assert cli_main(["definitely-not-a-command"]) == 1
        assert cli_main(["spectrum", "--synthetic", "12,2,1,6.7"]) == 1

    def test_left_out_flags_keep_config_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setattr("polyprec.cli.run_experiment", lambda config: seen.append(config) or {})
        assert cli_main(["solve", "--synthetic", "10,3,1,6"]) == 0
        assert seen == [ExperimentConfig(synthetic=(10.0, 3.0, 1.0, 6))]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_is_exit_one(self, tmp_path, capsys, tol):
        # NaN would reach the JSON summary, which is then not JSON; inf stops
        # at iteration 0 and a negative target is never met.
        out = tmp_path / "out"
        argv = ["solve", "--synthetic", "10,3,1,6", "--loss", "huber:0.1", f"--tol={tol}"]
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert "tol must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_is_exit_three(self, monkeypatch, capsys):
        def diverged(config):
            raise RuntimeError("gm: objective became non-finite")

        monkeypatch.setattr("polyprec.cli.run_experiment", diverged)
        code = cli_main(["solve", "--synthetic", "15,3,1,8", "--loss", "huber:0.1"])
        assert code == 3
        assert "polyprec: error: gm: objective became non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--precond", "identity:7"),
            ("--precond", "inverse:x"),
            ("--precond", "cutting:1:zz"),
            ("--precond", "sympoly:1:stochastic:8:0:junk"),
            ("--loss", "huberish:0.2"),
            ("--loss", "huber:0.1:junk"),
        ],
    )
    def test_stray_field_is_exit_one(self, tmp_path, capsys, flag, text):
        argv = ["solve", "--synthetic", "15,3,1,8", "--loss", "huber:0.1", flag, text]
        assert cli_main(argv + ["--out", str(tmp_path)]) == 1
        assert repr(text) in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_tau_without_krylov_is_exit_one(self, tmp_path, capsys):
        argv = ["solve", "--method", "gm", "--precond", "sympoly:2", "--tau", "5"]
        argv += ["--synthetic", "40,4,1,12", "--loss", "huber:0.1", "--out", str(tmp_path)]
        assert cli_main(argv) == 1
        assert "polyprec: error: tau is the degree of the krylov method" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_krylov_accepts_a_padded_identity(self, tmp_path):
        argv = ["solve", "--method", "krylov", "--precond", " identity", "--tau", "2"]
        argv += ["--synthetic", "10,2,1,8", "--loss", "huber:0.1", "--max-iters", "3"]
        assert cli_main(argv + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--synthetic", "1,1,1,5000000"],
            ["--synthetic", "10,5,1,20", "--rows", "1000000000000000"],
            ["--synthetic", "10,5,1,20", "--precond", "sympoly:2:stochastic:1000000000000000"],
        ],
    )
    def test_oversized_synthetic_is_exit_one(self, tmp_path, capsys, flags):
        # The orthonormal factor (182 TiB), the lifted design or the stochastic
        # draws (142 PiB each) exceed the 128 TiB a process can map, so the
        # allocation fails at once under any overcommit setting.
        out = tmp_path / "out"
        assert cli_main(["solve", *flags, "--loss", "huber:0.1", "--out", str(out)]) == 1
        assert "polyprec: error: Unable to allocate" in capsys.readouterr().err
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

    @pytest.mark.parametrize("name", ["../escape", "", ".", "..", "a/b"])
    def test_run_name_must_be_a_file_name(self, tmp_path, capsys, name):
        out = tmp_path / "o" / "sub"
        argv = ["solve", "--name", name, "--synthetic", "10,5,1,6", "--loss", "huber:0.1"]
        assert cli_main(argv + ["--max-iters", "3", "--out", str(out)]) == 1
        message = f"name must be a plain file name, got {name!r}"
        assert f"polyprec: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"synthetic = 10,5,1,6\nloss = huber:0.1\nname = {name}\n")
        assert cli_main(["bench", str(cfg), "--out", str(out)]) == 1
        assert f"{cfg}:3: 'name': {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_huge_feature_index_is_exit_one(self, tmp_path, capsys, command, standardize):
        # The index is below the parser's 2^53 limit, so the file parses; its
        # column norms (64 PiB) or dense design (128 PiB) exceed any 64-bit
        # address space, so the failed allocation takes nothing.
        data = tmp_path / "huge.txt"
        data.write_text("+1 1:1 9007199254740991:2\n-1 2:1\n")
        argv = [command, "--dataset", str(data), "--out", str(tmp_path / "out")]
        if not standardize:
            argv.append("--no-standardize")
        assert cli_main(argv) == 1
        assert f"polyprec: error: {data}: n_features=9007199254740991" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("reference_iters", -3), ("reference_iters", 0), ("tau", -1), ("seed", -1), ("rows", 4)],
    )
    def test_bad_budget_fails_before_any_run(self, tmp_path, capsys, key, value):
        good = tmp_path / "good.cfg"
        good.write_text(
            "method = krylov\nsynthetic = 10,3,1,8\nloss = huber:0.1\nmax_iters = 20\n"
        )
        bad = tmp_path / "bad.cfg"
        bad.write_text(good.read_text() + f"{key} = {value}\n")
        out = tmp_path / "runs"
        assert cli_main(["bench", str(good), str(bad), "--out", str(out)]) == 1
        assert f"{bad}:5: {key!r}: {key} must be at least" in capsys.readouterr().err
        assert not out.exists()
        config = ExperimentConfig(method="krylov", synthetic=(10.0, 3.0, 1.0, 8), **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be at least"):
            config.validate()

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["spectrum", "--synthetic", "12,2,1,6", "--out", "{out}"], "eigenvalues.csv"),
            (["verify", "--out", "{out}/report.json"], "report.json"),
            (["plotdata", "{runs}", "--out", "{out}/merged.csv"], "merged.csv"),
        ],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, argv, target):
        from polyprec.diagnostics import CheckReport

        class DiskFull(Exception):
            pass

        def torn_writer(handle, *args, **kwargs):
            handle.write("index,")
            raise DiskFull

        def torn_dump(obj, handle, **kwargs):
            handle.write("[")
            raise DiskFull

        monkeypatch.setattr(csv, "writer", torn_writer)
        monkeypatch.setattr(json, "dump", torn_dump)
        monkeypatch.setattr(
            "polyprec.cli.run_verification_suite",
            lambda seed=0: [CheckReport("stub", {}, True, 0.0)],
        )
        out, runs = tmp_path / "out", tmp_path / "runs"
        out.mkdir()
        runs.mkdir()
        with pytest.raises(DiskFull):
            cli_main([arg.format(out=out, runs=runs) for arg in argv])
        assert not (out / target).exists()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "bench", "spectrum"])
    @pytest.mark.parametrize("below", [False, True])
    def test_unwritable_out_is_exit_one(self, tmp_path, capsys, command, below):
        # A regular file where the output directory should be: mkdir raises
        # FileExistsError on the file itself and NotADirectoryError below it.
        blocker = tmp_path / "afile"
        blocker.write_text("keep\n")
        out = blocker / "x" if below else blocker
        problem = ["--synthetic", "12,2,1,6", "--loss", "huber:0.1"]
        if command == "bench":
            cfg = tmp_path / "one.cfg"
            cfg.write_text("method = gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 5\n")
            argv = ["bench", str(cfg), "--out", str(out)]
        else:
            argv = [command, *problem, "--out", str(out)]
            if command == "solve":
                argv += ["--max-iters", "5"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("polyprec: error: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("override", [False, True])
    def test_bench_same_output_twice_writes_nothing(self, tmp_path, capsys, override):
        # With --out the two files' own directories differ, and the override
        # makes them clash; without it they name the same directory.
        out = tmp_path / "dup"
        paths = []
        for label in ("a", "b"):
            cfg = tmp_path / f"{label}.cfg"
            where = tmp_path / label if override else out
            cfg.write_text(
                f"name = same\nmethod = gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\n"
                f"max_iters = 5\nout_dir = {where}\n"
            )
            paths.append(str(cfg))
        argv = ["bench", *paths] + (["--out", str(out)] if override else [])
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert f"{paths[0]} and {paths[1]} both write same.csv" in err
        assert not out.exists()
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_dataset_with_rows_is_exit_one(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("+1 1:1.0\n-1 2:1.0\n+1 1:1.0 2:1.0\n")
        out = tmp_path / "out"
        for command in ("solve", "spectrum"):
            argv = [command, "--dataset", str(data), "--rows", "5", "--out", str(out)]
            assert cli_main(argv) == 1
            assert "rows sets the size of a synthetic design" in capsys.readouterr().err
            assert not out.exists()

    def test_dataset_solve_imports_no_numpy_random(self, tmp_path, rng):
        # Importing numpy.random costs memory and start-up time that a dataset
        # run, which draws nothing, does not need.
        rows = (rng.random((40, 6)) < 0.4).astype(float)
        data = tmp_path / "d.txt"
        write_libsvm(data, rows, np.where(rng.random(40) > 0.5, 1.0, -1.0))
        script = (
            "import sys\n"
            "from polyprec.cli import main\n"
            "print('numpy.random' in sys.modules)\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        argv = [
            "solve", "--dataset", str(data), "--method", "adaptive-gm", "--precond", "sympoly:2",
            "--max-iters", "10", "--out", str(tmp_path / "runs"),
        ]
        done = _run_fresh(script, argv)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "False")

    def test_synthetic_runs_ignore_blas_thread_count(self, tmp_path, monkeypatch):
        # A synthetic problem keeps its planted decomposition, so no eigh or
        # other thread-split reduction decides a step.
        problem = "synthetic = 1000,300,1,100\nloss = huber:0.1\nseed = 204\nmax_iters = 20\n"
        configs = []
        for name, method, precond in (
            ("cheb", "fgm", "chebyshev:4"), ("sym", "adaptive-fgm", "sympoly:2")
        ):
            path = tmp_path / f"{name}.cfg"
            path.write_text(f"name = {name}\nmethod = {method}\nprecond = {precond}\n{problem}")
            configs.append(str(path))
        script = "import sys\nfrom polyprec.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        for threads in ("1", "2"):
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                monkeypatch.setenv(var, threads)
            done = _run_fresh(script, ["bench", *configs, "--out", str(tmp_path / threads)])
            assert done.returncode == 0, done.stderr
        for name in ("cheb", "sym"):
            one = read_run_csv(tmp_path / "1" / f"{name}.csv")
            two = read_run_csv(tmp_path / "2" / f"{name}.csv")
            del one["time_ms"], two["time_ms"]
            assert one.keys() == two.keys()
            for column in one:
                assert np.array_equal(one[column], two[column]), (name, column)

    def test_summary_records_blas_threads(self, tmp_path, monkeypatch):
        # The thread count decides how BLAS rounds, so a summary names it.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        script = "import sys\nfrom polyprec.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        argv = [
            "solve", "--name", "env", "--synthetic", "10,3,1,6", "--loss", "huber:0.1",
            "--max-iters", "5", "--out", str(tmp_path),
        ]
        done = _run_fresh(script, argv)
        assert done.returncode == 0, done.stderr
        summary = json.loads((tmp_path / "env.json").read_text())
        environment = summary["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment.pop("blas") == f"{blas['name']} {blas['version']}"
        assert environment.pop("cores") == len(os.sched_getaffinity(0))
        assert environment == {
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": None,
        }
        header = (tmp_path / "env.csv").read_text().splitlines()[0]
        assert header == "iter,fval,gap,matvecs,grad_evals,ls_trials,M_k,time_ms"

    def test_missing_problem_is_exit_one(self):
        assert cli_main(["solve", "--method", "gm"]) == 1
        assert cli_main(["spectrum"]) == 1

    def test_spectrum_outputs(self, tmp_path):
        code = cli_main(
            [
                "spectrum", "--synthetic", "40,4,1,10", "--seed", "3",
                "--tau-max", "4", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        eig = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert eig[0] == "index,eigenvalue"
        assert len(eig) == 11
        # The planted spectrum, bit for bit: no eigh rounds it.
        planted = planted_spectrum((40, 4, 1, 10))
        got = read_run_csv(tmp_path / "eigenvalues.csv")["eigenvalue"]
        assert got.tobytes() == planted.tobytes()
        xi = (tmp_path / "xi_table.csv").read_text().splitlines()
        assert xi[0] == "tau,xi,cond"
        assert len(xi) == 6

    def test_spectrum_xi_table_pinned(self, tmp_path):
        """The shrink table of the gapped benchmark problem, bit for bit: the
        symmetric sums behind every xi must round as the prefix recurrence does.

        Digest taken with numpy 2.4.6 on scipy-openblas 0.3.31.
        """
        argv = [
            "spectrum", "--synthetic", "1000,300,1,100", "--loss", "huber:0.1",
            "--seed", "204", "--tau-max", "99", "--out", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        table = (tmp_path / "xi_table.csv").read_bytes()
        assert table.splitlines()[:3] == [
            b"tau,xi,cond", b"0,1.0,1000.0", b"1,0.28489620615605243,284.8962061560524"
        ]
        assert len(table.splitlines()) == 101
        assert hashlib.sha256(table).hexdigest() == (
            "0b481d84ef119f7a065efcf1eae5e0f1a124bec1a94e4b6cde51fc0c48b61a45"
        )

    @pytest.mark.parametrize("standardize", [True, False])
    def test_spectrum_dataset(self, tmp_path, rng, standardize):
        rows = rng.standard_normal((12, 5)) * [1.0, 2.0, 5.0, 0.5, 3.0]
        rows[rows < -1.0] = 0.0
        data = tmp_path / "d.txt"
        write_libsvm(data, rows, np.where(rng.random(12) > 0.5, 1.0, -1.0))
        argv = ["spectrum", "--dataset", str(data), "--out", str(tmp_path)]
        if not standardize:
            argv.append("--no-standardize")
        assert cli_main(argv) == 0
        if standardize:
            rows = rows / np.linalg.norm(rows, axis=0)
        expected = np.linalg.eigvalsh(rows.T @ rows)[::-1]
        got = read_run_csv(tmp_path / "eigenvalues.csv")
        assert np.array_equal(got["index"], np.arange(1, 6))
        assert np.all(np.diff(got["eigenvalue"]) <= 0.0)
        assert np.allclose(got["eigenvalue"], expected, rtol=1e-12, atol=1e-12)

    def test_spectrum_negative_tau_max_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "spec"
        argv = ["spectrum", "--synthetic", "40,4,1,10", "--tau-max", "-1", "--out", str(out)]
        assert cli_main(argv) == 1
        assert "polyprec: error: tau_max must lie in 0..n-1=9, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_dataset_rejects_huber(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("+1 1:1.0\n-1 2:1.0\n")
        argv = ["spectrum", "--dataset", str(data), "--loss", "huber:0.1", "--out", str(tmp_path)]
        assert cli_main(argv) == 1

    def test_verify_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(["verify", "--seed", "7", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert all("check" in entry and "pass" in entry for entry in payload)
        krylov = [entry for entry in payload if entry["check"] == "krylov-rate"]
        assert [entry["params"]["tau"] for entry in krylov] == [0, 1, 2]
        assert all(entry["advisory"] and entry["pass"] for entry in krylov)

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "95e6234fe01f2adff1ce7a22eb39607bd56580924a7fd6902361cacc2dad24ef"),
            (7, "a11ddff150549337b6244256beae410053e60db462cfefbdee9162c16ee44c07"),
        ],
    )
    def test_verify_report_pinned(self, tmp_path, seed, digest):
        """The whole report, bit for bit: every slack of the identity batches
        and every envelope run's gaps feed it, at one and two BLAS threads.

        Digests taken with numpy 2.4.6 on scipy-openblas 0.3.31.
        """
        out = tmp_path / "report.json"
        assert cli_main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_verify_negative_seed_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_main(["verify", "--seed", "-1", "--out", str(out)]) == 1
        assert "polyprec: error: seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_hard_fail_is_exit_two(self, monkeypatch):
        from polyprec.diagnostics import CheckReport

        def broken_suite(seed=0):
            return [
                CheckReport("stub-pass", {}, True, 0.0),
                CheckReport("stub-hard-fail", {}, False, 1.0),
                CheckReport("stub-advisory", {}, False, 1.0, advisory=True),
            ]

        monkeypatch.setattr("polyprec.cli.run_verification_suite", broken_suite)
        assert cli_main(["verify"]) == 2

    def test_verify_advisory_only_still_exit_zero(self, monkeypatch):
        from polyprec.diagnostics import CheckReport

        monkeypatch.setattr(
            "polyprec.cli.run_verification_suite",
            lambda seed=0: [CheckReport("stub-advisory", {}, False, 1.0, advisory=True)],
        )
        assert cli_main(["verify"]) == 0

    def test_bench_and_plotdata(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "name = one\nmethod = gm\nprecond = identity\n"
            "synthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 15\nseed = 1\n"
        )
        out = tmp_path / "runs"
        assert cli_main(["bench", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["plotdata", str(out), "--out", str(tmp_path / "m.csv")]) == 0
        assert (tmp_path / "m.csv").exists()

    def test_plotdata_missing_directory_is_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        out = tmp_path / "m.csv"
        assert cli_main(["plotdata", str(missing), "--out", str(out)]) == 1
        assert f"polyprec: error: run directory {missing} is not a directory" in (
            capsys.readouterr().err
        )
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "report",
        [{"config": "x"}, {"config": None, "iterations": 3}, {"iterations": 3}, "text"],
        ids=["config-string", "config-null", "no-config", "string"],
    )
    def test_plotdata_skips_json_that_is_not_a_run_summary(self, tmp_path, capsys, report):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "name = one\nmethod = gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 4\n"
        )
        runs = tmp_path / "runs"
        assert cli_main(["bench", str(cfg), "--out", str(runs)]) == 0
        # Sorted before the run's summary, beside a CSV of its own stem.
        (runs / "a.json").write_text(json.dumps(report))
        (runs / "a.csv").write_text((runs / "one.csv").read_text())
        out = tmp_path / "m.csv"
        assert cli_main(["plotdata", str(runs), "--out", str(out)]) == 0
        assert "merged 1 runs" in capsys.readouterr().out
        assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {"one"}

    @pytest.mark.parametrize("name", ["../other", "..", "", "sub/other", 7, None])
    def test_plotdata_skips_a_name_outside_the_directory(self, tmp_path, capsys, name):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "x.json").write_text(json.dumps({"config": {"name": name, "method": "gm"}}))
        # A run CSV where the name points, so only the name rule skips it.
        target = runs / f"{name}.csv"
        target.parent.mkdir(exist_ok=True)
        target.write_text(",".join(CSV_HEADER) + "\n0,1.0,0.5,0,0,0,1.0,0.1\n")
        out = tmp_path / "m.csv"
        assert cli_main(["plotdata", str(runs), "--out", str(out)]) == 0
        assert "merged 0 runs" in capsys.readouterr().out
        assert out.read_text().splitlines() == [",".join(["run", "method", "precond", *CSV_HEADER])]

    def test_plotdata_undecodable_csv_reports_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "name = one\nmethod = gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 4\n"
        )
        runs = tmp_path / "runs"
        assert cli_main(["bench", str(cfg), "--out", str(runs)]) == 0
        (runs / "two.json").write_text(json.dumps({"config": {"name": "two", "method": "gm"}}))
        two = runs / "two.csv"
        two.write_bytes(",".join(CSV_HEADER).encode() + b"\r\n0,1.0,0.5,0,0,0,\xff,0.1\r\n")
        out = tmp_path / "m.csv"
        capsys.readouterr()
        assert cli_main(["plotdata", str(runs), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"polyprec: error: {two}:2: not UTF-8 (invalid start byte)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("text", ["iter,fval\n0,1.0\n", "", "\n0,1.0\n"])
    def test_plotdata_skips_a_csv_with_another_header(self, tmp_path, capsys, text):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "name = one\nmethod = gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 4\n"
        )
        runs = tmp_path / "runs"
        assert cli_main(["bench", str(cfg), "--out", str(runs)]) == 0
        (runs / "a.json").write_text(json.dumps({"config": {"name": "a", "method": "gm"}}))
        (runs / "a.csv").write_text(text)
        out = tmp_path / "m.csv"
        assert cli_main(["plotdata", str(runs), "--out", str(out)]) == 0
        assert "merged 1 runs" in capsys.readouterr().out
        assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {"one"}

    def test_plotdata_skips_a_verify_report(self, tmp_path, capsys, monkeypatch):
        from polyprec.diagnostics import CheckReport

        monkeypatch.setattr(
            "polyprec.cli.run_verification_suite",
            lambda seed=0: [CheckReport("stub", {}, True, 0.0)],
        )
        runs = tmp_path / "runs"
        assert cli_main(["verify", "--out", str(runs / "report.json")]) == 0
        out = tmp_path / "m.csv"
        assert cli_main(["plotdata", str(runs), "--out", str(out)]) == 0
        assert "merged 0 runs" in capsys.readouterr().out
        [header] = out.read_text().splitlines()
        assert header.startswith("run,method,precond,iter")

    @pytest.mark.parametrize(
        "text, after",
        [("", ": "), ("not json\n", ": "), ('{"config": {', ": "), ("\udcff", ":1: not UTF-8 (")],
        ids=["empty", "text", "truncated", "not-utf8"],
    )
    def test_plotdata_unreadable_json_is_exit_one(self, tmp_path, capsys, text, after):
        runs = tmp_path / "runs"
        runs.mkdir()
        junk = runs / "junk.json"
        junk.write_bytes(text.encode("utf-8", "surrogateescape"))
        out = tmp_path / "m.csv"
        assert cli_main(["plotdata", str(runs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"polyprec: error: {junk}{after}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--dataset", "{tmp}/bad.txt"], 1, "bad.txt:2: bad label 'bad'"),
            # Traces estimated from one probe give an indefinite sympoly:3 on
            # this gapped spectrum (no build check covers the stochastic form),
            # so the adaptive search hits its doubling cap.
            (
                [
                    "--synthetic", "1000,300,1,100", "--loss", "huber:0.1", "--seed", "204",
                    "--method", "adaptive-gm", "--precond", "sympoly:3:stochastic:1:2",
                    "--max-iters", "200",
                ],
                3,
                "adaptive search exceeded the doubling cap",
            ),
        ],
        ids=["bad-dataset", "doubling-cap"],
    )
    def test_failed_solve_leaves_no_out_directory(self, tmp_path, capsys, argv, code, message):
        (tmp_path / "bad.txt").write_text("+1 1:1\nbad\n")
        out = tmp_path / "o"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert cli_main(["solve", *argv, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "precond, message",
        [
            ("sympoly", "descriptor 'sympoly' is missing a degree"),
            ("cutting", "descriptor 'cutting' is missing a degree"),
            ("chebyshev", "descriptor 'chebyshev' is missing a degree"),
            ("sympoly:two", "bad integer in descriptor 'sympoly:two'"),
            ("sympoly:2:stochastic:x", "bad integer in descriptor 'sympoly:2:stochastic:x'"),
        ],
    )
    def test_malformed_descriptor_is_exit_one(self, tmp_path, capsys, precond, message):
        out = tmp_path / "out"
        argv = ["solve", "--synthetic", "15,3,1,8", "--loss", "huber:0.1", "--precond", precond]
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert f"polyprec: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_line_without_equals_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("method = gm\nmax_iters 5\n")
        out = tmp_path / "out"
        assert cli_main(["bench", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"polyprec: error: {path}:2: expected key=value, got 'max_iters 5'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "precond, warned",
        [
            # Traces from one probe (the seed-1 draw) give a sympoly:3 that is
            # indefinite along the gradient at the start: the search doubles M
            # until the step is too short to change f, and accepts it.
            (
                "sympoly:3:stochastic:1:1",
                ["config 'run': adaptive-gm: iteration 1 accepted a non-descent step"],
            ),
            ("sympoly:2", []),
        ],
        ids=["indefinite", "exact"],
    )
    def test_non_descent_step_warns_once(self, tmp_path, caplog, precond, warned):
        argv = ["solve", *GAPPED_FLAGS, "--method", "adaptive-gm", "--precond", precond]
        argv += ["--max-iters", "200", "--out", str(tmp_path)]
        with caplog.at_level(logging.WARNING, logger="polyprec"):
            assert cli_main(argv) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "polyprec"]
        assert [m[: len(w)] for m, w in zip(messages, warned)] == warned
        assert len(messages) == len(warned)

    def test_precond_help_states_the_parser_defaults(self, monkeypatch):
        import polyprec.preconditioners as preconditioners

        def precond_help():
            [commands] = [
                a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
            ]
            return next(a.help for a in commands.choices["solve"]._actions if a.dest == "precond")

        _, (_, samples, seed) = parse_descriptor("sympoly:0:stochastic")
        assert f"S={samples} probe vectors and SEED={seed}" in precond_help()
        # The help follows the parser's table, not a copy of it.
        fields = (1, (17, 5), True)
        monkeypatch.setitem(preconditioners._DESCRIPTOR_FIELDS, "sympoly:stochastic", fields)
        assert "S=17 probe vectors and SEED=5" in precond_help()

    def test_bench_validates_every_config_first(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text(
            "method = gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 5\n"
        )
        bogus = tmp_path / "bogus.cfg"
        bogus.write_text("method = gm\nmax_iters = ten\n")
        out = tmp_path / "runs"
        assert cli_main(["bench", str(good), str(bogus), "--out", str(out)]) == 1
        assert not (out / "good.csv").exists()

    @pytest.mark.parametrize("precond", ["cutting:9", "sympoly:6", "sympoly:8:stochastic:4"])
    def test_bench_degree_above_dim_writes_nothing(self, tmp_path, capsys, precond):
        problem = "method = adaptive-gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 5\n"
        good = tmp_path / "a.cfg"
        good.write_text(problem)
        bad = tmp_path / "b.cfg"
        bad.write_text(problem + f"precond = {precond}\n")
        out = tmp_path / "runs"
        assert cli_main(["bench", str(good), str(bad), "--out", str(out)]) == 1
        assert f"{bad}:5: 'precond': degree" in capsys.readouterr().err
        assert not out.exists()
        argv = ["solve", "--synthetic", "12,2,1,6", "--precond", precond, "--out", str(out)]
        assert cli_main(argv) == 1
        assert not out.exists()

    def test_bench_bad_descriptor_range_writes_nothing(self, tmp_path, capsys):
        problem = "method = adaptive-gm\nsynthetic = 12,2,1,6\nloss = huber:0.1\nmax_iters = 5\n"
        good = tmp_path / "a.cfg"
        good.write_text(problem)
        bad = tmp_path / "b.cfg"
        bad.write_text(problem + "precond = sympoly:3:stochastic:0\n")
        out = tmp_path / "runs"
        assert cli_main(["bench", str(good), str(bad), "--out", str(out)]) == 1
        assert f"{bad}:5:" in capsys.readouterr().err
        assert not out.exists()


GAPPED_FLAGS = ["--synthetic", "1000,300,1,100", "--loss", "huber:0.1", "--seed", "204"]


class TestBuildGuard:
    """An exact sympoly or cutting build that misses its guarantee exits 1 before
    the reference; the check is the one the verify suite judges."""

    @pytest.mark.parametrize("method", ["gm", "adaptive-gm"])
    def test_gapped_degrees(self, tmp_path, capsys, monkeypatch, method):
        import polyprec.experiments as experiments

        obj = build_problem(ExperimentConfig(**GAPPED))
        for precond in [f"sympoly:{tau}" for tau in range(9)] + [
            f"cutting:{tau}" for tau in range(1, 5)
        ]:
            experiments._build(obj, method, precond)
        references = []
        monkeypatch.setattr(experiments, "reference_optimum", lambda *a: references.append(a))
        out = tmp_path / "out"
        for precond in (
            "sympoly:10", "sympoly:12", "sympoly:15", "sympoly:20",
            "cutting:5", "cutting:8", "cutting:10",
        ):
            argv = ["solve", *GAPPED_FLAGS, "--method", method, "--precond", precond,
                    "--max-iters", "5", "--out", str(out)]
            assert cli_main(argv) == 1, precond
            err = capsys.readouterr().err
            pattern = (
                rf"polyprec: error: '{precond}' misses its spectral guarantee on this "
                r"operator by \d\.\d{3}e[+-]\d+ \(tolerance 1e-06\)"
            )
            assert re.match(pattern, err), err
        assert references == []
        assert not out.exists()

    @staticmethod
    def _rank4_solve(tmp_path):
        """``solve`` argv on a 5-feature dataset whose Gram has rank 4: feature 3
        is never used."""
        rng = np.random.default_rng(8)
        rows = np.zeros((60, 5))
        for row in rows:
            row[rng.choice([0, 1, 3, 4], size=2, replace=False)] = rng.uniform(0.5, 2.0, 2)
        path = tmp_path / "rank4.txt"
        write_libsvm(path, rows, np.where(rng.random(60) < 0.5, 1, -1))
        return ["solve", "--dataset", str(path), "--max-iters", "5", "--out", str(tmp_path)]

    def test_sympoly_above_the_rank_fails(self, tmp_path, capsys):
        argv = self._rank4_solve(tmp_path)
        assert cli_main([*argv, "--precond", "sympoly:3"]) == 0
        assert cli_main([*argv, "--precond", "sympoly:4"]) == 1
        err = capsys.readouterr().err
        assert "'sympoly:4' is singular on the operator's range: degree 4 exceeds rank-1=3" in err

    def test_degree_limits_on_a_singular_dataset(self, tmp_path, capsys, monkeypatch):
        # One wording per limit: n - 1 for every capped form, rank - 1 for the
        # exact ones, checked before any trace or cutting polynomial is formed.
        import polyprec.preconditioners as preconditioners

        formed = []
        for name in ("exact_traces", "cutting_preconditioner"):
            original = getattr(preconditioners, name)
            monkeypatch.setattr(
                preconditioners, name, lambda *a, f=original: formed.append(a) or f(*a)
            )
        argv = self._rank4_solve(tmp_path)
        expected = {
            "sympoly:4": "'sympoly:4' is singular on the operator's range: degree 4 exceeds rank-1=3",
            "cutting:4": "'cutting:4' is singular on the operator's range: degree 4 exceeds rank-1=3",
            "sympoly:5": "degree 5 of 'sympoly:5' exceeds n-1=4",
            "cutting:5": "degree 5 of 'cutting:5' exceeds n-1=4",
            "sympoly:5:stochastic": "degree 5 of 'sympoly:5:stochastic' exceeds n-1=4",
        }
        for precond, message in expected.items():
            assert cli_main([*argv, "--precond", precond]) == 1, precond
            assert capsys.readouterr().err == f"polyprec: error: {message}\n"
        assert formed == []
        # The stochastic form has no rank limit.
        assert cli_main([*argv, "--precond", "sympoly:4:stochastic"]) == 0

    @pytest.mark.parametrize(
        "check, precond", [("sandwich_slack", "sympoly:2"), ("cutting_excess", "cutting:2")]
    )
    def test_verify_and_builds_share_the_check(self, tmp_path, capsys, monkeypatch, check, precond):
        import polyprec.diagnostics as diagnostics
        import polyprec.preconditioners as preconditioners

        for module in (preconditioners, diagnostics):
            monkeypatch.setattr(module, check, lambda spectrum, prec, tau: 0.5)
        if check == "sandwich_slack":
            # The suite's envelope runs build sympoly too, so judge the member alone.
            assert diagnostics.verify_sandwich(DenseOperator(np.diag([3.0, 2.0, 1.0])), 1) == 0.5
        else:
            reports = {r.check: r for r in diagnostics.run_verification_suite(seed=0)}
            assert not reports["cutting-bound-batch"].passed
            assert reports["cutting-bound-batch"].max_slack == 0.5
        argv = ["solve", *GAPPED_FLAGS, "--precond", precond, "--out", str(tmp_path)]
        assert cli_main(argv) == 1
        assert f"'{precond}' misses its spectral guarantee on this operator by 5.000e-01" in (
            capsys.readouterr().err
        )


class TestBenchFailures:
    """A config that fails once the runs start leaves no file; the batch goes on."""

    PROBLEM = (
        "synthetic = 1000,300,1,100\nloss = huber:0.1\nseed = 204\nmax_iters = 5\n"
        "reference_iters = 20\n"
    )

    def _configs(self, tmp_path, runs):
        paths = []
        for name, method, precond in runs:
            path = tmp_path / f"{name}.cfg"
            path.write_text(self.PROBLEM + f"method = {method}\nprecond = {precond}\n")
            paths.append(str(path))
        return paths

    def test_bench_runs_on_past_a_failed_config(self, tmp_path, capsys):
        paths = self._configs(
            tmp_path,
            [("a", "gm", "sympoly:2"), ("b", "gm", "sympoly:20"), ("c", "adaptive-gm", "identity")],
        )
        out = tmp_path / "runs"
        assert cli_main(["bench", *paths, "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "a.json", "c.csv", "c.json"]
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["a", "c"]
        (line,) = captured.err.splitlines()
        assert line.startswith("polyprec: error: b: failed: 'sympoly:20' misses its spectral")

    @pytest.mark.parametrize("numerical_first, code", [(True, 3), (False, 1)])
    def test_bench_exits_with_the_first_failure_code(self, tmp_path, capsys, numerical_first, code):
        # A one-probe trace estimate makes sympoly:3 indefinite: doubling cap.
        failures = [("cap", "adaptive-gm", "sympoly:3:stochastic:1:2"), ("bad", "gm", "cutting:8")]
        if not numerical_first:
            failures.reverse()
        paths = self._configs(tmp_path, [*failures, ("good", "gm", "identity")])
        out = tmp_path / "runs"
        assert cli_main(["bench", *paths, "--out", str(out)]) == code
        assert sorted(p.name for p in out.iterdir()) == ["good.csv", "good.json"]
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[2].strip() for line in err] == [name for name, _, _ in failures]
        assert any("doubling cap" in line for line in err)
