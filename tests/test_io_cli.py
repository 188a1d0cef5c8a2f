import csv
import json
import logging
import re

import numpy as np
import pytest

from polyprec import (
    DatasetMatrix,
    ExperimentConfig,
    HuberLoss,
    LogisticLoss,
    RunResult,
    SyntheticSpectrumSpec,
    inverse_preconditioner,
    logistic_from_dataset,
    merge_plotdata,
    parse_config_file,
    parse_libsvm,
    reference_optimum,
    run_experiment,
    standardize_columns,
    synth_classification_dataset,
    synth_regression,
    write_libsvm,
)
from polyprec.cli import main as cli_main
from polyprec.experiments import build_problem, run_bench, write_run_csv
from polyprec.solvers import ROUNDING_FLOOR, IterationRecord


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


class TestParseLibsvm:
    def test_fixture_field_by_field(self, tmp_path):
        path = tmp_path / "fixture.txt"
        path.write_text("\n".join(FIXTURE_LINES) + "\n")
        ds = parse_libsvm(path)
        assert ds.n_rows == 20
        assert ds.n_features == 4
        assert list(ds.labels) == EXPECTED_LABELS
        expected = [(i, j, v) for i, row in enumerate(EXPECTED_ROWS) for j, v in row]
        assert list(zip(ds.row.tolist(), ds.col.tolist(), ds.val.tolist())) == expected

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


class TestStandardize:
    def test_unit_column_norms(self, tmp_path, rng):
        rows = rng.standard_normal((8, 3))
        path = tmp_path / "s.txt"
        write_libsvm(path, rows, np.ones(8))
        ds = standardize_columns(parse_libsvm(path))
        dense = ds.to_dense()
        assert np.allclose(np.linalg.norm(dense, axis=0), 1.0)
        assert ds.meta["standardized"]

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


class TestSynthetic:
    def test_spectrum_round_trip(self):
        for seed in range(10):
            spec = SyntheticSpectrumSpec(lam1=50.0, lam2=5.0, tail=1.0, n=12, seed=seed)
            obj, truth = synth_regression(spec, HuberLoss(0.1))
            got = np.sort(np.linalg.eigvalsh(obj.curvature.to_dense()))[::-1]
            assert np.allclose(got, truth["eigenvalues"], rtol=1e-9, atol=1e-9)

    def test_same_seed_same_problem(self):
        spec = SyntheticSpectrumSpec(lam1=9.0, lam2=2.0, tail=1.0, n=6, seed=4)
        a, ta = synth_regression(spec, HuberLoss(0.1))
        b, tb = synth_regression(spec, HuberLoss(0.1))
        assert np.array_equal(ta["design"], tb["design"])
        assert np.array_equal(ta["targets"], tb["targets"])

    def test_overdetermined_rows_exact_spectrum(self):
        spec = SyntheticSpectrumSpec(lam1=20.0, lam2=4.0, tail=1.0, n=8, seed=2, rows=40)
        obj, truth = synth_regression(spec, LogisticLoss())
        assert truth["design"].shape == (40, 8)
        got = np.sort(np.linalg.eigvalsh(obj.curvature.to_dense()))[::-1]
        assert np.allclose(got, truth["eigenvalues"], rtol=1e-9, atol=1e-9)

    def test_classification_dataset_not_separable_tag(self):
        spec = SyntheticSpectrumSpec(lam1=30.0, lam2=6.0, tail=1.0, n=10, seed=3, rows=50)
        ds = synth_classification_dataset(spec, flip=0.25)
        assert ds.n_rows == 50
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}
        assert ds.meta["flip"] == 0.25


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
        ],
    )
    def test_parse_config_bad_value_reports_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"method = gm\nsynthetic = 12,2,1,6\n# comment\n{line}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:4: .*{message}"):
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

        good = IterationRecord(0, 1.0, np.inf, 0, 0, 0, 0, 1.0, 0.0, 0.0)
        bad = IterationRecord(1, Unwritable(), 0.5, 1, 1, 1, 1, 1.0, 0.0, 0.1)
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
            "method", "precond", "iterations", "termination", "grad_map", "negative_gaps"
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

    @pytest.mark.parametrize("reference_iters", [None, 1])
    def test_summary_reports_oracle_counts_and_negative_gaps(
        self, tmp_path, monkeypatch, reference_iters
    ):
        import polyprec.experiments as experiments

        runs = []
        execute = experiments._execute

        def captured(config, obj, f_star):
            runs.append(execute(config, obj, f_star))
            return runs[-1]

        monkeypatch.setattr(experiments, "_execute", captured)
        config = ExperimentConfig(
            name="counts", synthetic=(40, 4, 1, 10), rows=50, max_iters=20,
            reference_iters=reference_iters, out_dir=str(tmp_path),
        )
        run_experiment(config)
        summary = json.loads((tmp_path / "counts.json").read_text())
        columns = read_run_csv(tmp_path / "counts.csv")
        records = runs[0].records
        assert summary["f_evals"] == records[-1].f_evals
        assert summary["grad_evals"] == records[-1].grad_evals == columns["grad_evals"][-1]
        negative = summary["reference"]["negative_gaps"]
        f_star = summary["f_star_reference"]
        assert negative == sum(r.f_value < f_star for r in records)
        assert negative == int(np.sum(columns["gap"] < 0))
        # A one-iteration reference sits above most of the run.
        assert (negative > 0) == (reference_iters == 1)

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

    def test_usage_error_is_exit_one(self):
        assert cli_main(["solve", "--method", "nope"]) == 1
        assert cli_main(["definitely-not-a-command"]) == 1
        assert cli_main(["spectrum", "--synthetic", "12,2,1,6.7"]) == 1

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
        xi = (tmp_path / "xi_table.csv").read_text().splitlines()
        assert xi[0] == "tau,xi,cond"
        assert len(xi) == 6

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
