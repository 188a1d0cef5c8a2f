"""Command-line harness: single runs, batches, spectra, and the verifier suite.

Exit codes: 0 on success, 1 on usage errors, on files that cannot be read or
written and on a problem too large for memory, 2 when verification
hard-fails, 3 when a run fails numerically (non-finite objective, doubling
cap). A ``bench`` batch runs on past a config that fails, and exits with the
code its first failure would have had alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .diagnostics import run_verification_suite, xi_table
from .experiments import (
    METHODS,
    ExperimentConfig,
    build_problem,
    merge_plotdata,
    parse_synthetic,
    run_bench,
    run_experiment,
    write_csv,
    write_json,
)
from .operators import spectral_decomposition
from .preconditioners import parse_descriptor

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_problem_flags(parser):
    parser.add_argument("--dataset", help="sparse classification file")
    parser.add_argument(
        "--synthetic",
        type=parse_synthetic,
        metavar="L1,L2,TAIL,N",
        help="planted curvature spectrum lam1,lam2,tail,n",
    )
    parser.add_argument("--rows", type=int, help="row count for synthetic designs")
    parser.add_argument("--loss", help="'logistic' or 'huber:WIDTH'")
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--no-standardize",
        dest="standardize",
        action="store_false",
        help="skip unit-column scaling of dataset features",
    )


def _config_from_args(args) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)}
    config = ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})
    config.validate()
    return config


def _cmd_solve(args) -> int:
    summary = run_experiment(_config_from_args(args))
    print(json.dumps(summary, indent=2))
    return 0


def _exit_code(exc: Exception) -> int:
    """3 for a numerical failure of a run, 1 for any other error."""
    return 3 if isinstance(exc, RuntimeError) else 1


def _cmd_bench(args) -> int:
    code = 0
    for outcome in run_bench(args.configs, out_dir=args.out):
        name = outcome["config"]["name"]
        if "error" in outcome:
            print(f"polyprec: error: {name}: failed: {outcome['error']}", file=sys.stderr)
            code = code or _exit_code(outcome["error"])
            continue
        print(
            f"{name}: {outcome['iterations']} iters, "
            f"{outcome['total_matvecs']} matvecs, {outcome['termination']}"
        )
    return code


def _cmd_spectrum(args) -> int:
    op = build_problem(_config_from_args(args)).curvature
    dec = spectral_decomposition(op)
    # The table is made before any file is written, so a bad --tau-max writes none.
    spectrum = dec.range_eigenvalues
    table = xi_table(spectrum, min(args.tau_max, spectrum.size - 1))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    eig_path = out_dir / "eigenvalues.csv"
    write_csv(
        eig_path,
        ["index", "eigenvalue"],
        [[i, repr(float(value))] for i, value in enumerate(dec.eigenvalues, start=1)],
    )
    xi_path = out_dir / "xi_table.csv"
    write_csv(
        xi_path,
        ["tau", "xi", "cond"],
        [[tau, repr(xi), repr(cond)] for tau, xi, cond in table.rows],
    )
    print(f"wrote {eig_path} and {xi_path}")
    print(f"lam1={dec.lam_max:.6g} lam_n={dec.lam_min:.6g} cond={dec.lam_max / dec.lam_min:.6g}")
    return 0


def _cmd_verify(args) -> int:
    reports = run_verification_suite(seed=args.seed)
    hard_fail = False
    lines = []
    for report in reports:
        status = "pass" if report.passed else ("FLAG" if report.advisory else "FAIL")
        if not report.passed and not report.advisory:
            hard_fail = True
        lines.append(report.to_dict())
        print(f"[{status}] {report.check} (max slack {report.max_slack:.3e})")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_json(args.out, lines)
        print(f"wrote {args.out}")
    return 2 if hard_fail else 0


def _cmd_plotdata(args) -> int:
    merged = merge_plotdata(args.rundir, args.out)
    print(f"merged {merged} runs into {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polyprec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # solve and spectrum leave a flag that is not given out of the namespace, so
    # ExperimentConfig's default holds for it.
    solve = sub.add_parser(
        "solve", help="run one method on one problem", argument_default=argparse.SUPPRESS
    )
    solve.add_argument("--name")
    solve.add_argument("--method", choices=METHODS)
    _, (_, samples, seed) = parse_descriptor("sympoly:0:stochastic")
    solve.add_argument(
        "--precond",
        help="identity | sympoly:T | sympoly:T:stochastic[:S[:SEED]] | chebyshev:T | "
        f"cutting:T | inverse; stochastic traces use S={samples} probe vectors and "
        f"SEED={seed} unless given",
    )
    solve.add_argument("--tau", type=int, help="krylov subspace degree (krylov method only)")
    _add_problem_flags(solve)
    solve.add_argument("--max-iters", type=int)
    solve.add_argument("--tol", type=float, help="optimality-gap target")
    solve.add_argument("--out", dest="out_dir", help="output directory")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a batch of config files")
    bench.add_argument("configs", nargs="+", help="key=value config files")
    bench.add_argument("--out", help="override output directory")
    bench.set_defaults(func=_cmd_bench)

    spectrum = sub.add_parser(
        "spectrum",
        help="eigenvalues and shrink table of a problem",
        argument_default=argparse.SUPPRESS,
    )
    _add_problem_flags(spectrum)
    spectrum.add_argument("--tau-max", type=int, default=8)
    spectrum.add_argument("--out", default=".")
    spectrum.set_defaults(func=_cmd_spectrum)

    verify = sub.add_parser("verify", help="run the identity and envelope verifiers")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", help="write the JSON report here")
    verify.set_defaults(func=_cmd_verify)

    plotdata = sub.add_parser("plotdata", help="merge run CSVs into a long table")
    plotdata.add_argument("rundir")
    plotdata.add_argument("--out", default="plotdata.csv")
    plotdata.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError, RuntimeError) as exc:
        print(f"polyprec: error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
