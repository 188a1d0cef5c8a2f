"""One iteration loop and doubling search driving gm/fgm and the krylov step.

Each method supplies only its step to :func:`drive`, which owns the start
point, the stopping rules and the telemetry: per-iteration records of
objective value, gradient-map norm, cumulative matvec and oracle counts,
line-search trials, and the accumulation weights of the accelerated scheme.
The adaptive methods share one doubling search on the step constant, judged
by :func:`quadratic_growth_predicate`. Runs are deterministic; nothing here
draws randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .preconditioners import Preconditioner
from .problems import CompositeObjective, gradient_step_with_norm

__all__ = [
    "SolverConfig",
    "FGMState",
    "IterationRecord",
    "RunResult",
    "Step",
    "InitialGuess",
    "drive",
    "solve_coefficient_equation",
    "quadratic_growth_predicate",
    "initial_guess_M",
    "fgm_step",
    "run_gm",
    "run_fgm",
    "run_adaptive_gm",
    "run_adaptive_fgm",
]

GROWTH_FACTOR = 2.0
SHRINK_FACTOR = 2.0
MAX_DOUBLINGS = 60


@dataclass
class SolverConfig:
    """Knobs shared by all runs.

    ``step_constant`` is the fixed M of the non-adaptive methods;
    ``initial_guess`` seeds the adaptive search. Stopping: optimality gap
    against a known ``f_star``, gradient-map norm below ``tol``, or the
    iteration cap; the first satisfied rule wins.
    """

    max_iters: int = 1000
    step_constant: float | None = None
    initial_guess: float | None = None
    rho: float = 0.0
    tol: float = 0.0
    gap_target: float | None = None
    f_star: float | None = None
    keep_iterates: bool = False
    x0: np.ndarray | None = None

    def start_point(self, n: int) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(n)
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 shape {x0.shape} does not match dimension {n}")
        return x0.copy()


@dataclass(frozen=True)
class FGMState:
    """Accelerated-method state: main iterate, prox center, accumulated weight."""

    x: np.ndarray
    v: np.ndarray
    A: float


@dataclass
class IterationRecord:
    k: int
    f_value: float
    grad_map: float
    matvecs: int
    f_evals: int
    grad_evals: int
    ls_trials: int
    M_k: float
    A_k: float
    time_ms: float
    eff_degree: int | None = None


@dataclass
class RunResult:
    method: str
    records: list[IterationRecord]
    x: np.ndarray
    termination: str
    iterates_x: list[np.ndarray] | None = None
    iterates_v: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return self.records[-1].k

    def f_values(self) -> np.ndarray:
        return np.array([r.f_value for r in self.records])

    def total_matvecs(self) -> int:
        return self.records[-1].matvecs

    def total_ls_trials(self) -> int:
        return sum(r.ls_trials for r in self.records)


class Step(NamedTuple):
    """One accepted iteration as a method reports it to :func:`drive`."""

    state: np.ndarray | FGMState
    grad_map: float
    ls_trials: int = 0
    M_k: float = 0.0
    eff_degree: int | None = None


def drive(
    method: str,
    obj: CompositeObjective,
    config: SolverConfig,
    step,
    M_0: float = 0.0,
    accelerated: bool = False,
) -> RunResult:
    """The iteration loop of every method; ``step`` maps a state to a :class:`Step`.

    The state is the iterate, or for ``accelerated`` methods an
    :class:`FGMState` whose prox center starts at the start point too. The
    start is recorded as iteration 0 with constant ``M_0``; then the loop
    steps until the gap target, the gradient-map tolerance or the iteration
    cap stops it. Counters in the records are relative to the start of the
    run, and a non-finite objective raises.
    """
    op = obj.curvature
    mv0, f0, g0, t0 = op.matvecs, obj.f_evals, obj.grad_evals, time.perf_counter()
    records: list[IterationRecord] = []

    def record(k, f_value, grad_map, ls_trials, M_k, A_k, eff_degree=None):
        records.append(
            IterationRecord(
                k=k,
                f_value=f_value,
                grad_map=grad_map,
                matvecs=op.matvecs - mv0,
                f_evals=obj.f_evals - f0,
                grad_evals=obj.grad_evals - g0,
                ls_trials=ls_trials,
                M_k=M_k,
                A_k=A_k,
                time_ms=(time.perf_counter() - t0) * 1e3,
                eff_degree=eff_degree,
            )
        )

    x = config.start_point(obj.n)
    state = FGMState(x=x, v=x.copy(), A=0.0) if accelerated else x
    xs = [x.copy()] if config.keep_iterates else None
    vs = [x.copy()] if config.keep_iterates and accelerated else None
    f_value = obj.full_value(x)
    record(0, f_value, np.inf, 0, M_0, 0.0)
    gap_rule = config.gap_target is not None and config.f_star is not None
    termination = "max_iters"
    for k in range(config.max_iters):
        if gap_rule and f_value - config.f_star <= config.gap_target:
            termination = "gap_target"
            break
        out = step(state)
        state = out.state
        x = state.x if accelerated else state
        f_value = obj.full_value(x)
        if not np.isfinite(f_value):
            raise RuntimeError(
                f"{method}: objective became non-finite (step constant too small "
                "for a fixed-step run, or the problem is unbounded)"
            )
        if xs is not None:
            xs.append(x.copy())
        if vs is not None:
            vs.append(state.v.copy())
        A_k = state.A if accelerated else 0.0
        record(k + 1, f_value, out.grad_map, out.ls_trials, out.M_k, A_k, out.eff_degree)
        if config.tol > 0 and out.grad_map <= config.tol:
            termination = "grad_map_tol"
            break
    return RunResult(method, records, x, termination, iterates_x=xs, iterates_v=vs)


def solve_coefficient_equation(M: float, rho: float, A: float) -> float:
    """Positive root of the accumulation-weight equation of the fast method.

    Solves ``M a^2 / (A + a) = 1 + rho (A + a)`` for a > 0 via the expanded
    quadratic ``(M - rho) a^2 - (1 + 2 rho A) a - (A + rho A^2) = 0``. Both
    terms of the root formula are nonnegative, so there is no cancellation.
    """
    if not M > rho:
        raise ValueError(f"need M > rho, got M={M}, rho={rho}")
    if rho < 0 or A < 0:
        raise ValueError("rho and A must be nonnegative")
    b = 1.0 + 2.0 * rho * A
    c = A + rho * A * A
    lead = M - rho
    return float((b + np.sqrt(b * b + 4.0 * lead * c)) / (2.0 * lead))


def quadratic_growth_predicate(
    M: float,
    prec: Preconditioner,
    x: np.ndarray,
    y: np.ndarray,
    obj: CompositeObjective,
    g: np.ndarray | None = None,
    step_norm_sq: float | None = None,
    f_x: float | None = None,
) -> bool:
    """Whether the quadratic model at x with constant M dominates f at y.

    When y is the closed-form preconditioned step from x with this same M,
    the quadratic term equals ``<g, x - y> / 2`` and no metric inversion is
    needed; oracle-produced steps must pass their own ``step_norm_sq``.
    A caller that already holds the value at x passes it as ``f_x``.
    """
    if g is None:
        g = obj.gradient(x)
    if step_norm_sq is None:
        quad = 0.5 * float(g @ (x - y))
    else:
        quad = 0.5 * M * step_norm_sq
    if f_x is None:
        f_x = obj.value(x)
    return obj.value(y) <= f_x + float(g @ (y - x)) + quad


def _doubling_search(obj: CompositeObjective, prec: Preconditioner, guess: float):
    """The doubling search of the adaptive methods, as ``search(trial) -> Step``.

    Each search starts from half the constant the previous one accepted (the
    first from ``guess``) and doubles it until the quadratic-growth predicate
    accepts. ``trial(M)`` returns ``(state, x, y, g, step_sq, f_x)``: the
    candidate state and the predicate's inputs, with ``f_x`` None unless the
    value at the anchor x is already known.
    """

    def search(trial) -> Step:
        nonlocal guess
        M = guess
        for trials in range(1, MAX_DOUBLINGS + 2):
            state, x, y, g, step_sq, f_x = trial(M)
            if quadratic_growth_predicate(
                M, prec, x, y, obj, g=g, step_norm_sq=step_sq, f_x=f_x
            ):
                guess = M / SHRINK_FACTOR
                return Step(state, M * np.sqrt(max(step_sq, 0.0)), trials, M)
            M *= GROWTH_FACTOR
        raise RuntimeError(
            "adaptive search exceeded the doubling cap; the objective or "
            "preconditioner violates the curvature assumption"
        )

    return search


def _positive(value: float | None, message: str) -> float:
    if value is None or value <= 0:
        raise ValueError(message)
    return value


@dataclass(frozen=True)
class InitialGuess:
    """Result of the trial-step recipe for seeding the adaptive search."""

    value: float
    flagged: bool = False
    note: str = ""


def initial_guess_M(
    obj: CompositeObjective,
    prec: Preconditioner,
    x0: np.ndarray,
    M0_prime: float,
) -> InitialGuess:
    """Curvature estimate along one trial step; never exceeds the true constant.

    Degenerate cases are flagged: a stationary start returns the trial
    constant unchanged, and zero curvature along the step falls back to a
    small fraction of it.
    """
    if M0_prime <= 0:
        raise ValueError("trial step constant must be positive")
    x0 = np.asarray(x0, dtype=float)
    g0 = obj.gradient(x0)
    x1, step_norm_sq = gradient_step_with_norm(
        M0_prime, prec, obj.curvature, x0, g0, obj.psi
    )
    if step_norm_sq <= 1e-300:
        return InitialGuess(M0_prime, flagged=True, note="stationary start")
    bregman = obj.value(x1) - obj.value(x0) - float(g0 @ (x1 - x0))
    estimate = bregman / (0.5 * step_norm_sq)
    if not np.isfinite(estimate) or estimate <= 0:
        return InitialGuess(
            M0_prime * 2.0**-6, flagged=True, note="no curvature along trial step"
        )
    return InitialGuess(estimate)


def run_gm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig
) -> RunResult:
    """Fixed-step preconditioned gradient method."""
    M = _positive(config.step_constant, "fixed-step run requires a positive step_constant")
    op = obj.curvature

    def step(x):
        y, step_sq = gradient_step_with_norm(M, prec, op, x, obj.gradient(x), obj.psi)
        return Step(y, M * np.sqrt(max(step_sq, 0.0)), M_k=M)

    return drive("gm", obj, config, step, M)


def fgm_step(
    obj: CompositeObjective,
    prec: Preconditioner,
    M: float,
    rho: float,
    state: FGMState,
):
    """One step of the fast method for a given constant M.

    Returns ``(new_state, y, g_y, step_sq)`` where ``step_sq`` is the squared
    distance between the new iterate and the interpolation point y in the
    inverse-preconditioner metric; it scales the prox step norm by the
    interpolation weight, so it stays exact for composite steps and feeds the
    adaptive predicate.
    """
    op = obj.curvature
    a = solve_coefficient_equation(M, rho, state.A)
    A_new = state.A + a
    H = (1.0 + rho * A_new) / a
    theta = a / A_new
    omega = rho / H
    gamma = omega * (1.0 - theta) / (1.0 - omega * theta)
    v_hat = (1.0 - gamma) * state.v + gamma * state.x
    y = (1.0 - theta) * state.x + theta * v_hat
    g_y = obj.gradient(y)
    v_new, prox_sq = gradient_step_with_norm(H, prec, op, v_hat, g_y, obj.psi)
    x_new = (1.0 - theta) * state.x + theta * v_new
    step_sq = theta * theta * prox_sq  # x_new - y = theta * (v_new - v_hat)
    return FGMState(x=x_new, v=v_new, A=A_new), y, g_y, step_sq


def run_fgm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig
) -> RunResult:
    """Fixed-step preconditioned fast gradient method."""
    M = _positive(config.step_constant, "fixed-step run requires a positive step_constant")

    def step(state):
        state, _, _, step_sq = fgm_step(obj, prec, M, config.rho, state)
        return Step(state, M * np.sqrt(max(step_sq, 0.0)), M_k=M)

    return drive("fgm", obj, config, step, M, accelerated=True)


def run_adaptive_gm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig
) -> RunResult:
    """Gradient method with doubling search on the step constant.

    Each iteration doubles the working constant until the quadratic-growth
    predicate accepts, then halves the starting guess for the next iteration.
    With no composite part the preconditioned gradient is computed once per
    iteration, so rejected trials cost one objective evaluation each.
    """
    guess = _positive(config.initial_guess, "adaptive run requires a positive initial_guess")
    op = obj.curvature
    search = _doubling_search(obj, prec, guess)

    def step(x):
        f_x = obj.value(x)
        g = obj.gradient(x)
        pg = prec.apply(op, g) if obj.psi.is_zero else None

        def trial(M):
            if pg is None:
                y, step_sq = gradient_step_with_norm(M, prec, op, x, g, obj.psi)
            else:
                y, step_sq = x - pg / M, float(g @ pg) / (M * M)
            return y, x, y, g, step_sq, f_x

        return search(trial)

    return drive("adaptive-gm", obj, config, step, guess)


def run_adaptive_fgm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig
) -> RunResult:
    """Fast gradient method with doubling search on the step constant.

    A trial recomputes the entire step (the accumulation weight depends on
    the working constant), tests the predicate at the interpolation point,
    and only an accepted trial advances the state.
    """
    guess = _positive(config.initial_guess, "adaptive run requires a positive initial_guess")
    search = _doubling_search(obj, prec, guess)

    def step(state):
        def trial(M):
            candidate, y, g_y, step_sq = fgm_step(obj, prec, M, config.rho, state)
            return candidate, y, candidate.x, g_y, step_sq, None

        return search(trial)

    return drive("adaptive-fgm", obj, config, step, guess, accelerated=True)
