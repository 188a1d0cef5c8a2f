"""One iteration loop and doubling search driving gm/fgm and their adaptive forms.

Each method supplies only its step to :func:`drive`, which owns the start
point, the stopping rules and the telemetry: per-iteration records of
objective value, gradient-map norm, cumulative matvec and oracle counts,
line-search trials, and the accumulation weights of the accelerated scheme.
The adaptive methods share one doubling search on the step constant, which
judges each trial by :func:`quadratic_growth_predicate` and starts each search
after the first at the curvature the last accepted step measured. The krylov
method is gm with the vector-dependent preconditioner of :mod:`polyprec.krylov`.
Runs are deterministic; nothing here draws randomness.
"""

from __future__ import annotations

import logging
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .preconditioners import Preconditioner
from .problems import CompositeObjective, gradient_step_with_norm

__all__ = [
    "SolverConfig",
    "FGMState",
    "RunResult",
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

# A step whose model decrease grad_map**2 / (2 M) is within four rounding
# units of |f| cannot lower f in floating point.
ROUNDING_FLOOR = 8.0 * np.finfo(float).eps

logger = logging.getLogger("polyprec")

# The name of the configured run in progress, which leads the warning
# :func:`drive` logs; None for a runner called from the library.
_RUN_NAME: ContextVar[str | None] = ContextVar("polyprec_run_name", default=None)


@dataclass
class SolverConfig:
    """A run's stopping rules and start point; each runner takes its constants.

    Stopping: optimality gap against a known ``f_star``, gradient-map norm
    below ``tol``, or the iteration cap; the first satisfied rule wins. A
    run with ``tol > 0`` also stops as ``"rounding_floor"`` once
    ``grad_map**2 <= ROUNDING_FLOOR * M_k * |f|``: no further step can lower
    f in floating point.
    """

    max_iters: int = 1000
    tol: float = 0.0
    gap_target: float | None = None
    f_star: float | None = None
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
    data_passes: int
    ls_trials: int
    M_k: float
    A_k: float
    time_ms: float


@dataclass
class RunResult:
    method: str
    records: list[IterationRecord]
    x: np.ndarray
    termination: str

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
    """One accepted iteration as a method reports it to :func:`drive`: the new
    state, the squared step norm in the inverse-preconditioner metric, and M."""

    state: np.ndarray | FGMState
    step_sq: float
    M_k: float
    ls_trials: int = 0


def drive(
    method: str,
    obj: CompositeObjective,
    config: SolverConfig,
    step,
    M_0: float,
    accelerated: bool = False,
) -> RunResult:
    """The iteration loop of every method; ``step`` maps a state to a :class:`Step`.

    The state is the iterate, or for ``accelerated`` methods an
    :class:`FGMState` whose prox center starts at the start point too. The
    start is recorded as iteration 0 with the run's constant ``M_0`` (gm/fgm's
    M or the search's first guess), which must be positive; then the loop
    steps until the gap target, the gradient-map tolerance, the rounding
    floor or the iteration cap stops it. The gap target is checked at every
    record, the one at the cap included, so a run that meets it there ends as
    ``"gap_target"``. Each record's gradient-map norm is ``M_k`` times the
    step norm, read as 0 for a step whose squared norm is negative (the
    preconditioner is indefinite along the gradient), and the first such
    step of a run logs a warning on the ``polyprec`` logger, naming the
    method and, for a configured run, the config. Each record's
    four cost counts (see :meth:`CompositeObjective.costs`) are those spent
    since the start of the run, readouts included, so the last record's are
    the run's; a non-finite objective raises.
    """
    if not M_0 > 0:
        raise ValueError(f"run requires a positive step constant, got {M_0}")
    start, t0 = obj.costs(), time.perf_counter()
    records: list[IterationRecord] = []

    def record(k, f_value, grad_map, ls_trials, M_k, A_k):
        spent = obj.costs() - start  # the record's fields after grad_map, in order
        time_ms = (time.perf_counter() - t0) * 1e3
        records.append(IterationRecord(k, f_value, grad_map, *spent, ls_trials, M_k, A_k, time_ms))

    x = config.start_point(obj.n)
    state = FGMState(x=x, v=x.copy(), A=0.0) if accelerated else x
    f_value = obj.full_value(x)
    record(0, f_value, np.inf, 0, M_0, 0.0)
    gap_rule = config.gap_target is not None and config.f_star is not None
    termination = "max_iters"
    warned = False
    for k in range(config.max_iters + 1):
        if gap_rule and f_value - config.f_star <= config.gap_target:
            termination = "gap_target"
            break
        if k == config.max_iters:
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
        if out.step_sq < 0 and not warned:
            warned = True
            name = _RUN_NAME.get()
            logger.warning(
                "%s%s: iteration %d accepted a non-descent step, squared step norm "
                "%.3e < 0 (the preconditioner is indefinite along the gradient); its "
                "gradient map, and that of any later such step, reads 0",
                "" if name is None else f"config {name!r}: ", method, k + 1, out.step_sq,
            )
        grad_map = out.M_k * np.sqrt(max(out.step_sq, 0.0))
        A_k = state.A if accelerated else 0.0
        record(k + 1, f_value, grad_map, out.ls_trials, out.M_k, A_k)
        if config.tol > 0 and grad_map <= config.tol:
            termination = "grad_map_tol"
            break
        if config.tol > 0 and grad_map**2 <= ROUNDING_FLOOR * out.M_k * abs(f_value):
            termination = "rounding_floor"
            break
    return RunResult(method, records, x, termination)


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
    x: np.ndarray,
    y: np.ndarray,
    g: np.ndarray,
    step_norm_sq: float,
    f_x: float,
    f_y: float,
) -> bool:
    """Whether the quadratic model at x with constant M dominates f at y, the
    descent lemma's test ``f_y <= f_x + g (y - x) + M step_norm_sq / 2``.

    ``g`` is the gradient at x and ``step_norm_sq`` the squared norm of
    ``y - x`` in the inverse-preconditioner metric, as the step that produced
    y reports it; ``f_x`` and ``f_y`` are the values at x and y.
    """
    return f_y <= f_x + float(g @ (y - x)) + 0.5 * M * step_norm_sq


def _curvature_estimate(x, y, g, step_norm_sq: float, f_x: float, f_y: float) -> float:
    """The M at which the model of :func:`quadratic_growth_predicate` (same arguments)
    meets f at y, the Bregman term over step_norm_sq / 2; NaN unless step_norm_sq > 0."""
    return 2.0 * (f_y - f_x - float(g @ (y - x))) / step_norm_sq if step_norm_sq > 0 else np.nan


def _doubling_search(guess: float):
    """The doubling search of the adaptive methods, as ``search(trial) -> Step``.

    ``trial(M)`` returns ``(state, step_sq, (x, y, g, f_x, f_y))``, the state
    and what :func:`quadratic_growth_predicate` judges it by. Each search
    doubles M until a trial is accepted. The first starts from ``guess``, each
    later one from the :func:`_curvature_estimate` of the step last accepted at
    M, clipped to [M/2, M]; from M/2 if that estimate is not finite.
    """

    def search(trial) -> Step:
        nonlocal guess
        M = guess
        for trials in range(1, MAX_DOUBLINGS + 2):
            state, step_sq, (x, y, g, f_x, f_y) = trial(M)
            if quadratic_growth_predicate(M, x, y, g, step_sq, f_x, f_y):
                estimate = _curvature_estimate(x, y, g, step_sq, f_x, f_y)
                guess = M / SHRINK_FACTOR
                if np.isfinite(estimate):
                    guess = min(max(estimate, guess), M)
                return Step(state, step_sq, M, trials)
            M *= GROWTH_FACTOR
        raise RuntimeError(
            "adaptive search exceeded the doubling cap; the objective or "
            "preconditioner violates the curvature assumption"
        )

    return search


def initial_guess_M(
    obj: CompositeObjective,
    prec: Preconditioner,
    x0: np.ndarray,
    M0_prime: float,
) -> float:
    """Curvature estimate along one trial step; never exceeds the true constant.

    In the degenerate cases a stationary start returns the trial constant
    unchanged, and zero curvature along the step falls back to a small
    fraction of it.
    """
    if M0_prime <= 0:
        raise ValueError("trial step constant must be positive")
    x0 = np.asarray(x0, dtype=float)
    g0 = obj.gradient(x0)
    x1, step_norm_sq = gradient_step_with_norm(
        M0_prime, prec, obj.curvature, x0, g0, obj.psi
    )
    if step_norm_sq <= 1e-300:
        return M0_prime  # stationary start
    f0 = obj.value(x0)  # before f(x1): a caching oracle still holds x0 from the gradient call
    estimate = _curvature_estimate(x0, x1, g0, step_norm_sq, f0, obj.value(x1))
    if not np.isfinite(estimate) or estimate <= 0:
        return M0_prime * 2.0**-6  # no curvature along the step
    return estimate


def run_gm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig, M: float
) -> RunResult:
    """Fixed-step preconditioned gradient method with step constant M."""
    op = obj.curvature

    def step(x):
        y, step_sq = gradient_step_with_norm(M, prec, op, x, obj.gradient(x), obj.psi)
        return Step(y, step_sq, M)

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
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig, M: float, rho: float = 0.0
) -> RunResult:
    """Fixed-step preconditioned fast gradient method with constants M and rho."""

    def step(state):
        state, _, _, step_sq = fgm_step(obj, prec, M, rho, state)
        return Step(state, step_sq, M)

    return drive("fgm", obj, config, step, M, accelerated=True)


def run_adaptive_gm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig, M0: float
) -> RunResult:
    """Gradient method with doubling search on the step constant, from guess M0.

    Each iteration doubles the working constant until the quadratic-growth
    predicate accepts; the next iteration starts from the curvature it measured.
    With no composite part the preconditioned gradient is computed once per
    iteration, so rejected trials cost one objective evaluation each.
    """
    op = obj.curvature
    search = _doubling_search(M0)

    def step(x):
        f_x = obj.value(x)
        g = obj.gradient(x)
        pg = prec.apply(op, g) if obj.psi is None else None

        def trial(M):
            if pg is None:
                y, step_sq = gradient_step_with_norm(M, prec, op, x, g, obj.psi)
            else:
                y, step_sq = x - pg / M, float(g @ pg) / (M * M)
            return y, step_sq, (x, y, g, f_x, obj.value(y))

        return search(trial)

    return drive("adaptive-gm", obj, config, step, M0)


def run_adaptive_fgm(
    obj: CompositeObjective, prec: Preconditioner, config: SolverConfig, M0: float
) -> RunResult:
    """Fast gradient method with doubling search on the step constant, from guess M0.

    A trial recomputes the entire step (the accumulation weight depends on
    the working constant), tests the predicate at the interpolation point,
    and only an accepted trial advances the state.
    """
    search = _doubling_search(M0)

    def step(state):
        def trial(M):
            new, y, g_y, step_sq = fgm_step(obj, prec, M, 0.0, state)
            return new, step_sq, (y, new.x, g_y, obj.value(y), obj.value(new.x))

        return search(trial)

    return drive("adaptive-fgm", obj, config, step, M0, accelerated=True)
