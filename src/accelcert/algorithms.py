"""Iterative schemes as pure single-step transitions plus a trace runner.

Eight schemes share one state shape: vanilla gradient descent, Nesterov
momentum in its two-point and phase-space forms, the monotone variant with
a comparison step, their proximal counterparts for composite objectives,
and the constant-momentum pair for known strong convexity. Velocity is
always the scaled difference v_k = (x_k - x_{k-1}) / sqrt(s) with v_0 = 0.

Step functions return a fresh state and never mutate their inputs; the
runner is deterministic, so identical inputs give bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidProblemError, ParameterError
from .problems import CompositeObjective, Problem, SmoothOracle, Vector, _as_vector
from .proximal import require_step, soft_threshold

ALGORITHMS = (
    "gd",
    "nag",
    "nag-phase",
    "m-nag",
    "fista",
    "m-fista",
    "nag-sc",
    "m-nag-sc",
)
#: Algorithms whose momentum weight depends on the parameter r.
R_FAMILY_ALGOS = frozenset({"nag", "nag-phase", "m-nag", "fista", "m-fista"})
#: Algorithms with a comparison step (function values never increase).
MONOTONE_ALGOS = frozenset({"m-nag", "m-fista", "m-nag-sc"})
#: Algorithms driven by the proximal subgradient of a composite objective.
COMPOSITE_ALGOS = frozenset({"fista", "m-fista"})


@dataclass(frozen=True)
class AlgoState:
    """Iterate (k, x_k, y_k, v_k) plus the candidate z_k of monotone schemes."""

    k: int
    x: Vector
    y: Vector
    v: Vector
    z: Vector | None = None


@dataclass(frozen=True)
class RunParams:
    algo: str
    step: float
    iters: int
    momentum_r: float | None = None

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algo!r}")
        if self.iters < 1:
            raise ParameterError("iters must be a positive integer")
        if not 0.0 < self.step < math.inf:
            raise ParameterError(f"step must be positive and finite, got {self.step}")
        if self.momentum_r is not None and not math.isfinite(self.momentum_r):
            raise ParameterError(f"momentum parameter r must be finite, got {self.momentum_r}")
        if self.algo in R_FAMILY_ALGOS:
            if self.momentum_r is None:
                raise ParameterError(f"{self.algo} requires the momentum parameter r")
            if self.momentum_r < 2.0:
                raise ParameterError(f"momentum parameter r must be >= 2, got {self.momentum_r}")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    x: Vector
    y: Vector
    v: Vector
    f_or_phi_at_x: float
    first_order_at_y: Vector
    z: Vector | None = None


@dataclass(frozen=True)
class TraceColumns:
    """Read-only whole-trace arrays; row k holds record k.

    ``x``, ``y``, ``v`` and ``map`` (the first-order map at y_k) have shape
    (n+1, d), ``f`` (f or phi at x_k) has shape (n+1,).
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    map: np.ndarray
    f: np.ndarray


def _column(values) -> np.ndarray:
    col = np.array(values, dtype=float)
    col.setflags(write=False)
    return col


@dataclass(frozen=True)
class Trace:
    """Per-iteration records of one run, including the first-order map
    (gradient or proximal subgradient) evaluated at y_k during stepping."""

    params: RunParams
    problem_id: str
    records: tuple[TraceRecord, ...]

    @property
    def iters(self) -> int:
        return len(self.records) - 1

    @cached_property
    def columns(self) -> TraceColumns:
        """The records stacked into arrays, once per Trace."""
        recs = self.records
        return TraceColumns(
            x=_column([rec.x for rec in recs]),
            y=_column([rec.y for rec in recs]),
            v=_column([rec.v for rec in recs]),
            map=_column([rec.first_order_at_y for rec in recs]),
            f=_column([rec.f_or_phi_at_x for rec in recs]),
        )

    def f_values(self) -> np.ndarray:
        return self.columns.f.copy()


def initial_state(x0) -> AlgoState:
    x0 = np.asarray(x0, dtype=float).copy()
    return AlgoState(k=0, x=x0, y=x0, v=np.zeros_like(x0))


def _sc_coefficient(mu: float, s: float) -> float:
    mus = mu * s
    if not 0.0 < mus < 1.0:
        raise ParameterError(f"need 0 < mu*s < 1 for the constant momentum, got {mus}")
    root = math.sqrt(mus)
    return (1.0 - root) / (1.0 + root)


# Step cores. Each maps (state, problem, s, r) to (next state, first-order
# map evaluated at y_k, candidate z_k or None); the runner stores the map
# with record k so analysis reuses exactly what the step consumed. The
# monotone cores also take fx = f(x_k) and return f(x_{k+1}) last, so the
# comparison costs one evaluation, f(z_k).


def _gd_core(state, oracle, s, r):
    g = oracle.gradient(state.y)
    x1 = state.x - s * g
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(state.k + 1, x1, x1, v1), g, None


def _nag_core(state, oracle, s, r):
    k = state.k
    g = oracle.gradient(state.y)
    x1 = state.y - s * g
    y1 = x1 + (k / (k + r + 1.0)) * (x1 - state.x)
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(k + 1, x1, y1, v1), g, None


def _nag_phase_core(state, oracle, s, r):
    k = state.k
    g = oracle.gradient(state.y)
    rs = math.sqrt(s)
    v1 = state.v - ((r + 1.0) / (k + r)) * state.v - rs * g
    x1 = state.x + rs * v1
    y1 = x1 + (k / (k + 1.0 + r)) * rs * v1
    return AlgoState(k + 1, x1, y1, v1), g, None


def _accept(z, fz, x, fx):
    # The comparison step: z_k replaces x_k unless it increases f; ties accept.
    return (z, fz) if fz <= fx else (x, fx)


def _mnag_core(state, oracle, s, r, fx):
    k = state.k
    g = oracle.gradient(state.y)
    z = state.y - s * g
    x1, f1 = _accept(z, oracle.value(z), state.x, fx)
    y1 = (
        x1
        + (k / (k + r + 1.0)) * (x1 - state.x)
        + ((k + r) / (k + r + 1.0)) * (z - x1)
    )
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(k + 1, x1, y1, v1, z=z), g, z, f1


def _prox_step(problem, y, s):
    # One proximal-gradient step from y: returns (new point, map at y).
    # The zero-regularizer route is arithmetic-identical to the smooth step.
    g = problem.smooth.gradient(y)
    if problem.regularizer_kind == "zero":
        return y - s * g, g
    p = soft_threshold(y - s * g, problem.l1_weight * s)
    return p, (y - p) / s


def _fista_core(state, problem, s, r):
    k = state.k
    x1, m = _prox_step(problem, state.y, s)
    y1 = x1 + (k / (k + r + 1.0)) * (x1 - state.x)
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(k + 1, x1, y1, v1), m, None


def _mfista_core(state, problem, s, r, fx):
    k = state.k
    z, m = _prox_step(problem, state.y, s)
    x1, f1 = _accept(z, problem.phi_value(z), state.x, fx)
    y1 = (
        x1
        + (k / (k + r + 1.0)) * (x1 - state.x)
        + ((k + r) / (k + r + 1.0)) * (z - x1)
    )
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(k + 1, x1, y1, v1, z=z), m, z, f1


def _nag_sc_core(state, oracle, s, r):
    coeff = _sc_coefficient(oracle.mu, s)
    g = oracle.gradient(state.y)
    x1 = state.y - s * g
    y1 = x1 + coeff * (x1 - state.x)
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(state.k + 1, x1, y1, v1), g, None


def _mnag_sc_core(state, oracle, s, r, fx):
    coeff = _sc_coefficient(oracle.mu, s)
    g = oracle.gradient(state.y)
    z = state.y - s * g
    x1, f1 = _accept(z, oracle.value(z), state.x, fx)
    y1 = x1 + coeff * (x1 - state.x) + (z - x1)
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(state.k + 1, x1, y1, v1, z=z), g, z, f1


_CORES = {
    "gd": _gd_core,
    "nag": _nag_core,
    "nag-phase": _nag_phase_core,
    "m-nag": _mnag_core,
    "fista": _fista_core,
    "m-fista": _mfista_core,
    "nag-sc": _nag_sc_core,
    "m-nag-sc": _mnag_sc_core,
}


def step_gd(state: AlgoState, oracle: SmoothOracle, s: float) -> AlgoState:
    """x' = x - s*grad f(x), with y' = x'."""
    return _gd_core(state, oracle, s, None)[0]


def step_nag(state: AlgoState, oracle: SmoothOracle, s: float, r: float) -> AlgoState:
    """Gradient step from y_k, then momentum y' = x' + k/(k+r+1)*(x' - x)."""
    return _nag_core(state, oracle, s, r)[0]


def step_nag_phase(state: AlgoState, oracle: SmoothOracle, s: float, r: float) -> AlgoState:
    """Position-velocity form of step_nag; equal trajectories up to rounding."""
    return _nag_phase_core(state, oracle, s, r)[0]


def step_mnag(state: AlgoState, oracle: SmoothOracle, s: float, r: float) -> AlgoState:
    """Monotone variant: accept z_k = y_k - s*grad f(y_k) only if it does not
    increase f; ties accept z_k."""
    return _mnag_core(state, oracle, s, r, oracle.value(state.x))[0]


def step_fista(state: AlgoState, problem: CompositeObjective, s: float, r: float) -> AlgoState:
    """Proximal counterpart of step_nag driven by the proximal value of y_k."""
    return _fista_core(state, problem, s, r)[0]


def step_mfista(state: AlgoState, problem: CompositeObjective, s: float, r: float) -> AlgoState:
    """Monotone proximal variant; the comparison is on phi = f + g."""
    return _mfista_core(state, problem, s, r, problem.phi_value(state.x))[0]


def step_nag_sc(state: AlgoState, oracle: SmoothOracle, s: float) -> AlgoState:
    """Constant momentum (1 - sqrt(mu*s))/(1 + sqrt(mu*s)) for known mu."""
    return _nag_sc_core(state, oracle, s, None)[0]


def step_mnag_sc(state: AlgoState, oracle: SmoothOracle, s: float) -> AlgoState:
    """Monotone constant-momentum variant; note the full (z - x') correction."""
    return _mnag_sc_core(state, oracle, s, None, oracle.value(state.x))[0]


def _resolve_work_problem(problem: Problem, algo: str):
    # Composite algorithms need a composite problem; smooth ones accept a
    # composite wrapper only when its regularizer is identically zero.
    if algo in COMPOSITE_ALGOS:
        if not isinstance(problem, CompositeObjective):
            raise InvalidProblemError(f"{algo} requires a composite objective")
        return problem, problem.smooth
    if isinstance(problem, CompositeObjective):
        if problem.regularizer_kind != "zero":
            raise InvalidProblemError(
                f"{algo} handles smooth objectives only; use fista/m-fista"
            )
        return problem.smooth, problem.smooth
    return problem, problem


def _final_map(work, y, s):
    if isinstance(work, CompositeObjective):
        return _prox_step(work, y, s)[1]
    return work.gradient(y)


def run(problem: Problem, params: RunParams, x0, *, problem_id: str = "custom") -> Trace:
    """Run ``params.iters`` steps from x0 = y0 and record the full trajectory.

    The trace has iters + 1 records; record k stores the first-order map at
    y_k that the transition consumed (for the final record it is evaluated
    once more, which is exact since oracles are pure). f is evaluated once
    per step: at x_{k+1}, or for monotone schemes at z_k, whose comparison
    decides f(x_{k+1}).
    """
    work, oracle = _resolve_work_problem(problem, params.algo)
    require_step(params.step, oracle.lipschitz)
    x0 = _as_vector(x0, oracle.dim)
    if not np.all(np.isfinite(x0)):
        raise ParameterError("start point x0 must be finite")
    s = params.step
    r = params.momentum_r
    core = _CORES[params.algo]
    monotone = params.algo in MONOTONE_ALGOS
    value = work.phi_value if isinstance(work, CompositeObjective) else work.value

    state = initial_state(x0)
    # An overflow here is reported as the error below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        fx = value(state.x)
    if not math.isfinite(fx):
        raise ParameterError(f"f(x0) is not finite ({fx}); choose a smaller start point")
    records = []
    for k in range(params.iters):
        if monotone:
            new_state, m, z, f1 = core(state, work, s, r, fx)
        else:
            new_state, m, z = core(state, work, s, r)
            f1 = value(new_state.x)
        records.append(TraceRecord(k, state.x, state.y, state.v, fx, m, z))
        state, fx = new_state, f1
    records.append(
        TraceRecord(
            params.iters,
            state.x,
            state.y,
            state.v,
            fx,
            _final_map(work, state.y, s),
            None,
        )
    )
    return Trace(params=params, problem_id=problem_id, records=tuple(records))
