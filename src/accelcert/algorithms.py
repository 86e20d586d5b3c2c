"""Iterative schemes as pure single-step transitions plus a trace runner.

Eight schemes share one state shape: vanilla gradient descent, Nesterov
momentum in its two-point and phase-space forms, the monotone variant with
a comparison step, their proximal counterparts for composite objectives,
and the constant-momentum pair for known strong convexity. Velocity is
always the scaled difference v_k = (x_k - x_{k-1}) / sqrt(s) with v_0 = 0.

Seven of them are one kernel, y' = x' + beta_k (x' - x) + gamma_k (z - x'),
where z and the first-order map at y_k come from one proximal step from y_k
(smooth problems get a zero regularizer, so the step is a gradient step)
and x' = z unless a monotone scheme's comparison keeps x_k:

    scheme            beta_k                            gamma_k
    gd                absent (y' = x')                  absent
    nag, fista        k/(k+r+1)                         absent
    m-nag, m-fista    k/(k+r+1)                         (k+r)/(k+r+1)
    nag-sc            (1-sqrt(mu s))/(1+sqrt(mu s))     absent
    m-nag-sc          (1-sqrt(mu s))/(1+sqrt(mu s))     1

nag-phase keeps its own position-velocity transition: it is the
independent form that the two-point nag trajectory is checked against.

``step(algo, state, problem, s, r)`` is the one public single step; it
checks its arguments as ``RunParams`` checks a run's and takes the same
transition ``run`` does. Steps return a fresh state and never mutate their
inputs; the runner is deterministic, so identical inputs give bit-identical
traces.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import InvalidProblemError, ParameterError
from .problems import CompositeObjective, Problem, Vector, _as_vector, _is_a, as_composite
from .proximal import prox_step, require_step

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
#: Algorithms that run on a positive l1 weight; every algorithm runs on g = 0.
COMPOSITE_ALGOS = frozenset({"fista", "m-fista"})


@dataclass(frozen=True)
class AlgoState:
    """Iterate (k, x_k, y_k, v_k) plus the candidate z_k of monotone schemes."""

    k: int
    x: Vector
    y: Vector
    v: Vector
    z: Vector | None = None


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class RunParams:
    algo: str
    step: float
    iters: int
    momentum_r: float | None = None

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algo!r}; choose from {', '.join(ALGORITHMS)}"
            )
        if not _is_a(self.iters, numbers.Integral):
            raise ParameterError(f"iters must be an integer, got {self.iters!r}")
        if not _is_a(self.step, numbers.Real):
            raise ParameterError(f"step must be a real number, got {self.step!r}")
        if self.momentum_r is not None and not _is_a(self.momentum_r, numbers.Real):
            raise ParameterError(f"momentum_r must be a real number, got {self.momentum_r!r}")
        if self.iters < 1:
            raise ParameterError("iters must be a positive integer")
        if not (self.step > 0.0 and _is_finite(self.step)):
            raise ParameterError(f"step must be positive and finite, got {self.step}")
        if self.momentum_r is not None and not _is_finite(self.momentum_r):
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
class Trace:
    """One run as whole-trajectory arrays, the one stored form of it; row k
    holds record k.

    ``x``, ``y``, ``v`` and ``map`` (the first-order map, a gradient or
    proximal subgradient, evaluated at y_k during stepping) have shape
    (n+1, d) and ``f`` (f or phi at x_k) has shape (n+1,). ``z`` holds the
    candidates z_0..z_{n-1} of a monotone scheme, shape (n, d); the other
    schemes make none, and their ``z`` has shape (0, d). The constructor
    makes the six arrays read-only.
    """

    params: RunParams
    problem_id: str
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    map: np.ndarray
    f: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "v", "map", "f", "z"):
            getattr(self, name).setflags(write=False)

    @property
    def iters(self) -> int:
        return len(self.f) - 1

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """One TraceRecord per row, built on first use; its vectors are row
        views of the arrays, and z is None on the records past ``len(z)``."""
        zs = [*self.z] + [None] * (len(self.f) - len(self.z))
        return tuple(
            map(TraceRecord, range(len(self.f)), self.x, self.y, self.v, self.f.tolist(),
                self.map, zs)
        )

    def f_values(self) -> np.ndarray:
        return self.f.copy()


def initial_state(x0) -> AlgoState:
    x0 = np.asarray(x0, dtype=float).copy()
    return AlgoState(k=0, x=x0, y=x0, v=np.zeros_like(x0))


def _weights(algo: str, r: float | None, mu: float, s: float):
    """The kernel's k -> (beta_k, gamma_k) for ``algo``; None marks an absent term."""
    if algo == "gd":
        return lambda k: (None, None)
    if algo in ("nag-sc", "m-nag-sc"):
        mus = mu * s
        if not 0.0 < mus < 1.0:
            raise ParameterError(f"need 0 < mu*s < 1 for the constant momentum, got {mus}")
        beta = (1.0 - math.sqrt(mus)) / (1.0 + math.sqrt(mus))
        gamma = 1.0 if algo in MONOTONE_ALGOS else None
        return lambda k: (beta, gamma)
    if algo in MONOTONE_ALGOS:
        return lambda k: (k / (k + r + 1.0), (k + r) / (k + r + 1.0))
    return lambda k: (k / (k + r + 1.0), None)


def _step(state, problem, s, fx=None, *, weights):
    """The kernel: y' = x' + beta_k (x' - x) + gamma_k (z - x').

    One proximal step from y_k gives the candidate z and the first-order map
    at y_k. Without gamma_k, x' = z; with it, z replaces x_k unless it
    increases phi (ties accept). Given fx = phi(x_k), also returns
    phi(x_{k+1}), which costs no evaluation beyond phi(z) on monotone
    schemes. Returns (next state, map at y_k, phi(x_{k+1}) or None).
    """
    beta, gamma = weights(state.k)
    z, m = prox_step(problem, state.y, s)
    if gamma is not None:
        fz = problem.phi_value(z)
        x1, f1 = (z, fz) if fz <= fx else (state.x, fx)
    else:
        x1, z = z, None
        f1 = None if fx is None else problem.phi_value(x1)
    # Without beta_k, y' is x' itself: x' + 0*(x' - x) would turn -0.0 into 0.0.
    y1 = x1 if beta is None else x1 + beta * (x1 - state.x)
    if gamma is not None:
        y1 = y1 + gamma * (z - x1)
    v1 = (x1 - state.x) / math.sqrt(s)
    return AlgoState(state.k + 1, x1, y1, v1, z=z), m, f1


def _phase_step(state, problem, s, fx=None, *, r):
    """Nesterov momentum in position-velocity form; same return as _step."""
    k = state.k
    g = problem.smooth.gradient(state.y)
    rs = math.sqrt(s)
    v1 = state.v - ((r + 1.0) / (k + r)) * state.v - rs * g
    x1 = state.x + rs * v1
    y1 = x1 + (k / (k + 1.0 + r)) * rs * v1
    f1 = None if fx is None else problem.phi_value(x1)
    return AlgoState(k + 1, x1, y1, v1), g, f1


def composite_for(problem: Problem, algo: str) -> CompositeObjective:
    """``as_composite(problem)``, the composite objective ``algo`` steps on.

    Every scheme runs on a smooth oracle, which gets l1 weight 0, and on a
    composite of weight 0, which is the same problem; there fista and
    m-fista are nag and m-nag bit for bit. A positive l1 weight needs fista
    or m-fista: other schemes raise InvalidProblemError.
    """
    work = as_composite(problem)
    if work.l1_weight != 0.0 and algo not in COMPOSITE_ALGOS:
        raise InvalidProblemError(f"{algo} handles smooth objectives only; use fista/m-fista")
    return work


def _transition(algo: str, problem: CompositeObjective, s: float, r: float | None):
    """(state, problem, s, fx) -> (next state, map at y_k, phi(x_{k+1})) for ``algo``."""
    if algo == "nag-phase":
        return partial(_phase_step, r=r)
    return partial(_step, weights=_weights(algo, r, problem.smooth.mu, s))


def step(
    algo: str, state: AlgoState, problem: Problem, s: float, r: float | None = None
) -> AlgoState:
    """One transition of ``algo`` from ``state``: the kernel ``run`` steps with.

    ``algo``, ``s`` and ``r`` pass the checks ``RunParams`` applies to a run
    (a known algorithm, s positive and finite, r >= 2 for the r family; r is
    ignored by gd, nag-sc and m-nag-sc). ``problem`` is a smooth oracle or a
    composite objective, as ``composite_for`` accepts it. Unlike ``run``, s
    is not held to (0, 1/L).
    """
    RunParams(algo=algo, step=s, iters=1, momentum_r=r)
    work = composite_for(problem, algo)
    fx = work.phi_value(state.x) if algo in MONOTONE_ALGOS else None
    return _transition(algo, work, s, r)(state, work, s, fx)[0]


def run(problem: Problem, params: RunParams, x0, *, problem_id: str = "custom") -> Trace:
    """Run ``params.iters`` steps from x0 = y0 and record the full trajectory.

    The trace has iters + 1 rows, filled as it steps; row k stores the
    first-order map at y_k that the transition consumed (for the final row
    it is evaluated once more, which is exact since oracles are pure). f is evaluated once
    per step: at x_{k+1}, or for monotone schemes at z_k, whose comparison
    decides f(x_{k+1}).
    """
    work = composite_for(problem, params.algo)
    require_step(params.step, work.smooth.lipschitz)
    x0 = _as_vector(x0, work.dim)
    if not np.all(np.isfinite(x0)):
        raise ParameterError("start point x0 must be finite")
    s = params.step
    transition = _transition(params.algo, work, s, params.momentum_r)

    state = initial_state(x0)
    # An overflow here is reported as the error below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        fx = work.phi_value(state.x)
    if not math.isfinite(fx):
        raise ParameterError(f"f(x0) is not finite ({fx}); choose a smaller start point")
    n = params.iters
    x, y, v, m = (np.empty((n + 1, work.dim)) for _ in range(4))
    z = np.empty((n if params.algo in MONOTONE_ALGOS else 0, work.dim))
    f = np.empty(n + 1)
    for k in range(n):
        x[k], y[k], v[k], f[k] = state.x, state.y, state.v, fx
        state, m[k], fx = transition(state, work, s, fx)
        if state.z is not None:
            z[k] = state.z
    x[n], y[n], v[n], f[n] = state.x, state.y, state.v, fx
    m[n] = prox_step(work, state.y, s)[1]
    return Trace(params=params, problem_id=problem_id, x=x, y=y, v=v, map=m, f=f, z=z)
