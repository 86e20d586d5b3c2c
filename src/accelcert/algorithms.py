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
``SCHEMES`` is the one place a scheme's facts live: every rule that
depends on a scheme reads its ``Scheme`` row.

The kernels take and return plain arrays, (k, x_k, y_k, v_k, phi(x_k)) ->
(x_{k+1}, y_{k+1}, v_{k+1}, z_k, map at y_k, phi(x_{k+1})), so ``run``
writes its rows with no per-step state object. ``step(algo, state,
problem, s, r)`` is the one public single step; it checks its arguments as
``RunParams`` checks a run's, takes the same transition ``run`` does and
wraps the result in a fresh ``AlgoState``. Steps never mutate their inputs;
the runner is deterministic, so identical inputs give bit-identical traces.
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


@dataclass(frozen=True)
class Scheme:
    """A scheme's facts: ``momentum``, its beta_k in the table above, is
    "none", "r" (k/(k+r+1), which needs r >= 2) or "constant"; a ``monotone``
    scheme compares and has gamma_k, a ``composite`` one runs on a positive
    l1 weight, a ``certifiable`` one has the rate and decrease certificates,
    and a ``phase`` one steps in position-velocity form."""

    momentum: str
    monotone: bool = False
    composite: bool = False
    certifiable: bool = False
    phase: bool = False


SCHEMES = {
    "gd": Scheme("none"),
    "nag": Scheme("r", certifiable=True),
    "nag-phase": Scheme("r", certifiable=True, phase=True),
    "m-nag": Scheme("r", monotone=True, certifiable=True),
    "fista": Scheme("r", composite=True, certifiable=True),
    "m-fista": Scheme("r", monotone=True, composite=True, certifiable=True),
    "nag-sc": Scheme("constant"),
    "m-nag-sc": Scheme("constant", monotone=True),
}
ALGORITHMS = tuple(SCHEMES)
#: Algorithms whose momentum weight depends on the parameter r.
R_FAMILY_ALGOS = frozenset(name for name, row in SCHEMES.items() if row.momentum == "r")
#: Algorithms with a comparison step (function values never increase).
MONOTONE_ALGOS = frozenset(name for name, row in SCHEMES.items() if row.monotone)


def scheme_of(algo) -> Scheme:
    """The SCHEMES row of ``algo``; any other value raises ParameterError."""
    if algo not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algo!r}; choose from {', '.join(ALGORITHMS)}")
    return SCHEMES[algo]


@dataclass(frozen=True)
class AlgoState:
    """Iterate (k, x_k, y_k, v_k) plus, on a monotone scheme, the candidate
    z_{k-1} of the comparison step that made it (None at k = 0)."""

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
        scheme = scheme_of(self.algo)
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
        if scheme.momentum == "r":
            if self.momentum_r is None:
                raise ParameterError(f"{self.algo} requires the momentum parameter r")
            if self.momentum_r < 2.0:
                raise ParameterError(f"momentum parameter r must be >= 2, got {self.momentum_r}")


def _layout_error(name: str, array, shape) -> ParameterError:
    got = f"shape {array.shape}" if isinstance(array, np.ndarray) else type(array).__name__
    return ParameterError(f"trace array {name!r} has {got}, need shape {shape}")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    x: Vector
    y: Vector
    v: Vector
    f_or_phi_at_x: float
    first_order_at_y: Vector
    z: Vector | None = None


@dataclass(frozen=True, eq=False)
class Trace:
    """One run as whole-trajectory arrays, the one stored form of it.

    With n = ``params.iters`` and d >= 1, row k of ``x``, ``y``, ``v``,
    ``map`` (the first-order map at y_k, a gradient or proximal
    subgradient) and ``f`` (f or phi at x_k) holds record k, so they have
    shape (n+1, d) and (n+1,). ``z`` holds the candidates z_0..z_{n-1} of a
    monotone scheme, shape (n, d), and has shape (0, d) on the others. The
    constructor checks this layout, raising ParameterError, and makes the
    six arrays read-only. Traces compare by identity, not by their arrays.
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
        if not isinstance(self.params, RunParams):
            raise ParameterError(f"trace params must be a RunParams, got {self.params!r}")
        if not isinstance(self.problem_id, str):
            raise ParameterError(f"trace problem_id must be a string, got {self.problem_id!r}")
        n, x = self.params.iters, self.x
        if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.shape[1] >= 1):
            raise _layout_error("x", x, f"({n + 1}, d) with d >= 1")
        d = x.shape[1]
        shapes = {"x": (n + 1, d), "y": (n + 1, d), "v": (n + 1, d), "map": (n + 1, d),
                  "f": (n + 1,), "z": (n if SCHEMES[self.params.algo].monotone else 0, d)}
        for name, shape in shapes.items():
            array = getattr(self, name)
            if not (isinstance(array, np.ndarray) and array.shape == shape):
                raise _layout_error(name, array, shape)
        for name in shapes:
            getattr(self, name).setflags(write=False)

    @property
    def iters(self) -> int:
        return self.params.iters

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """One TraceRecord per row, built on first use; its vectors are row
        views of the arrays, and z is None on the records past ``len(z)``.

        A read-only view that the package itself never reads; its readers
        are ``tests/test_acceptance.py``, the benchmark (``perfbench`` and
        ``tests/test_bench_contract.py``) and outside callers."""
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


def _weights(scheme: Scheme, r: float | None, mu: float, s: float):
    """The kernel's k -> (beta_k, gamma_k) for ``scheme``; None marks an absent term."""
    if scheme.momentum == "none":
        return lambda k: (None, None)
    if scheme.momentum == "constant":
        mus = mu * s
        if not 0.0 < mus < 1.0:
            raise ParameterError(f"need 0 < mu*s < 1 for the constant momentum, got {mus}")
        beta = (1.0 - math.sqrt(mus)) / (1.0 + math.sqrt(mus))
        gamma = 1.0 if scheme.monotone else None
        return lambda k: (beta, gamma)
    if scheme.monotone:
        return lambda k: (k / (k + r + 1.0), (k + r) / (k + r + 1.0))
    return lambda k: (k / (k + r + 1.0), None)


def _step(k, x, y, v, fx, *, problem, s, rs, weights):
    """The kernel: y' = x' + beta_k (x' - x) + gamma_k (z - x').

    One proximal step from y_k gives the candidate z and the first-order map
    at y_k. Without gamma_k, x' = z; with it, z replaces x_k unless it
    increases phi (ties accept). fx is phi(x_k), and phi(z), the step's one
    evaluation, gives phi(x_{k+1}). ``rs`` is sqrt(s), and v_k is not read.
    Returns (x_{k+1}, y_{k+1}, v_{k+1}, z or None, map at y_k, phi(x_{k+1})).
    """
    beta, gamma = weights(k)
    z, m = prox_step(problem, y, s)
    fz = problem.phi_value(z)
    x1, f1 = (z, fz) if gamma is None or fz <= fx else (x, fx)
    dx = x1 - x
    # Without beta_k, y' is x' itself: x' + 0*(x' - x) would turn -0.0 into 0.0.
    y1 = x1 if beta is None else x1 + beta * dx
    if gamma is not None:
        y1 = y1 + gamma * (z - x1)
    return x1, y1, dx / rs, None if gamma is None else z, m, f1


def _phase_step(k, x, y, v, fx, *, problem, s, rs, r):
    """Nesterov momentum in position-velocity form; same arguments and
    return as _step, with no z."""
    g = problem.smooth.gradient(y)
    v1 = v - ((r + 1.0) / (k + r)) * v - rs * g
    x1 = x + rs * v1
    y1 = x1 + (k / (k + 1.0 + r)) * rs * v1
    return x1, y1, v1, None, g, problem.phi_value(x1)


def composite_for(problem: Problem, algo: str) -> CompositeObjective:
    """``as_composite(problem)``, the composite objective ``algo`` steps on.

    Every scheme runs on a smooth oracle, which gets l1 weight 0, and on a
    composite of weight 0, which is the same problem; there fista and
    m-fista are nag and m-nag bit for bit. A positive l1 weight needs fista
    or m-fista: other schemes raise InvalidProblemError.
    """
    work = as_composite(problem)
    if work.l1_weight != 0.0 and not scheme_of(algo).composite:
        raise InvalidProblemError(f"{algo} handles smooth objectives only; use fista/m-fista")
    return work


def _transition(scheme: Scheme, problem: CompositeObjective, s: float, r: float | None):
    """(k, x_k, y_k, v_k, phi(x_k)) -> _step's return, for ``scheme``."""
    if scheme.phase:
        return partial(_phase_step, problem=problem, s=s, rs=math.sqrt(s), r=r)
    return partial(_step, problem=problem, s=s, rs=math.sqrt(s),
                   weights=_weights(scheme, r, problem.smooth.mu, s))


def step(
    algo: str, state: AlgoState, problem: Problem, s: float, r: float | None = None
) -> AlgoState:
    """One transition of ``algo`` from ``state``: the kernel ``run`` steps with.

    ``algo``, ``s`` and ``r`` pass the checks ``RunParams`` applies to a run
    (a known algorithm, s positive and finite, r >= 2 for the r family; r is
    ignored by gd, nag-sc and m-nag-sc). ``problem`` is a smooth oracle or a
    composite objective, as ``composite_for`` accepts it. Unlike ``run``, s
    is not held to (0, 1/L). The kernel takes phi(x_k), which ``step``
    evaluates, and evaluates phi(x_{k+1}), which ``step`` drops.
    """
    RunParams(algo=algo, step=s, iters=1, momentum_r=r)
    work = composite_for(problem, algo)
    transition = _transition(SCHEMES[algo], work, s, r)
    x1, y1, v1, z, _, _ = transition(state.k, state.x, state.y, state.v, work.phi_value(state.x))
    return AlgoState(state.k + 1, x1, y1, v1, z=z)


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
    scheme = SCHEMES[params.algo]
    transition = _transition(scheme, work, s, params.momentum_r)

    xk = yk = x0
    vk = np.zeros_like(x0)
    # An overflow here is reported as the error below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        fx = work.phi_value(xk)
    if not math.isfinite(fx):
        raise ParameterError(f"f(x0) is not finite ({fx}); choose a smaller start point")
    n = params.iters
    x, y, v, m = (np.empty((n + 1, work.dim)) for _ in range(4))
    z = np.empty((n if scheme.monotone else 0, work.dim))
    f = np.empty(n + 1)
    for k in range(n):
        x[k], y[k], v[k], f[k] = xk, yk, vk, fx
        xk, yk, vk, zk, m[k], fx = transition(k, xk, yk, vk, fx)
        if zk is not None:
            z[k] = zk
    x[n], y[n], v[n], f[n] = xk, yk, vk, fx
    m[n] = prox_step(work, yk, s)[1]
    return Trace(params=params, problem_id=problem_id, x=x, y=y, v=v, map=m, f=f, z=z)
