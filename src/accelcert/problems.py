"""Objective oracles and benchmark problems with known optimum data.

Oracles are pure functions of their input vector and never mutate internal
state after construction, so problem objects can be shared freely across
concurrent runs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _core
from .errors import InvalidProblemError

Vector = np.ndarray

#: Desk-scale cap on the problem dimension; keeps exact eigen-solves cheap.
MAX_DIM = 50

#: Most proximal-gradient steps spent pinning a lasso optimum.
REFERENCE_ITERS = 1_000_000

#: Steps in the first proximal-gradient chunk of the lasso warm start; each
#: later chunk is twice as long.
WARM_START_ITERS = 32


def _is_a(value, kind) -> bool:
    # bool is an Integral, but True is not a count, a step or a weight.
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SmoothOracle:
    """A strongly convex differentiable objective.

    ``mu`` is the strong-convexity modulus and ``lipschitz`` the gradient
    Lipschitz constant; admissible step sizes live in (0, 1/lipschitz).
    """

    dim: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    mu: float
    lipschitz: float

    def __post_init__(self):
        if not (_is_a(self.dim, numbers.Integral) and self.dim >= 1):
            raise InvalidProblemError(f"dimension must be a positive integer, got {self.dim!r}")
        if not (_is_a(self.mu, numbers.Real) and _is_a(self.lipschitz, numbers.Real)
                and 0.0 < self.mu <= self.lipschitz < np.inf):
            raise InvalidProblemError(
                f"need real numbers 0 < mu <= L < inf, got mu={self.mu!r}, L={self.lipschitz!r}"
            )


@dataclass(frozen=True)
class CompositeObjective:
    """Composite objective phi = f + g: a smooth oracle f plus the l1
    regularizer g = l1_weight * ||x||_1.

    ``l1_weight`` is finite and nonnegative; a zero weight means g is
    identically 0, and the objective is the smooth problem itself.
    """

    smooth: SmoothOracle
    l1_weight: float = 0.0

    def __post_init__(self):
        if not (_is_a(self.l1_weight, numbers.Real) and 0.0 <= self.l1_weight < np.inf):
            raise InvalidProblemError(
                f"l1 weight must be a finite nonnegative number, got {self.l1_weight!r}"
            )

    @property
    def dim(self) -> int:
        return self.smooth.dim

    def g_value(self, x: Vector) -> float:
        if self.l1_weight == 0.0:
            return 0.0
        return float(self.l1_weight * np.sum(np.abs(x)))

    def phi_value(self, x: Vector) -> float:
        # With g identically zero phi is f itself, bit for bit (f + 0.0
        # would turn a -0.0 into 0.0).
        if self.l1_weight == 0.0:
            return self.smooth.value(x)
        return self.smooth.value(x) + self.g_value(x)


@dataclass(frozen=True)
class OptimumInfo:
    """Minimizer data used by certificates.

    ``source`` is "analytic" for closed-form optima and "reference-run" when
    the optimum was pinned numerically; reference runs record their solver
    parameters in ``solver_params``: the proximal-gradient steps run
    (``iterations``), their ``step``, and ``error_bound``, an upper bound on
    phi(x_star) - phi*.
    """

    x_star: Vector
    f_star: float
    source: str
    solver_params: dict | None = None


Problem = SmoothOracle | CompositeObjective


def _as_vector(x, dim: int | None = None) -> Vector:
    try:
        x = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(f"expected a numeric vector: {exc}") from exc
    if x.ndim != 1:
        raise InvalidProblemError(f"expected a vector, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise InvalidProblemError(f"dimension mismatch: expected {dim}, got {x.size}")
    return x


def json_floats(value, ndim: int) -> np.ndarray:
    """``value`` as json.load gives it, a number or nested lists of numbers,
    as a float array of ``ndim`` (0, 1 or 2) dimensions.

    Raises ValueError unless every entry is an int or a float: numpy would
    turn true and numeric strings such as "1" into floats.
    """
    entries = np.array(value, dtype=object)
    if entries.ndim != ndim or not set(map(type, entries.ravel().tolist())) <= {int, float}:
        raise ValueError(f"expected {('a number', 'a list', 'a matrix')[ndim]} of JSON numbers")
    try:
        return entries.astype(float)
    except OverflowError as exc:
        raise ValueError(f"a JSON number is too large for a float: {exc}") from exc


def comma_floats(text: str) -> list[float]:
    """The numbers of a comma-separated list such as "1,2.5". A token that
    is not a number raises ValueError, an empty one ("1,,2", "1,") too."""
    return [float(tok) for tok in text.split(",")]


def read_json(path, what: str, error: type[Exception]):
    """The JSON value in the UTF-8 file at ``path``. A file that cannot be
    opened, decoded or parsed raises ``error`` with a one-line message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from exc


def smooth_part(problem: Problem) -> SmoothOracle:
    return as_composite(problem).smooth


def as_composite(problem: Problem) -> CompositeObjective:
    """``problem`` as a composite objective, the one place a problem's kind is
    decided: a composite passes through, a smooth oracle gets g = 0."""
    if isinstance(problem, CompositeObjective):
        return problem
    return CompositeObjective(smooth=problem)


def make_quadratic(coefficients) -> tuple[SmoothOracle, OptimumInfo]:
    """Diagonal quadratic f(x) = sum_i c_i x_i^2 with mu = 2 min c, L = 2 max c.

    The minimizer is the origin with value 0, reported as an analytic optimum.
    """
    c = _as_vector(coefficients)
    if c.size == 0 or c.size > MAX_DIM:
        raise InvalidProblemError(f"need 1..{MAX_DIM} coefficients, got {c.size}")
    if not np.all((c > 0.0) & (c < np.inf)):
        raise InvalidProblemError("quadratic coefficients must all be positive and finite")
    c = c.copy()
    c.setflags(write=False)

    def value(x):
        return float(np.dot(c, np.asarray(x, dtype=float) ** 2))

    def gradient(x):
        return 2.0 * c * np.asarray(x, dtype=float)

    oracle = SmoothOracle(
        dim=c.size,
        value=value,
        gradient=gradient,
        mu=2.0 * float(c.min()),
        lipschitz=2.0 * float(c.max()),
    )
    optimum = OptimumInfo(x_star=np.zeros(c.size), f_star=0.0, source="analytic")
    return oracle, optimum


def make_lasso(
    design, target, l1_weight: float, *, ref_iters: int = REFERENCE_ITERS
) -> tuple[CompositeObjective, OptimumInfo]:
    """Lasso problem phi(x) = 0.5*||Ax - b||^2 + l1_weight*||x||_1.

    A must have full column rank so the smooth part is strongly convex; mu
    and L are the extreme eigenvalues of A^T A, computed exactly at desk
    scale. The optimum is solved on its sign pattern (see ``_solve_lasso``)
    within at most ``ref_iters`` proximal-gradient steps and reported as a
    reference run. At l1_weight 0 the problem is the smooth least squares,
    which every scheme runs on.
    """
    try:
        A = np.asarray(design, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(f"design must be a numeric matrix: {exc}") from exc
    if A.ndim != 2:
        raise InvalidProblemError("design must be a 2-d matrix")
    m, d = A.shape
    b = _as_vector(target, m)
    if d < 1 or d > MAX_DIM:
        raise InvalidProblemError(f"need 1..{MAX_DIM} columns, got {d}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise InvalidProblemError("design and target must be finite")
    if isinstance(ref_iters, float) and ref_iters.is_integer():
        ref_iters = int(ref_iters)
    if not (_is_a(ref_iters, numbers.Integral) and ref_iters >= 1):
        raise InvalidProblemError(f"ref_iters must be a positive integer, got {ref_iters!r}")

    # An overflow here is reported as the error below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        AtA = A.T @ A
        Atb = A.T @ b
    if not (np.all(np.isfinite(AtA)) and np.all(np.isfinite(Atb))):
        raise InvalidProblemError("design too large: A^T A or A^T b overflows")
    eigvals = np.linalg.eigvalsh(AtA)
    mu, lipschitz = float(eigvals[0]), float(eigvals[-1])
    if mu <= 1e-12 * max(lipschitz, 1.0):
        raise InvalidProblemError("design is rank deficient: smooth part not strongly convex")

    def value(x):
        r = A @ np.asarray(x, dtype=float) - b
        return float(0.5 * np.dot(r, r))

    def gradient(x):
        return AtA @ np.asarray(x, dtype=float) - Atb

    oracle = SmoothOracle(dim=d, value=value, gradient=gradient, mu=mu, lipschitz=lipschitz)
    problem = CompositeObjective(smooth=oracle, l1_weight=l1_weight)

    ref_step = 0.9 / lipschitz
    x_star, iterations = _solve_lasso(AtA, Atb, l1_weight, ref_step, int(ref_iters))
    residual = _subgradient_residual(AtA, Atb, l1_weight, x_star)
    optimum = OptimumInfo(
        x_star=x_star,
        f_star=problem.phi_value(x_star),
        source="reference-run",
        solver_params={
            "iterations": iterations,
            "step": ref_step,
            "error_bound": float(np.dot(residual, residual)) / (2.0 * mu),
        },
    )
    return problem, optimum


def _subgradient_residual(AtA, Atb, lam: float, x: Vector) -> Vector:
    """Minimum-norm element of grad f(x) + lam * subdiff ||x||_1."""
    g = AtA @ x - Atb
    return np.where(x != 0.0, g + lam * np.sign(x), np.maximum(np.abs(g) - lam, 0.0))


def _solve_lasso(AtA, Atb, lam: float, step: float, cap: int) -> tuple[Vector, int]:
    """Lasso minimizer and the number of proximal-gradient steps spent on it.

    Proximal-gradient steps from the origin run in doubling chunks. After
    each chunk the stationarity system A_S^T A_S x_S = A_S^T b - lam sign_S
    is solved on the iterate's support S. The solution is the minimizer once
    its signs match the pattern and |grad f_i| <= lam off S, the KKT
    conditions (Osborne, Presnell & Turlach 2000). If ``cap`` steps pass
    without that, the last proximal-gradient iterate is returned.
    """
    x = np.zeros(Atb.size)
    done, chunk = 0, WARM_START_ITERS
    while done < cap:
        n = min(chunk, cap - done)
        x = _core.ista_solve(AtA, Atb, lam, step, x, n)
        done += n
        chunk *= 2
        support = x != 0.0
        signs = np.sign(x[support])
        solved = np.zeros_like(x)
        solved[support] = np.linalg.solve(
            AtA[np.ix_(support, support)], Atb[support] - lam * signs
        )
        if np.array_equal(np.sign(solved[support]), signs) and not np.any(
            _subgradient_residual(AtA, Atb, lam, solved)[~support]
        ):
            return solved, done
    return x, done


def oracle_eval(problem: Problem, x) -> tuple[float, Vector]:
    """Evaluate (f(x), grad f(x)) of the smooth part f, with dimension checking."""
    oracle = smooth_part(problem)
    x = _as_vector(x, oracle.dim)
    return oracle.value(x), oracle.gradient(x)


def finite_diff_gradient(problem: Problem, x, h: float) -> Vector:
    """Central-difference gradient of f, the independent check on oracle gradients."""
    if h <= 0.0:
        raise InvalidProblemError("finite-difference step must be positive")
    oracle = smooth_part(problem)
    x = _as_vector(x, oracle.dim)
    out = np.empty(oracle.dim)
    for i in range(oracle.dim):
        e = np.zeros(oracle.dim)
        e[i] = h
        out[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    return out


# Runtime numeric checks for the inequalities the convergence analysis rests
# on; the fundamental and key inequalities are in ``proximal``. Each returns
# a normalized slack ((satisfied side) - (other side), scaled by
# 1 + |lhs| + |rhs|); a valid oracle keeps it above roughly -1e-9.

def _normalized(satisfied: float, other: float) -> float:
    return (satisfied - other) / (1.0 + abs(satisfied) + abs(other))


def strong_convexity_slack(problem: Problem, x, y) -> float:
    """Slack of f(x) >= f(y) + <grad f(y), x - y> + (mu/2)||x - y||^2."""
    oracle = smooth_part(problem)
    x = _as_vector(x, oracle.dim)
    y = _as_vector(y, oracle.dim)
    lhs = oracle.value(x)
    diff = x - y
    rhs = (
        oracle.value(y)
        + float(np.dot(oracle.gradient(y), diff))
        + 0.5 * oracle.mu * float(np.dot(diff, diff))
    )
    return _normalized(lhs, rhs)


def gradient_lipschitz_slack(problem: Problem, x, y) -> float:
    """Slack of L||x - y|| >= ||grad f(x) - grad f(y)||."""
    oracle = smooth_part(problem)
    x = _as_vector(x, oracle.dim)
    y = _as_vector(y, oracle.dim)
    lhs = oracle.lipschitz * float(np.linalg.norm(x - y))
    rhs = float(np.linalg.norm(oracle.gradient(x) - oracle.gradient(y)))
    return _normalized(lhs, rhs)


def problem_file(name: str) -> str | None:
    """The path of the file that resolve_problem(name) reads, or None."""
    return name[len("lasso:"):] if name.startswith("lasso:") else None


def resolve_problem(name: str) -> tuple[Problem, OptimumInfo]:
    """Resolve a problem preset.

    Supported names: "quad2d" (the figure quadratic 5e-3*x1^2 + x2^2),
    "quad-diag:<c1,c2,...>", and "lasso:<path>" where the JSON file holds
    {"A": [[...]], "b": [...], "lambda": x} plus an optional "ref_iters".
    """
    if name == "quad2d":
        return make_quadratic((5e-3, 1.0))
    if name.startswith("quad-diag:"):
        body = name[len("quad-diag:"):]
        try:
            coeffs = comma_floats(body)
        except ValueError as exc:
            raise InvalidProblemError(f"bad quad-diag coefficients {body!r}") from exc
        return make_quadratic(coeffs)
    path = problem_file(name)
    if path is not None:
        payload = read_json(path, "lasso file", InvalidProblemError)
        try:
            design = json_floats(payload["A"], 2)
            target = json_floats(payload["b"], 1)
            weight = float(json_floats(payload["lambda"], 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidProblemError(
                f"lasso file {path!r} must define A, b and a numeric lambda"
            ) from exc
        ref_iters = payload.get("ref_iters", REFERENCE_ITERS)
        return make_lasso(design, target, weight, ref_iters=ref_iters)
    raise InvalidProblemError(f"unknown problem {name!r}")
