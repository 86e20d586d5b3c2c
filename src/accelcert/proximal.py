"""Proximal value / subgradient, and the fundamental and key inequalities.

For step size s in (0, 1/L), the proximal value P(x) minimizes
(1/2s)||y - (x - s*grad f(x))||^2 + g(y) over y, and the proximal
subgradient is G(x) = (x - P(x))/s, which reduces to grad f(x) when g is
identically zero (l1 weight 0). For a positive weight P(x) has the closed
soft-threshold form; an independent grid-search oracle tests it.

There is one proximal path: ``prox_step`` computes P(x) and G(x) from one
gradient evaluation without checking its inputs, and the step kernel in
``algorithms`` calls it directly. ``prox_eval`` is its checked entry and
returns the same pair, and ``prox_value`` and ``prox_subgradient`` index it.

Every public function here also takes a smooth oracle, which
``problems.as_composite`` gives l1 weight 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, StepSizeError
from .problems import CompositeObjective, Problem, Vector, _as_vector, _normalized, as_composite


def require_step(s: float, lipschitz: float) -> None:
    """Enforce the standing assumption 0 < s < 1/L (both bounds strict)."""
    if not 0.0 < s < 1.0 / lipschitz:
        raise StepSizeError(
            f"step {s} outside (0, {1.0 / lipschitz}) for L={lipschitz}"
        )


def soft_threshold(u, theta: float) -> Vector:
    """Componentwise shrinkage (|u_i| - theta)_+ * sgn(u_i).

    Entries with |u_i| <= theta map to exact zeros.
    """
    if theta < 0.0:
        raise ParameterError("threshold must be nonnegative")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.sign(u) * np.maximum(np.abs(u) - theta, 0.0)


def prox_step(problem: CompositeObjective, x: Vector, s: float) -> tuple[Vector, Vector]:
    """(P(x), G(x)) from one gradient evaluation, with no input checks.

    l1_weight 0 (g identically zero): P(x) is the plain gradient step
    x - s*grad f(x) and G(x) is grad f(x) itself; the reduction is exact,
    and routing through the subtraction would only destroy the bit-level
    identity with the smooth algorithms. l1_weight > 0: P(x) is the soft
    threshold of the gradient step at level l1_weight*s.
    """
    g = problem.smooth.gradient(x)
    if problem.l1_weight == 0.0:
        return x - s * g, g
    p = soft_threshold(x - s * g, problem.l1_weight * s)
    return p, (x - p) / s


def prox_eval(problem: Problem, x, s: float) -> tuple[Vector, Vector]:
    """``prox_step``'s (P(x), G(x)) pair, after checking the step against
    (0, 1/L) and x against the problem's dimension."""
    problem = as_composite(problem)
    require_step(s, problem.smooth.lipschitz)
    return prox_step(problem, _as_vector(x, problem.dim), s)


def prox_value(problem: Problem, x, s: float) -> Vector:
    """Proximal value P(x) for an l1 weight of 0 or more (see prox_step)."""
    return prox_eval(problem, x, s)[0]


def prox_subgradient(problem: Problem, x, s: float) -> Vector:
    """Proximal subgradient G(x) = (x - P(x))/s, grad f(x) when g is zero."""
    return prox_eval(problem, x, s)[1]


def prox_bruteforce(
    problem: Problem,
    x,
    s: float,
    radius: float | None = None,
    grid_step: float = 1e-6,
    npts: int = 4001,
) -> Vector:
    """Independent proximal oracle: per-coordinate grid minimization.

    Minimizes (1/2s)(y - u_i)^2 + l1_weight*|y| over y (l1_weight is 0 on a
    smooth oracle) for each coordinate of the gradient step
    u = x - s*grad f(x), by evaluating the objective on successively refined
    uniform grids (the objective is strictly convex in y, so the grid argmin
    brackets the true minimizer within one cell).
    ``radius`` defaults to 10*(1 + |u_i|); refinement stops once the cell
    width is at most ``grid_step``. Never uses the closed form.
    """
    problem = as_composite(problem)
    if grid_step <= 0.0:
        raise ParameterError("grid step must be positive")
    if npts < 5:
        raise ParameterError("need at least 5 grid points per stage")
    require_step(s, problem.smooth.lipschitz)
    x = _as_vector(x, problem.dim)
    u = x - s * problem.smooth.gradient(x)

    out = np.empty_like(u)
    for i, ui in enumerate(u):
        rad = 10.0 * (1.0 + abs(ui)) if radius is None else radius
        lo, hi = ui - rad, ui + rad
        while True:
            grid = np.linspace(lo, hi, npts)
            vals = (grid - ui) ** 2 / (2.0 * s) + problem.l1_weight * np.abs(grid)
            best = grid[int(np.argmin(vals))]
            cell = (hi - lo) / (npts - 1)
            if cell <= grid_step:
                break
            lo, hi = best - 2.0 * cell, best + 2.0 * cell
        out[i] = best
    return out


def composite_fundamental_slack(problem: Problem, x, y, s: float) -> float:
    """Slack of the descent inequality behind the potential-energy estimates;
    with g zero, G is grad f and it is the smooth inequality:

    phi(y - s G(y)) - phi(x) <= <G(y), y - x> - (mu/2)||y - x||^2
                                - (s - L s^2 / 2)||G(y)||^2
    """
    problem = as_composite(problem)
    x = _as_vector(x, problem.dim)
    y = _as_vector(y, problem.dim)
    g = prox_eval(problem, y, s)[1]
    lhs = problem.phi_value(y - s * g) - problem.phi_value(x)
    diff = y - x
    mu = problem.smooth.mu
    lipschitz = problem.smooth.lipschitz
    rhs = (
        float(np.dot(g, diff))
        - 0.5 * mu * float(np.dot(diff, diff))
        - (s - lipschitz * s * s / 2.0) * float(np.dot(g, g))
    )
    return _normalized(rhs, lhs)


def composite_key_slack(problem: Problem, y, s: float, phi_star: float) -> float:
    """Slack of ||G(y)||^2 >= 2 mu (phi(y - s G(y)) - phi*)."""
    problem = as_composite(problem)
    y = _as_vector(y, problem.dim)
    g = prox_eval(problem, y, s)[1]
    lhs = float(np.dot(g, g))
    rhs = 2.0 * problem.smooth.mu * (problem.phi_value(y - s * g) - phi_star)
    return _normalized(lhs, rhs)
