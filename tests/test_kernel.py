"""The step kernel pinned bit for bit against each scheme's own formulas.

``reference_step`` writes the eight transitions out one scheme at a time,
each with its own gradient or proximal step and momentum line, and
``reference_run`` records them as ``run`` does. The library's runs and
public ``step`` must reproduce every bit of them, -0.0 included.
"""

import math

import numpy as np
import pytest

import accelcert as ac
from accelcert.algorithms import AlgoState, initial_state

SMOOTH_ALGOS = ("gd", "nag", "nag-phase", "m-nag", "nag-sc", "m-nag-sc")
#: Schemes that take no momentum parameter r; ``step`` ignores the r it is given.
NO_R = ("gd", "nag-sc", "m-nag-sc")
ALGOS = ("gd", "nag", "nag-phase", "m-nag", "fista", "m-fista", "nag-sc", "m-nag-sc")


def _prox(problem, y, s):
    """(P(y), G(y)): a gradient step on a smooth oracle, a soft-thresholded
    one on an l1 problem."""
    if not isinstance(problem, ac.CompositeObjective):
        g = problem.gradient(y)
        return y - s * g, g
    g = problem.smooth.gradient(y)
    p = np.sign(y - s * g) * np.maximum(np.abs(y - s * g) - problem.l1_weight * s, 0.0)
    return p, (y - p) / s


def _value(problem):
    if isinstance(problem, ac.CompositeObjective):
        return lambda x: problem.smooth.value(x) + problem.g_value(x)
    return problem.value


def _accept(z, fz, x, fx):
    return (z, fz) if fz <= fx else (x, fx)


def _sc(oracle, s):
    root = math.sqrt(oracle.mu * s)
    return (1.0 - root) / (1.0 + root)


def reference_step(algo, state, problem, s, r, fx):
    """(next state, map at y_k, z_k or None, f at x_{k+1}) for one scheme."""
    k, x, y, v = state.k, state.x, state.y, state.v
    value = _value(problem)
    z = None
    if algo == "gd":
        m = problem.gradient(y)
        x1 = x - s * m
        y1 = x1
    elif algo == "nag":
        m = problem.gradient(y)
        x1 = y - s * m
        y1 = x1 + (k / (k + r + 1.0)) * (x1 - x)
    elif algo == "nag-phase":
        m = problem.gradient(y)
        rs = math.sqrt(s)
        v1 = v - ((r + 1.0) / (k + r)) * v - rs * m
        x1 = x + rs * v1
        y1 = x1 + (k / (k + 1.0 + r)) * rs * v1
        return AlgoState(k + 1, x1, y1, v1), m, None, value(x1)
    elif algo == "m-nag":
        m = problem.gradient(y)
        z = y - s * m
        x1, f1 = _accept(z, value(z), x, fx)
        y1 = x1 + (k / (k + r + 1.0)) * (x1 - x) + ((k + r) / (k + r + 1.0)) * (z - x1)
    elif algo == "fista":
        x1, m = _prox(problem, y, s)
        y1 = x1 + (k / (k + r + 1.0)) * (x1 - x)
    elif algo == "m-fista":
        z, m = _prox(problem, y, s)
        x1, f1 = _accept(z, value(z), x, fx)
        y1 = x1 + (k / (k + r + 1.0)) * (x1 - x) + ((k + r) / (k + r + 1.0)) * (z - x1)
    elif algo == "nag-sc":
        m = problem.gradient(y)
        x1 = y - s * m
        y1 = x1 + _sc(problem, s) * (x1 - x)
    else:  # m-nag-sc
        m = problem.gradient(y)
        z = y - s * m
        x1, f1 = _accept(z, value(z), x, fx)
        y1 = x1 + _sc(problem, s) * (x1 - x) + (z - x1)
    if z is None:
        f1 = value(x1)
    return AlgoState(k + 1, x1, y1, (x1 - x) / math.sqrt(s), z), m, z, f1


def reference_run(algo, problem, s, r, x0, iters):
    """Rows (x, y, v, z, map, f) of records 0..iters."""
    state = initial_state(x0)
    fx = _value(problem)(state.x)
    rows = []
    for _ in range(iters):
        new, m, z, f1 = reference_step(algo, state, problem, s, r, fx)
        rows.append((state.x, state.y, state.v, z, m, fx))
        state, fx = new, f1
    rows.append((state.x, state.y, state.v, None, _prox(problem, state.y, s)[1], fx))
    return rows


def bits(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def assert_same_bits(got, want, what):
    assert bits(got) == bits(want), f"{what}: {got!r} != {want!r}"


def _problem(name, algo, quad2d, lasso5):
    """(problem, s, r, x0) for ``algo`` on ``name``; on lasso5 the smooth
    schemes run on its least-squares part."""
    r = 3.5
    if name == "quad2d":
        problem, s, x0 = quad2d[0], 0.4, [0.7, -1.3]
    elif name == "diag50":
        problem = ac.make_quadratic(np.linspace(0.01, 1.0, 50))[0]
        s, x0 = 0.4, np.random.default_rng(50).normal(size=50)
    else:
        problem, s, x0, r = lasso5[0], 0.3, [0.3, -0.2, 0.5, 1.0, -1.0], 3.0
        if algo in SMOOTH_ALGOS:
            problem = problem.smooth
    return problem, s, r, x0


@pytest.mark.parametrize("name", ["quad2d", "diag50", "lasso5"])
@pytest.mark.parametrize("algo", ALGOS)
def test_run_matches_reference_formulas_bitwise(quad2d, lasso5, name, algo):
    problem, s, r, x0 = _problem(name, algo, quad2d, lasso5)
    r_param = None if algo in NO_R else r
    trace = ac.run(problem, ac.RunParams(algo=algo, step=s, iters=200, momentum_r=r_param), x0)
    want = reference_run(algo, problem, s, r, x0, 200)
    assert len(trace.records) == len(want)
    for rec, (x, y, v, z, m, f) in zip(trace.records, want):
        for field, got, ref in (("x", rec.x, x), ("y", rec.y, y), ("v", rec.v, v),
                                ("z", rec.z, z), ("map", rec.first_order_at_y, m),
                                ("f", rec.f_or_phi_at_x, f)):
            assert_same_bits(got, ref, f"record {rec.k} {field}")


def _assert_step_matches(algo, state, problem, s, r):
    fx = _value(problem)(state.x)
    want = reference_step(algo, state, problem, s, r, fx)[0]
    got = ac.step(algo, state, problem, s, r)
    assert got.k == want.k
    for field in ("x", "y", "v", "z"):
        assert_same_bits(getattr(got, field), getattr(want, field), field)


@pytest.mark.parametrize("algo", [a for a in ALGOS if a != "gd"])
@pytest.mark.parametrize("k", [0, 1, 7])
def test_public_steps_match_reference_with_y_apart_from_x(quad2d, algo, k):
    # Overshooting y makes the monotone schemes reject z at the larger k.
    problem, s, r, _ = _problem("quad2d", algo, quad2d, None)
    state = AlgoState(k=k, x=np.array([0.0, 0.01]), y=np.array([0.3, 1.0]),
                      v=np.array([-0.2, 0.5]))
    _assert_step_matches(algo, state, problem, s, r)


@pytest.mark.parametrize("name", ["quad2d", "lasso5"])
@pytest.mark.parametrize("algo", ALGOS)
def test_public_steps_match_reference_from_signed_zero(quad2d, lasso5, name, algo):
    problem, s, r, _ = _problem(name, algo, quad2d, lasso5)
    x0 = [-0.0, 0.0] if name == "quad2d" else [-0.0, 0.0, -0.0, 0.0, -0.0]
    state = initial_state(x0)
    for _ in range(3):
        _assert_step_matches(algo, state, problem, s, r)
        state = ac.step(algo, state, problem, s, r)


def test_gd_steps_from_y(quad2d):
    # Along a run gd has y_k = x_k. On a state with y apart from x it takes
    # the gradient step from y_k, as the other schemes do.
    oracle = quad2d[0]
    s = 0.4
    x, y = np.array([0.0, 0.01]), np.array([0.3, 1.0])
    out = ac.step("gd", AlgoState(k=3, x=x, y=y, v=np.zeros(2)), oracle, s)
    x1 = y - s * oracle.gradient(y)
    assert_same_bits(out.x, x1, "x")
    assert out.y is out.x
    assert_same_bits(out.v, (x1 - x) / math.sqrt(s), "v")
    assert out.z is None


def test_zero_regularizer_keeps_negative_zero_f():
    # A smooth problem runs with a zero regularizer; phi must be f itself,
    # since f + 0.0 would record a -0.0 value as 0.0.
    def value(x):
        return float(x @ x) if np.any(x) else -0.0

    oracle = ac.SmoothOracle(dim=2, value=value, gradient=lambda x: 2.0 * x, mu=2.0,
                             lipschitz=2.0)
    for algo in ("nag", "m-nag"):
        trace = ac.run(oracle, ac.RunParams(algo=algo, step=0.4, iters=3, momentum_r=2.0),
                       [0.0, 0.0])
        assert [bits(rec.f_or_phi_at_x) for rec in trace.records] == [bits(-0.0)] * 4
