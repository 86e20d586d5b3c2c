import dataclasses
import itertools
import json

import numpy as np
import pytest
from conftest import LASSO5_A, LASSO5_B, LASSO5_LAM

import accelcert as ac
from accelcert import _core
from accelcert.errors import InvalidProblemError
from accelcert.problems import gradient_lipschitz_slack, resolve_problem, strong_convexity_slack
from accelcert.proximal import composite_fundamental_slack, composite_key_slack


def test_quadratic_figure_instance(quad2d):
    oracle, optimum = quad2d
    value, grad = ac.oracle_eval(oracle, [1.0, 1.0])
    assert value == pytest.approx(1.005, rel=1e-15)
    assert grad == pytest.approx([0.01, 2.0], rel=1e-15)
    assert oracle.mu == pytest.approx(0.01)
    assert oracle.lipschitz == pytest.approx(2.0)
    assert optimum.source == "analytic"
    assert optimum.f_star == 0.0


def test_quadratic_at_minimizer():
    oracle, optimum = ac.make_quadratic([1.0])
    value, grad = ac.oracle_eval(oracle, optimum.x_star)
    assert value == 0.0
    assert np.all(grad == 0.0)
    assert oracle.value(optimum.x_star) == optimum.f_star


def test_quadratic_direct_evaluation():
    oracle, _ = ac.make_quadratic([2.0, 3.0])
    value, grad = ac.oracle_eval(oracle, [1.0, -1.0])
    assert value == pytest.approx(5.0, rel=1e-15)
    assert grad == pytest.approx([4.0, -6.0], rel=1e-15)


@pytest.mark.parametrize(
    "coeffs",
    [[1.0, -1.0], [0.0], [], [np.inf, 1.0], [np.nan, 1.0], [1e308, 1e308]],
)
def test_quadratic_rejects_bad_coefficients(coeffs):
    # 1e308 is finite, but mu = L = 2e308 is not.
    with pytest.raises(InvalidProblemError):
        ac.make_quadratic(coeffs)


@pytest.mark.parametrize("mu,lipschitz", [(1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0)])
def test_smooth_oracle_rejects_non_finite_constants(quad2d, mu, lipschitz):
    with pytest.raises(InvalidProblemError):
        dataclasses.replace(quad2d[0], mu=mu, lipschitz=lipschitz)


@pytest.mark.parametrize(
    "field,value",
    [("dim", "2"), ("dim", 2.5), ("dim", True), ("mu", "1"), ("mu", None), ("mu", True),
     ("lipschitz", "2"), ("lipschitz", False)],
)
def test_smooth_oracle_rejects_non_numeric_fields(quad2d, field, value):
    with pytest.raises(InvalidProblemError):
        dataclasses.replace(quad2d[0], **{field: value})


@pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf, "0.4", None, True])
def test_composite_rejects_bad_weights(quad2d, weight):
    with pytest.raises(InvalidProblemError):
        ac.CompositeObjective(quad2d[0], weight)


def test_oracle_eval_dimension_mismatch(quad2d):
    oracle, _ = quad2d
    with pytest.raises(InvalidProblemError):
        ac.oracle_eval(oracle, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x", [["a", "b"], [[1.0, 2.0]]])
def test_oracle_eval_rejects_what_is_not_a_numeric_vector(quad2d, x):
    with pytest.raises(InvalidProblemError):
        ac.oracle_eval(quad2d[0], x)


def test_oracle_eval_scalar_problem():
    oracle, _ = ac.make_quadratic([1.0])
    value, grad = ac.oracle_eval(oracle, [-2.0])
    assert value == pytest.approx(4.0)
    assert grad == pytest.approx([-4.0])


def test_lasso_identity_soft_threshold_optimum(identity_lasso):
    # Separable analytic solve: min 0.5 (x - b_i)^2 + |x_i| has solution
    # soft(b_i, 1), so x* = (2, -2) and phi* = 0.5*(1+1) + (2+2) = 5.
    problem, optimum = identity_lasso
    assert optimum.source == "reference-run"
    assert optimum.x_star == pytest.approx([2.0, -2.0], abs=1e-12)
    assert optimum.f_star == pytest.approx(5.0, abs=1e-12)
    assert optimum.solver_params["iterations"] < 50_000
    assert optimum.solver_params["step"] == pytest.approx(0.9)


def lasso_by_enumeration(A, b, lam):
    """Lasso minimizer as the least-phi stationary point over all sign patterns."""
    AtA, Atb = A.T @ A, A.T @ b

    def phi(x):
        r = A @ x - b
        return 0.5 * np.dot(r, r) + lam * np.sum(np.abs(x))

    best = np.zeros(A.shape[1])
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=A.shape[1]):
        sign = np.array(signs)
        on = sign != 0.0
        if on.any():
            x = np.zeros_like(best)
            x[on] = np.linalg.solve(AtA[np.ix_(on, on)], Atb[on] - lam * sign[on])
            if phi(x) < phi(best):
                best = x
    return best


def test_lasso_optimum_matches_sign_pattern_enumeration(lasso5):
    A, b = np.asarray(LASSO5_A), np.asarray(LASSO5_B)
    _, optimum = lasso5
    assert np.max(np.abs(optimum.x_star - lasso_by_enumeration(A, b, LASSO5_LAM))) <= 1e-15
    assert optimum.solver_params["iterations"] < 1000
    assert 0.0 <= optimum.solver_params["error_bound"] <= 1e-28


def test_lasso_optimum_on_seeded_instances():
    rng = np.random.default_rng(2000)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        A = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        b = rng.uniform(-2.0, 2.0, d)
        lam = float(rng.uniform(0.05, 1.0))
        _, optimum = ac.make_lasso(A, b, lam, ref_iters=100_000)
        x_enum = lasso_by_enumeration(A, b, lam)
        assert np.max(np.abs(optimum.x_star - x_enum)) <= 1e-12 * (1.0 + np.max(np.abs(x_enum)))
        assert optimum.solver_params["iterations"] < 100_000
        assert optimum.solver_params["error_bound"] <= 1e-25


def test_lasso_solve_runs_more_chunks_until_signs_settle():
    # Correlated columns: the first warm-start chunk still has the second
    # coordinate on the support, so the solve needs later chunks.
    A = np.array([[1.0, 0.95], [0.95, 1.0]])
    b = np.array([1.0, 0.5])
    _, optimum = ac.make_lasso(A, b, 0.1)
    assert optimum.x_star[1] == 0.0
    assert optimum.x_star == pytest.approx(lasso_by_enumeration(A, b, 0.1), abs=1e-15)
    assert 32 < optimum.solver_params["iterations"] < 1000
    assert optimum.solver_params["error_bound"] <= 1e-28


def test_lasso_capped_solve_reports_error_bound():
    _, optimum = ac.make_lasso(LASSO5_A, LASSO5_B, LASSO5_LAM, ref_iters=1)
    assert optimum.solver_params["iterations"] == 1
    assert optimum.solver_params["error_bound"] > 0.0


def test_ista_reaches_separable_solution():
    x = _core.ista_solve(np.eye(2), np.array([3.0, -3.0]), 1.0, 0.9, np.zeros(2), 5000)
    assert x == pytest.approx([2.0, -2.0], abs=1e-12)


def test_backend_name():
    assert _core.backend_name() == "python"


def test_lasso_zero_data():
    problem, optimum = ac.make_lasso(np.eye(1), [0.0], 1.0, ref_iters=1000)
    assert optimum.x_star == pytest.approx([0.0], abs=1e-15)
    assert optimum.f_star == pytest.approx(0.0, abs=1e-15)


def test_lasso_zero_weight_is_least_squares():
    problem, optimum = ac.make_lasso(np.diag([1.0, 2.0]), [1.0, 1.0], 0.0, ref_iters=5000)
    assert optimum.x_star == pytest.approx([1.0, 0.5], abs=1e-12)
    assert optimum.f_star == pytest.approx(0.0, abs=1e-15)


def test_lasso_rejects_rank_deficiency():
    with pytest.raises(InvalidProblemError):
        ac.make_lasso([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], 0.5)


@pytest.mark.parametrize(
    "design,weight,ref_iters",
    [
        (np.eye(2), "0.4", 10),
        (np.eye(2), True, 10),
        (np.eye(2), None, 10),
        (np.eye(2), -1.0, 10),
        ([["a", 1.0], [0.0, 1.0]], 0.4, 10),
        ([1.0, 2.0], 0.4, 10),
        (np.eye(51)[:2], 0.4, 10),
        (np.eye(2), 0.4, 0),
        (np.eye(2), 0.4, 2.5),
    ],
)
def test_make_lasso_rejects_bad_arguments(design, weight, ref_iters):
    with pytest.raises(InvalidProblemError):
        ac.make_lasso(design, [1.0, 1.0], weight, ref_iters=ref_iters)


def test_make_lasso_takes_a_whole_float_ref_iters_and_the_weight_as_given():
    problem, optimum = ac.make_lasso(np.eye(2), [3.0, -3.0], 1, ref_iters=3.0)
    assert problem.l1_weight == 1 and type(problem.l1_weight) is int
    assert optimum.solver_params["iterations"] == 3
    _, as_float = ac.make_lasso(np.eye(2), [3.0, -3.0], 1.0, ref_iters=3)
    assert optimum.x_star.tobytes() == as_float.x_star.tobytes()


def test_lasso_constants_from_normal_matrix(lasso5):
    problem, _ = lasso5
    A = np.asarray(LASSO5_A)
    w = np.linalg.eigvalsh(A.T @ A)
    assert problem.smooth.mu == pytest.approx(w[0], rel=1e-12)
    assert problem.smooth.lipschitz == pytest.approx(w[-1], rel=1e-12)


def test_composite_zero_regularizer_matches_smooth(quad2d):
    oracle, _ = quad2d
    composite = ac.as_composite(oracle)
    x = np.array([0.3, -2.0])
    assert composite.phi_value(x) == oracle.value(x)
    assert composite.g_value(x) == 0.0


def test_oracle_level_checks_read_the_smooth_part(lasso5):
    def bits(out):
        return np.hstack(out if isinstance(out, tuple) else (out,)).tobytes()

    problem, _ = lasso5
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=5), rng.normal(size=5)
    for check, args in (
        (ac.oracle_eval, (x,)),
        (ac.finite_diff_gradient, (x, 1e-6)),
        (strong_convexity_slack, (x, y)),
        (gradient_lipschitz_slack, (x, y)),
    ):
        assert bits(check(problem, *args)) == bits(check(problem.smooth, *args))


def test_composite_l1_value(identity_lasso):
    problem, _ = identity_lasso
    x = np.array([1.0, -2.0])
    expected = problem.smooth.value(x) + 1.0 * 3.0
    assert problem.phi_value(x) == pytest.approx(expected, rel=1e-15)


def test_finite_diff_matches_gradient_1d():
    oracle, optimum = ac.make_quadratic([1.0])
    fd = ac.finite_diff_gradient(oracle, [1.0], 1e-5)
    assert fd == pytest.approx([2.0], abs=1e-8)
    fd0 = ac.finite_diff_gradient(oracle, optimum.x_star, 1e-5)
    assert fd0 == pytest.approx([0.0], abs=1e-8)


def test_finite_diff_matches_gradient_2d():
    oracle, _ = ac.make_quadratic([2.0, 3.0])
    fd = ac.finite_diff_gradient(oracle, [1.0, -1.0], 1e-5)
    assert fd == pytest.approx([4.0, -6.0], abs=1e-7)


def test_finite_diff_rejects_bad_step(quad2d):
    with pytest.raises(InvalidProblemError):
        ac.finite_diff_gradient(quad2d[0], [1.0, 1.0], 0.0)


def test_finite_diff_property_random_points(quad2d):
    oracle, _ = quad2d
    rng = np.random.default_rng(61)
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0, oracle.dim)
        g = oracle.gradient(x)
        fd = ac.finite_diff_gradient(oracle, x, 1e-5)
        assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


def test_smooth_inequalities_hold_on_random_samples(quad2d):
    oracle, optimum = quad2d
    rng = np.random.default_rng(62)
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0, 2)
        y = rng.uniform(-10.0, 10.0, 2)
        s = float(rng.uniform(0.01, 0.999)) / oracle.lipschitz
        assert composite_fundamental_slack(oracle, x, y, s) >= -1e-9
        assert composite_key_slack(oracle, y, s, optimum.f_star) >= -1e-9
        assert strong_convexity_slack(oracle, x, y) >= -1e-9
        assert gradient_lipschitz_slack(oracle, x, y) >= -1e-9


def test_quadratic_constants_are_tight():
    oracle, _ = ac.make_quadratic([0.5, 4.0, 1.5])
    # Lipschitz constant is attained along the stiffest axis.
    x = np.zeros(3)
    y = np.array([0.0, 1.0, 0.0])
    ratio = np.linalg.norm(oracle.gradient(x) - oracle.gradient(y)) / np.linalg.norm(x - y)
    assert ratio == pytest.approx(oracle.lipschitz, rel=1e-12)
    # Strong convexity holds with equality along the softest axis.
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([-2.0, 0.0, 0.0])
    lhs = oracle.value(x)
    rhs = (
        oracle.value(y)
        + float(np.dot(oracle.gradient(y), x - y))
        + 0.5 * oracle.mu * float(np.dot(x - y, x - y))
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_resolve_quad_presets():
    oracle, optimum = resolve_problem("quad2d")
    assert optimum.f_star == 0.0
    assert oracle.dim == 2
    assert oracle.lipschitz == pytest.approx(2.0)
    oracle2, _ = resolve_problem("quad-diag:2,3")
    assert oracle2.dim == 2
    assert oracle2.mu == pytest.approx(4.0)


def test_resolve_lasso_file(tmp_path, identity_lasso):
    payload = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [3.0, -3.0], "lambda": 1.0,
               "ref_iters": 50_000}
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps(payload))
    problem, optimum = resolve_problem(f"lasso:{path}")
    assert problem.l1_weight == 1.0
    assert optimum.x_star == pytest.approx(identity_lasso[1].x_star, abs=1e-14)


@pytest.mark.parametrize(
    "name",
    ["nope", "quad-diag:", "quad-diag:a,b", "quad-diag:1,,2", "quad-diag:1,2,",
     "lasso:/definitely/missing.json"],
)
def test_resolve_rejects_bad_names(name):
    with pytest.raises(InvalidProblemError):
        resolve_problem(name)


@pytest.mark.parametrize(
    "change",
    [
        {"A": [[1.0, 0.0], [0.0]]},
        {"ref_iters": "many"},
        {"ref_iters": 2.7},
        {"ref_iters": True},
        {"A": [[1.0, 0.0], [0.0, float("nan")]]},
        {"b": [3.0, float("inf")]},
        {"lambda": "nan"},
        {"lambda": "heavy"},
        {"lambda": True},
        {"lambda": "0.4"},
        {"A": [[1.0, 0.0], ["1", 1.0]]},
        {"A": [[True, 0.0], [0.0, 1.0]]},
        {"b": ["1", -3.0]},
        {"b": [3.0, True]},
        {"lambda": 10**400},
    ],
)
def test_resolve_rejects_bad_lasso_files(tmp_path, change):
    payload = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [3.0, -3.0], "lambda": 1.0, **change}
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidProblemError):
        resolve_problem(f"lasso:{path}")
