import math

import numpy as np
import pytest

import accelcert as ac
from accelcert.errors import ParameterError, StepSizeError
from accelcert.proximal import composite_fundamental_slack, composite_key_slack, prox_step


def zero_quad(coeffs):
    oracle, optimum = ac.make_quadratic(coeffs)
    return ac.as_composite(oracle), optimum


def one_d_lasso(b, lam):
    # f(x) = 0.5 (x - b)^2, so L = 1 and any s in (0, 1) is admissible.
    return ac.make_lasso(np.eye(1), [b], lam, ref_iters=2000)[0]


def test_soft_threshold_shrinks():
    assert ac.soft_threshold([2.0], 0.5) == pytest.approx([1.5])


def test_soft_threshold_exact_zeros_inside_kink():
    out = ac.soft_threshold([0.3, -0.3], 0.5)
    assert np.all(out == 0.0)


def test_soft_threshold_zero_level_is_identity():
    assert np.array_equal(ac.soft_threshold([-1.0, 4.0], 0.0), [-1.0, 4.0])


def test_soft_threshold_rejects_negative_level():
    with pytest.raises(ParameterError):
        ac.soft_threshold([1.0], -0.1)


def test_soft_threshold_rejects_nan_level():
    with pytest.raises(ParameterError, match="threshold must be a real number >= 0"):
        ac.soft_threshold([1.0], math.nan)


def test_prox_value_zero_regularizer_is_gradient_step(quad2d):
    problem, _ = zero_quad([1.0])
    assert ac.prox_value(problem, [1.0], 0.25) == pytest.approx([0.5], rel=1e-15)
    # A smooth oracle is taken as itself with the zero regularizer.
    oracle, _ = quad2d
    x, s = np.array([0.7, -1.3]), 0.4
    step = x - s * oracle.gradient(x)
    assert np.array_equal(ac.prox_value(oracle, x, s), step)
    assert ac.prox_bruteforce(oracle, x, s) == pytest.approx(step, abs=1e-6)


def test_prox_value_l1_soft_thresholds_gradient_step():
    problem = one_d_lasso(3.0, 1.0)
    # grad f(3) = 0, so the gradient point is 3 and soft(3, 0.5) = 2.5.
    assert ac.prox_value(problem, [3.0], 0.5) == pytest.approx([2.5], rel=1e-15)


def test_prox_value_fixes_minimizer():
    problem, optimum = zero_quad([1.0, 2.0])
    assert np.array_equal(ac.prox_value(problem, optimum.x_star, 0.2), optimum.x_star)


@pytest.mark.parametrize("s", [0.0, -0.1, 0.5, 0.7])
def test_prox_value_rejects_steps_outside_open_interval(s):
    problem, _ = zero_quad([1.0])  # 1/L = 0.5; equality s = 1/L must be rejected
    with pytest.raises(StepSizeError):
        ac.prox_value(problem, [1.0], s)


def test_prox_subgradient_reduces_to_gradient_bitwise():
    problem, _ = zero_quad([0.7, 1.3])
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-6.0, 6.0, 2)
        s = float(rng.uniform(0.01, 0.99)) / problem.smooth.lipschitz
        assert np.array_equal(
            ac.prox_subgradient(problem, x, s), problem.smooth.gradient(x)
        )


def test_prox_subgradient_l1_example():
    problem = one_d_lasso(3.0, 1.0)
    # (3 - 2.5) / 0.5 = 1
    assert ac.prox_subgradient(problem, [3.0], 0.5) == pytest.approx([1.0], rel=1e-15)


def test_prox_subgradient_vanishes_at_reference_optimum(identity_lasso):
    problem, optimum = identity_lasso
    g = ac.prox_subgradient(problem, optimum.x_star, 0.5)
    assert np.linalg.norm(g) <= 1e-10


def test_prox_eval_l1_bit_identity():
    for weight in (0.0, 0.8):
        problem = one_d_lasso(1.5, weight)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, 1)
            s = float(rng.uniform(0.05, 0.95))
            p, g = ac.prox_eval(problem, x, s)
            # The checked entry returns the kernel's pair, bit for bit.
            want_p, want_g = prox_step(ac.as_composite(problem), x, s)
            assert p.tobytes() == want_p.tobytes() and g.tobytes() == want_g.tobytes()
            assert ac.prox_value(problem, x, s).tobytes() == p.tobytes()
            assert ac.prox_subgradient(problem, x, s).tobytes() == g.tobytes()
            if weight > 0.0:
                assert np.array_equal(g, (x - p) / s)


def test_bruteforce_matches_soft_threshold_example():
    problem = one_d_lasso(2.0, 1.0)
    # At x = b the gradient vanishes, so the grid oracle minimizes
    # 0.5/s (y - 2)^2 + |y| like the closed form does.
    grid = ac.prox_bruteforce(problem, [2.0], 0.5, grid_step=1e-6)
    assert grid == pytest.approx([1.5], abs=1e-6)


def test_bruteforce_zero_weight_matches_gradient_step():
    problem = one_d_lasso(2.0, 0.0)
    grid = ac.prox_bruteforce(problem, [0.5], 0.25, grid_step=1e-6)
    assert grid == pytest.approx(ac.prox_value(problem, [0.5], 0.25), abs=1e-6)


def test_bruteforce_matches_closed_form_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        A = np.diag(rng.uniform(0.5, 2.0, d))
        b = rng.uniform(-3.0, 3.0, d)
        lam = float(rng.uniform(0.0, 2.0))
        problem = ac.make_lasso(A, b, lam, ref_iters=1)[0]
        s = float(rng.uniform(0.05, 0.99)) / problem.smooth.lipschitz
        x = rng.uniform(-4.0, 4.0, d)
        closed = ac.prox_value(problem, x, s)
        grid = ac.prox_bruteforce(problem, x, s, grid_step=1e-6)
        assert np.max(np.abs(closed - grid)) <= 2e-6


def test_bruteforce_rejects_bad_grid():
    problem = one_d_lasso(1.0, 1.0)
    with pytest.raises(ParameterError):
        ac.prox_bruteforce(problem, [1.0], 0.5, grid_step=0.0)


def test_composite_inequalities_hold_on_random_samples(identity_lasso):
    problem, optimum = identity_lasso
    rng = np.random.default_rng(8)
    lipschitz = problem.smooth.lipschitz
    for _ in range(100):
        x = rng.uniform(-6.0, 6.0, 2)
        y = rng.uniform(-6.0, 6.0, 2)
        s = float(rng.uniform(0.01, 0.999)) / lipschitz
        assert composite_fundamental_slack(problem, x, y, s) >= -1e-9
        assert composite_key_slack(problem, y, s, optimum.f_star) >= -1e-9
