import numpy as np
import pytest

import accelcert as ac

# Fixed 5x5 full-rank lasso instance (cond(A^T A) ~ 7.4, optimum has one
# exact zero so the shrinkage is active).
LASSO5_A = [
    [0.644, 0.316, -0.218, -0.065, -0.019],
    [-0.185, 0.658, 0.162, 0.09, -0.488],
    [0.587, 0.242, 0.81, 0.226, -0.117],
    [-0.015, 0.197, -0.314, 1.144, 0.35],
    [0.331, -0.075, 0.226, -0.405, 0.96],
]
LASSO5_B = [1.263, -1.227, -1.482, -1.633, 0.394]
LASSO5_LAM = 0.4


@pytest.fixture(scope="session")
def quad2d():
    """The figure quadratic f(x1, x2) = 5e-3 x1^2 + x2^2 with its optimum."""
    return ac.make_quadratic((5e-3, 1.0))


@pytest.fixture(scope="session")
def lasso5():
    """The 5x5 lasso instance with its optimum solved on the sign pattern."""
    return ac.make_lasso(LASSO5_A, LASSO5_B, LASSO5_LAM)


@pytest.fixture(scope="session")
def identity_lasso():
    """Tiny separable lasso: A = I2, b = (3, -3), lambda = 1, x* = (2, -2)."""
    return ac.make_lasso(np.eye(2), [3.0, -3.0], 1.0, ref_iters=50_000)
