"""Proximal-gradient warm start for the lasso optimum (numpy)."""

import numpy as np


def backend_name():
    return "python"


def ista_solve(AtA, Atb, lam, s, x0, iters):
    """Run ``iters`` proximal-gradient steps x <- soft(x - s*(AtA x - Atb), lam*s).

    Gradient of the least-squares term is expressed through the precomputed
    normal-equation pieces AtA and Atb, so one iteration is a d x d matvec
    plus a componentwise shrinkage.
    """
    x = np.array(x0, dtype=float)
    thresh = lam * s
    for _ in range(iters):
        u = x - s * (AtA @ x - Atb)
        x = np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)
    return x
