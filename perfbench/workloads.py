"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

A workload turns a seed into the argument lists of ``accelcert`` CLI calls
and the checks each call's outputs must pass. The program sees only the
generated flags and files; the seed never reaches it.

Workloads and why they were chosen:

- ``quad-cert``: the write path of a typical run (run, certify, JSON trace
  and certificate) over the five certifiable schemes.
- ``recertify``: the read path (load a JSON trace, certify it) with no
  stepping, on the traces ``quad-cert``'s calls write during set-up.
- ``lasso-cert``: a seeded 5x5 lasso whose optimum is pinned by the
  reference solve inside problem construction, the slowest layer.
- ``diag50-csv``: the CSV path and the three non-certifiable schemes at the
  desk-scale maximum dimension d = 50.

BENCHMARK.json lists ``quad-cert`` and ``lasso-cert`` only. A
``lasso-cert`` call takes several seconds, so a steady median needs runs
of about a minute, and at that length four workloads do not fit the run
budget; ``recertify`` and ``diag50-csv`` stay runnable by name.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NAMES = ("quad-cert", "recertify", "lasso-cert", "diag50-csv")

#: The five schemes the certificates cover.
CERT_ALGOS = ("nag", "nag-phase", "m-nag", "fista", "m-fista")
LASSO_ALGOS = ("fista", "m-fista")
DIAG_ALGOS = ("gd", "nag-sc", "m-nag-sc")

QUAD_N = 5000
LASSO_N = 500
QUAD_STEP = 0.4
LASSO_DIM = 5
LASSO_LAMBDA = 0.4

QUAD2D_COEFFS = np.array([5e-3, 1.0])
#: 50 coefficients geometric from 5e-3 to 1, so mu and L match quad2d's.
DIAG50_COEFFS = np.geomspace(5e-3, 1.0, 50)
DIAG50_SPEC = "quad-diag:" + ",".join(repr(float(c)) for c in DIAG50_COEFFS)

#: Relative slack for f - f_gap == phi(x*): a few ulps of |f| plus the
#: error of an optimum pinned to rounding level.
F_STAR_RTOL = 1e-10
#: Largest KKT residual accepted for a pinned lasso optimum.
KKT_TOL = 1e-9


@dataclass
class Call:
    """One CLI call: its argument list and the checks its outputs must pass."""

    argv: list[str]
    checks: list[Callable[[], str | None]] = field(default_factory=list)

    def verify(self, code: int) -> list[str]:
        """Return every failed check; exit code first, files only on success."""
        if code != 0:
            return [f"exit code {code}"]
        return [msg for msg in (check() for check in self.checks) if msg]


@dataclass
class Workload:
    """A named workload bound to a seed and a work directory."""

    name: str
    problem: str
    iters: int
    #: Calls that produce this workload's inputs, made once before timing.
    setup_calls: list[Call]
    #: Returns the next cycle of calls; every cycle visits each scheme once.
    next_cycle: Callable[[], list[Call]]
    #: KKT residual of a candidate minimizer, computed from the problem data.
    kkt: Callable[[np.ndarray], float]
    #: Format of the trace files the calls write or read.
    trace_format: str = "json"


def fmt_vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def lasso_instance(seed: int):
    """Seeded 5x5 instance: A = I + 0.25 N(0,1), b ~ U(-2, 2), lambda 0.4."""
    rng = np.random.default_rng(seed)
    A = np.eye(LASSO_DIM) + 0.25 * rng.standard_normal((LASSO_DIM, LASSO_DIM))
    b = rng.uniform(-2.0, 2.0, LASSO_DIM)
    return A, b, LASSO_LAMBDA


def lasso_phi(A, b, lam, x) -> float:
    r = A @ x - b
    return float(0.5 * np.dot(r, r) + lam * np.sum(np.abs(x)))


def lasso_exact(A, b, lam) -> np.ndarray:
    """Exact lasso minimizer by enumerating every sign pattern.

    For each pattern in {-1, 0, 1}^d the stationarity system on its support
    A_S^T A_S x_S = A_S^T b - lam sign_S gives a point; every such point has
    phi >= phi*, and the true pattern's point is the minimizer, so the
    candidate with the least phi is x*. Independent of the program's solver.
    """
    d = A.shape[1]
    AtA, Atb = A.T @ A, A.T @ b
    best, best_phi = np.zeros(d), lasso_phi(A, b, lam, np.zeros(d))
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=d):
        sign = np.array(signs)
        support = sign != 0.0
        if not support.any():
            continue
        x = np.zeros(d)
        x[support] = np.linalg.solve(
            AtA[np.ix_(support, support)], Atb[support] - lam * sign[support]
        )
        phi = lasso_phi(A, b, lam, x)
        if phi < best_phi:
            best, best_phi = x, phi
    return best


def kkt_residual(A, b, lam, x) -> float:
    """Largest violation of 0 in grad f(x) + lam * subdiff ||x||_1."""
    g = A.T @ (A @ x - b)
    on = x != 0.0
    resid = np.where(on, np.abs(g + lam * np.sign(x)), np.maximum(np.abs(g) - lam, 0.0))
    return float(resid.max())


def quadratic_kkt(coeffs):
    """Residual ||grad f(x)||_inf of f(x) = sum c_i x_i^2."""
    return lambda x: float(np.max(np.abs(2.0 * coeffs * x)))


# Output checks. Each returns None when the check passes, else a message.


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh), None
    except (OSError, ValueError) as exc:
        return None, f"{os.path.basename(path)}: {exc}"


def check_json_trace(path: str, iters: int, f_star: float):
    def check():
        payload, err = _read_json(path)
        if err:
            return err
        records = payload.get("records", [])
        if len(records) != iters + 1:
            return f"trace has {len(records)} records, expected {iters + 1}"
        for rec in records:
            f = rec["f"]
            if abs((f - rec["f_gap"]) - f_star) > F_STAR_RTOL * (1.0 + abs(f)):
                return f"record {rec['k']}: f - f_gap = {f - rec['f_gap']!r}, phi(x*) = {f_star!r}"
        return None
    return check


def check_csv_trace(path: str, iters: int, dim: int):
    def check():
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return str(exc)
        if len(rows) != iters + 2:
            return f"CSV has {len(rows)} lines, expected header + {iters + 1}"
        width = 3 + 2 * dim + 3
        if any(len(row) != width for row in rows):
            return f"CSV rows must have {width} columns"
        if any(float(row[1]) < 0.0 for row in rows[1:]):
            return "negative f_gap on a quadratic with f* = 0"
        return None
    return check


def check_certificate(path: str):
    def check():
        payload, err = _read_json(path)
        if err:
            return err
        return None if payload.get("pass") is True else "certificate does not pass"
    return check


def check_same_bytes(path: str, reference: str):
    def check():
        try:
            with open(path, "rb") as fh, open(reference, "rb") as ref:
                same = fh.read() == ref.read()
        except OSError as exc:
            return str(exc)
        return None if same else "re-certified certificate differs from the run's"
    return check


def _run_call(problem, algo, iters, step, r, x0, trace, cert, f_star):
    argv = ["run", "--problem", problem, "--algo", algo, "--step", repr(step),
            "--iters", str(iters), f"--x0={fmt_vec(x0)}", "--trace-out", trace]
    if r is not None:
        argv += ["--r", repr(r)]
    checks = []
    if cert is not None:
        argv += ["--certify", "--format", "json", "--certificate-out", cert]
        checks = [check_json_trace(trace, iters, f_star), check_certificate(cert)]
    return Call(argv, checks)


def make(name: str, seed: int, workdir: str, iters: int | None = None) -> Workload:
    """Build workload ``name`` for ``seed``; its files live in ``workdir``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    start = np.random.default_rng([seed, NAMES.index(name)])

    def path(*parts):
        return os.path.join(workdir, "-".join(parts))

    if name == "diag50-csv":
        n = iters or QUAD_N

        def diag_call(algo, x0):
            out = path(algo, "trace.csv")
            call = _run_call(DIAG50_SPEC, algo, n, QUAD_STEP, None, x0, out, None, 0.0)
            call.checks.append(check_csv_trace(out, n, 50))
            return call

        return Workload(
            name, DIAG50_SPEC, n, [],
            lambda: [diag_call(algo, start.uniform(-1.0, 1.0, 50)) for algo in DIAG_ALGOS],
            quadratic_kkt(DIAG50_COEFFS), "csv",
        )

    if name == "lasso-cert":
        n = iters or LASSO_N
        A, b, lam = lasso_instance(seed)
        lasso_file = path("lasso.json")
        with open(lasso_file, "w") as fh:
            json.dump({"A": A.tolist(), "b": b.tolist(), "lambda": lam}, fh)
        problem = f"lasso:{lasso_file}"
        step = 0.9 / float(np.linalg.eigvalsh(A.T @ A)[-1])
        f_star = lasso_phi(A, b, lam, lasso_exact(A, b, lam))

        def lasso_call(algo, x0):
            return _run_call(problem, algo, n, step, 3.0, x0, path(algo, "trace.json"),
                             path(algo, "cert.json"), f_star)

        return Workload(
            name, problem, n, [],
            lambda: [lasso_call(algo, start.uniform(-1.0, 1.0, LASSO_DIM))
                     for algo in LASSO_ALGOS],
            lambda x: kkt_residual(A, b, lam, x),
        )

    n = iters or QUAD_N

    def quad_call(algo, x0):
        return _run_call("quad2d", algo, n, QUAD_STEP, 2.0, x0, path(algo, "trace.json"),
                         path(algo, "cert.json"), 0.0)

    def quad_cycle():
        return [quad_call(algo, start.uniform(-2.0, 2.0, 2)) for algo in CERT_ALGOS]

    kkt = quadratic_kkt(QUAD2D_COEFFS)
    if name == "quad-cert":
        return Workload(name, "quad2d", n, [], quad_cycle, kkt)

    # recertify: certify the traces that one quad-cert cycle writes in set-up.
    def recertify_call(algo):
        out = path(algo, "recert.json")
        return Call(
            ["certify", "--trace", path(algo, "trace.json"), "--problem", "quad2d", "--out", out],
            [check_certificate(out), check_same_bytes(out, path(algo, "cert.json"))],
        )

    return Workload(name, "quad2d", n, quad_cycle(),
                    lambda: [recertify_call(algo) for algo in CERT_ALGOS], kkt)
