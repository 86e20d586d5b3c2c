"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test results.
"""

import time

import numpy as np
from conftest import LASSO5_A, LASSO5_B, LASSO5_LAM

import accelcert as ac
from accelcert.proximal import composite_fundamental_slack, composite_key_slack

S, R = 0.4, 2.0


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" {detail}" if detail else ""))
    assert ok, f"{name} failed {detail}"


def quad_trace(oracle, algo, iters, r=R, s=S):
    params = ac.RunParams(algo=algo, step=s, iters=iters,
                          momentum_r=r if algo in ac.algorithms.R_FAMILY_ALGOS else None)
    return ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")


def test_c01_mnag_monotone(quad2d):
    t0 = time.perf_counter()
    trace = quad_trace(quad2d[0], "m-nag", 500)
    diffs = np.diff(trace.f_values())
    dt = time.perf_counter() - t0
    ok = bool(np.all(diffs <= 0.0)) and dt < 1.0
    report("C1 m-nag monotone over 500 iterations", ok, f"({dt:.2f}s)")


def test_c02_nag_oscillates(quad2d):
    t0 = time.perf_counter()
    trace = quad_trace(quad2d[0], "nag", 500)
    f = trace.f_values()
    increases = np.nonzero(np.diff(f[:201]) > 0.0)[0]
    dt = time.perf_counter() - t0
    ok = increases.size > 0 and dt < 1.0
    report("C2 nag non-monotone within k <= 200", ok,
           f"(first increase at k={increases[0] + 1 if increases.size else '-'}, {dt:.2f}s)")


def test_c03_rate_bound_nag(quad2d):
    oracle, optimum = quad2d
    t0 = time.perf_counter()
    ok = True
    for r in (2.0, 3.0, 4.0):
        trace = quad_trace(oracle, "nag", 500, r=r)
        big_k = ac.threshold_K(r)
        f1_gap = trace.records[1].f_or_phi_at_x - optimum.f_star
        d1 = trace.records[1].x - optimum.x_star
        dist_sq = float(np.dot(d1, d1))
        for k in range(max(1, big_k), 501):
            gap = trace.records[k].f_or_phi_at_x - optimum.f_star
            bound = ac.theorem_bound(k, r, S, oracle.mu, oracle.lipschitz,
                                     f1_gap, dist_sq)
            ok = ok and gap <= bound * (1.0 + 1e-8) + 1e-12
    dt = time.perf_counter() - t0
    ok = ok and dt < 2.0
    report("C3 rate bound for nag, r in {2,3,4}", ok, f"({dt:.2f}s)")


def test_c04_rate_bound_mnag_xy_pipeline(quad2d):
    oracle, optimum = quad2d
    t0 = time.perf_counter()
    trace = quad_trace(oracle, "m-nag", 500)
    cert = ac.certify(trace, oracle, optimum, form="xy")
    dt = time.perf_counter() - t0
    ok = all(row.bound_ok for row in cert.rows) and cert.overall_pass and dt < 2.0
    report("C4 rate bound for m-nag (xy pipeline)", ok, f"(K={cert.threshold_K}, {dt:.2f}s)")


def test_c05_energy_decrease(quad2d):
    oracle, optimum = quad2d
    shrink = 1.0 + oracle.mu * S * (1.0 - oracle.lipschitz * S) / 4.0
    t0 = time.perf_counter()
    ok = True
    for algo, form in (("nag", "velocity"), ("m-nag", "xy")):
        trace = quad_trace(oracle, algo, 500)
        big_k = ac.threshold_K(R)
        totals = [ac.energy(trace, k, S, R, optimum, form).total for k in range(500)]
        for k in range(big_k, 499):
            ok = ok and totals[k + 1] <= (totals[k] / shrink) * (1.0 + 1e-8)
    dt = time.perf_counter() - t0
    ok = ok and dt < 2.0
    report("C5 per-step energy decrease (nag, m-nag)", ok, f"({dt:.2f}s)")


def test_c06_sequence_identity(quad2d, lasso5):
    oracle, _ = quad2d
    problem, _ = lasso5
    s_lasso = 0.9 / problem.smooth.lipschitz
    traces = [
        (quad_trace(oracle, "nag", 500), S),
        (ac.run(ac.as_composite(oracle),
                ac.RunParams(algo="fista", step=S, iters=500, momentum_r=R),
                [1.0, 1.0]), S),
        (ac.run(problem,
                ac.RunParams(algo="fista", step=s_lasso, iters=500, momentum_r=R),
                np.ones(5)), s_lasso),
    ]
    worst = 0.0
    for trace, s in traces:
        for k in range(len(trace.records)):
            s_vec = ac.seq_S(trace, k, s, R)
            t_vec = ac.seq_T(trace, k, s, R)
            dev = np.linalg.norm(s_vec - t_vec) / (1.0 + np.linalg.norm(s_vec))
            worst = max(worst, dev)
    report("C6 S_k = T_k identity on nag and fista traces", worst <= 1e-10,
           f"(worst {worst:.2e})")


def test_c07_phase_space_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.1, 5.0, dim)
        oracle, _ = ac.make_quadratic(coeffs)
        s = float(rng.uniform(0.2, 0.95)) / oracle.lipschitz
        r = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        x0 = rng.uniform(-3.0, 3.0, dim)
        pa = ac.RunParams(algo="nag", step=s, iters=100, momentum_r=r)
        pb = ac.RunParams(algo="nag-phase", step=s, iters=100, momentum_r=r)
        ta = ac.run(oracle, pa, x0)
        tb = ac.run(oracle, pb, x0)
        for ra, rb in zip(ta.records, tb.records):
            scale = 1.0 + np.linalg.norm(ra.x)
            worst = max(worst, np.linalg.norm(ra.x - rb.x) / scale)
            worst = max(worst, np.linalg.norm(ra.y - rb.y) / scale)
    report("C7 phase-space equivalence on 10 random quadratics", worst <= 1e-10,
           f"(worst {worst:.2e})")


def test_c08_prox_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        A = np.diag(rng.uniform(0.3, 2.5, dim))
        b = rng.uniform(-3.0, 3.0, dim)
        lam = float(rng.uniform(0.0, 2.0))
        problem = ac.make_lasso(A, b, lam, ref_iters=1)[0]
        s = float(rng.uniform(0.05, 0.99)) / problem.smooth.lipschitz
        x = rng.uniform(-4.0, 4.0, dim)
        closed = ac.prox_value(problem, x, s)
        grid = ac.prox_bruteforce(problem, x, s, grid_step=1e-6)
        worst = max(worst, float(np.max(np.abs(closed - grid))))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-6 and dt < 5.0
    report("C8 soft-threshold prox vs grid oracle (100 instances)", ok,
           f"(worst {worst:.2e}, {dt:.2f}s)")


def test_c09_composite_rate_bounds():
    t0 = time.perf_counter()
    problem, optimum = ac.make_lasso(LASSO5_A, LASSO5_B, LASSO5_LAM)  # 1e6-step reference
    oracle = problem.smooth
    s = 0.9 / oracle.lipschitz
    ok = True
    for algo in ("fista", "m-fista"):
        params = ac.RunParams(algo=algo, step=s, iters=500, momentum_r=R)
        trace = ac.run(problem, params, np.ones(5), problem_id="lasso5")
        f1_gap = trace.records[1].f_or_phi_at_x - optimum.f_star
        d1 = trace.records[1].x - optimum.x_star
        dist_sq = float(np.dot(d1, d1))
        for k in range(1, 501):
            gap = trace.records[k].f_or_phi_at_x - optimum.f_star
            bound = ac.theorem_bound(k, R, s, oracle.mu, oracle.lipschitz,
                                     f1_gap, dist_sq)
            ok = ok and gap <= bound * (1.0 + 1e-6) + 1e-9
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    report("C9 rate bounds for fista/m-fista on 5x5 lasso", ok, f"({dt:.2f}s)")


def test_c10_inequality_suites(quad2d, lasso5):
    oracle, optimum = quad2d
    problem, lasso_opt = lasso5
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-8.0, 8.0, 2)
        y = rng.uniform(-8.0, 8.0, 2)
        s = float(rng.uniform(0.01, 0.999)) / oracle.lipschitz
        worst = min(worst, composite_fundamental_slack(oracle, x, y, s))
        worst = min(worst, composite_key_slack(oracle, y, s, optimum.f_star))
    for _ in range(100):
        x = rng.uniform(-4.0, 4.0, 5)
        y = rng.uniform(-4.0, 4.0, 5)
        s = float(rng.uniform(0.01, 0.999)) / problem.smooth.lipschitz
        worst = min(worst, composite_fundamental_slack(problem, x, y, s))
        worst = min(worst, composite_key_slack(problem, y, s, lasso_opt.f_star))
    report("C10 fundamental/key inequalities and their proximal lemmas",
           worst >= -1e-9, f"(worst slack {worst:.2e})")


def test_c11_strongly_convex_family(quad2d):
    oracle, _ = quad2d
    t0 = time.perf_counter()
    msc = quad_trace(oracle, "m-nag-sc", 2000, s=0.01)
    monotone = bool(np.all(np.diff(msc.f_values()) <= 0.0))

    def first_hit(trace, level=1e-4):
        idx = np.nonzero(trace.f_values() <= level)[0]
        return int(idx[0]) if idx.size else None

    sc_hit = first_hit(quad_trace(oracle, "nag-sc", 2000, s=0.01))
    msc_hit = first_hit(msc)
    gd_hit = first_hit(quad_trace(oracle, "gd", 25_000, s=0.01))
    dt = time.perf_counter() - t0
    ok = (
        monotone
        and sc_hit is not None
        and msc_hit is not None
        and gd_hit is not None
        and sc_hit < gd_hit
        and msc_hit < gd_hit
        and dt < 2.0
    )
    report("C11 m-nag-sc monotone; accelerated pair beats gd to 1e-4", ok,
           f"(hits: nag-sc {sc_hit}, m-nag-sc {msc_hit}, gd {gd_hit}, {dt:.2f}s)")


def test_c12_zero_regularizer_collapse(quad2d):
    oracle, _ = quad2d
    composite = ac.as_composite(oracle)
    worst = 0.0
    for prox_algo, smooth_algo in (("fista", "nag"), ("m-fista", "m-nag")):
        pa = ac.RunParams(algo=prox_algo, step=S, iters=500, momentum_r=R)
        pb = ac.RunParams(algo=smooth_algo, step=S, iters=500, momentum_r=R)
        ta = ac.run(composite, pa, [1.0, 1.0])
        tb = ac.run(oracle, pb, [1.0, 1.0])
        for ra, rb in zip(ta.records, tb.records):
            worst = max(worst, float(np.max(np.abs(ra.x - rb.x))))
            worst = max(worst, float(np.max(np.abs(ra.y - rb.y))))
    report("C12 fista==nag and m-fista==m-nag when g is zero", worst <= 1e-14,
           f"(worst {worst:.2e})")
