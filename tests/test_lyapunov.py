import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import accelcert as ac
from accelcert import lyapunov as ly
from accelcert.algorithms import SCHEMES
from accelcert.errors import ParameterError, StepSizeError


S, R = 0.4, 2.0
CERTIFIABLE = [algo for algo, row in SCHEMES.items() if row.certifiable]


@pytest.fixture(scope="module")
def nag_trace(quad2d):
    params = ac.RunParams(algo="nag", step=S, iters=200, momentum_r=R)
    return ac.run(quad2d[0], params, [1.0, 1.0], problem_id="quad2d")


@pytest.fixture(scope="module")
def mnag_trace(quad2d):
    params = ac.RunParams(algo="m-nag", step=S, iters=200, momentum_r=R)
    return ac.run(quad2d[0], params, [1.0, 1.0], problem_id="quad2d")


@pytest.fixture(scope="module")
def stationary_trace(quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=S, iters=20, momentum_r=R)
    return ac.run(oracle, params, optimum.x_star)


def test_seq_r_at_start(nag_trace):
    # v0 = 0 kills the velocity term, leaving r*x0.
    assert ac.seq_R(nag_trace, 0, S, R) == pytest.approx([2.0, 2.0], rel=1e-15)


def test_seq_r_at_k1(nag_trace):
    # (k-1) = 0 at k = 1, so R1 = r*x1 = 2*(0.996, 0.2).
    assert ac.seq_R(nag_trace, 1, S, R) == pytest.approx([1.992, 0.4], rel=1e-14)


def test_seq_s_hand_value(nag_trace):
    # S0 = R0 - (0+r)*s*grad f(y0) = (2,2) - 0.8*(0.01, 2).
    assert ac.seq_S(nag_trace, 0, S, R) == pytest.approx([1.992, 0.4], rel=1e-14)


def test_seq_t_hand_value(nag_trace):
    # T0 = 2*y0 - 0*x0 - 0.8*grad f(y0), same vector as S0.
    assert ac.seq_T(nag_trace, 0, S, R) == pytest.approx([1.992, 0.4], rel=1e-14)


def test_sequences_on_stationary_trace(stationary_trace):
    for k in (0, 3, 20):
        assert np.all(ac.seq_R(stationary_trace, k, S, R) == 0.0)
        assert np.all(ac.seq_S(stationary_trace, k, S, R) == 0.0)
        assert np.all(ac.seq_T(stationary_trace, k, S, R) == 0.0)


def test_s_equals_t_along_nag_trace(nag_trace):
    for k in range(len(nag_trace.f)):
        s_vec = ac.seq_S(nag_trace, k, S, R)
        t_vec = ac.seq_T(nag_trace, k, S, R)
        assert np.linalg.norm(s_vec - t_vec) <= 1e-10 * (1.0 + np.linalg.norm(s_vec))


def test_mnag_t_matches_s_with_relation_velocity(mnag_trace):
    # On a monotone trace the stored v does not satisfy the position-velocity
    # relation, but substituting the velocity that does reproduces T_k.
    k = 5
    x, y, m = mnag_trace.x[k], mnag_trace.y[k], mnag_trace.map[k]
    v_hat = (y - x) * (k + R) / ((k - 1.0) * math.sqrt(S))
    s_vec = (k - 1.0) * math.sqrt(S) * v_hat + R * x - (k + R) * S * m
    t_vec = ac.seq_T(mnag_trace, k, S, R)
    assert np.linalg.norm(s_vec - t_vec) <= 1e-10 * (1.0 + np.linalg.norm(t_vec))


def test_sequence_range_check(nag_trace):
    with pytest.raises(IndexError):
        ac.seq_R(nag_trace, len(nag_trace.f), S, R)


def test_per_k_reads_leave_trace_records_unbuilt(quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=S, iters=20, momentum_r=R)
    trace = ac.run(oracle, params, [1.0, 1.0])
    for k in (0, 7, 20):
        ac.seq_R(trace, k, S, R)
        ac.seq_T(trace, k, S, R)
    ac.energy(trace, 19, S, R, optimum, "auto")
    ac.certify(trace, oracle, optimum)
    assert "records" not in vars(trace)
    for k in (-1, 21):
        for seq in (ac.seq_R, ac.seq_S, ac.seq_T):
            with pytest.raises(IndexError, match=f"k={k} outside trace range 0..20"):
                seq(trace, k, S, R)
    for k, bad in ((-1, -1), (20, 21), (21, 21)):
        with pytest.raises(IndexError, match=f"k={bad} outside trace range 0..20"):
            ac.energy(trace, k, S, R, optimum, "auto")


def test_energy_hand_values_at_zero(nag_trace, quad2d):
    breakdown = ac.energy(nag_trace, 0, S, R, quad2d[1], "velocity")
    assert breakdown.tau == pytest.approx(3.0)
    assert breakdown.potential == pytest.approx(0.053952096, rel=1e-12)
    assert breakdown.mixed == pytest.approx(2.064032, rel=1e-12)
    assert breakdown.total == pytest.approx(0.053952096 + 2.064032, rel=1e-12)


def test_energy_zero_on_stationary_trace(stationary_trace, quad2d):
    for k in range(10):
        assert ac.energy(stationary_trace, k, S, R, quad2d[1], "velocity").total == 0.0


def test_energy_forms_agree_on_nag(nag_trace, quad2d):
    for k in range(len(nag_trace.f) - 1):
        velocity = ac.energy(nag_trace, k, S, R, quad2d[1], "velocity").total
        xy = ac.energy(nag_trace, k, S, R, quad2d[1], "xy").total
        assert abs(velocity - xy) <= 1e-10 * (1.0 + abs(velocity))


def test_energy_nonnegative_on_analytic_traces(nag_trace, mnag_trace, quad2d):
    for trace, form in ((nag_trace, "velocity"), (mnag_trace, "xy")):
        for k in range(len(trace.f) - 1):
            assert ac.energy(trace, k, S, R, quad2d[1], form).total >= -1e-12


def test_energy_nearly_nonnegative_with_reference_optimum(lasso5):
    # A reference-run phi* can sit a few ulps above late iterates, and the
    # growing tau(k) amplifies that; the slack matches the reference-run
    # certification tolerance.
    problem, optimum = lasso5
    s = 0.9 / problem.smooth.lipschitz
    params = ac.RunParams(algo="fista", step=s, iters=300, momentum_r=R)
    trace = ac.run(problem, params, np.ones(5))
    for k in range(300):
        assert ac.energy(trace, k, s, R, optimum, "velocity").total >= -1e-9


def test_energy_auto_form_is_the_resolved_form(nag_trace, mnag_trace, quad2d):
    # "auto" names the velocity-free energy on every scheme.
    for trace in (nag_trace, mnag_trace):
        for k in range(len(trace.f) - 1):
            auto = ac.energy(trace, k, S, R, quad2d[1], "auto")
            assert auto == ac.energy(trace, k, S, R, quad2d[1], "xy")


def test_energy_velocity_form_rejected_for_monotone(mnag_trace, quad2d):
    with pytest.raises(ParameterError):
        ac.energy(mnag_trace, 0, S, R, quad2d[1], "velocity")


def test_energy_argument_errors(nag_trace, quad2d):
    with pytest.raises(IndexError):
        ac.energy(nag_trace, len(nag_trace.f) - 1, S, R, quad2d[1], "xy")
    with pytest.raises(ParameterError):
        ac.energy(nag_trace, 0, S, R, None, "xy")
    with pytest.raises(ParameterError):
        ac.energy(nag_trace, 0, S, R, quad2d[1], "kinetic")
    with pytest.raises(ParameterError, match="form must be 'auto' or 'xy', got 'kinetic'"):
        ac.certify(nag_trace, *quad2d, form="kinetic")
    assert not hasattr(ly, "resolve_form")


@pytest.mark.parametrize("r,expected", [(2.0, 0), (3.0, 1), (4.0, 3)])
def test_threshold_values(r, expected):
    assert ac.threshold_K(r) == expected


def test_threshold_rejects_small_r():
    with pytest.raises(ParameterError):
        ac.threshold_K(1.9)


@pytest.mark.parametrize("r", [None, "3", True])
def test_threshold_rejects_an_r_that_is_not_a_real_number(r):
    with pytest.raises(ParameterError, match="must be a real number"):
        ac.threshold_K(r)


# From about 4.5e307, 3r^2 and 4r are both inf, and 3r^2 - 4r - 12 is NaN.
@pytest.mark.parametrize("r", [4.5e307, 1e308, math.nan])
def test_threshold_rejects_r_without_a_finite_K(r):
    with pytest.raises(ParameterError):
        ac.threshold_K(r)


def test_theorem_bound_hand_value(nag_trace, quad2d):
    oracle, optimum = quad2d
    x1 = nag_trace.x[1]
    f1_gap = float(nag_trace.f[1])
    dist_sq = float(np.dot(x1, x1))
    # Independent arithmetic: numerator 3*0.04496008 + 8*1.032016,
    # denominator 1*3*(1 + 0.2*0.004/4) at k = 1.
    assert f1_gap == pytest.approx(0.04496008, rel=1e-12)
    assert dist_sq == pytest.approx(1.032016, rel=1e-12)
    expected = (3.0 * 0.04496008 + 8.0 * 1.032016) / (3.0 * 1.0002)
    got = ac.theorem_bound(1, R, S, oracle.mu, oracle.lipschitz, f1_gap, dist_sq)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(8.39100824 / 3.0006, rel=1e-12)


def test_theorem_bound_limit_structure():
    # As L*s -> 1 the contraction factor collapses to 1 and only the
    # 1/(k(k+r)) decay remains.
    assert ly.rate_factor(0.5, 1.0 - 1e-13, 1.0) == pytest.approx(1.0, abs=1e-12)
    b1 = ac.theorem_bound(10, 2.0, 1.0 - 1e-13, 0.5, 1.0, 1.0, 1.0)
    assert b1 == pytest.approx((3.0 + 4.0) / (10.0 * 12.0), rel=1e-9)


def test_theorem_bound_zero_numerator():
    for k in (1, 5, 100):
        assert ac.theorem_bound(k, R, S, 0.01, 2.0, 0.0, 0.0) == 0.0


def test_theorem_bound_past_float_overflow_is_zero():
    # rate = 1.0625 (mu = L = 2, s = 0.25): rate**12000 is past 1.8e308.
    assert ac.theorem_bound(12000, 2, 0.25, 2, 2, 1, 1) == 0.0


def test_float64_rate_power_keeps_python_power_bits():
    # certify and theorem_bound take rate**k as a float64 power so that it
    # overflows to inf; below overflow it must be Python's power, bit for bit.
    rng = np.random.default_rng(41)
    rates = [ly.rate_factor(mu, s, 1.0) for mu, s in rng.uniform(1e-6, 1.0, (60, 2))]
    rates += [ly.rate_factor(1e-6, 0.5, 1.0), ly.rate_factor(1.0, 0.5, 1.0)]
    ks = list(range(1, 300)) + np.unique(np.geomspace(300, 60_000, 150).astype(int)).tolist()
    overflowed = 0
    with np.errstate(over="ignore"):
        for rate in rates:
            for k in ks:
                got = np.float64(rate) ** k
                try:
                    want = rate ** k
                except OverflowError:
                    assert got == np.inf
                    overflowed += 1
                    continue
                assert got.tobytes() == np.float64(want).tobytes(), (rate, k)
    assert overflowed > 0


def test_theorem_bound_rejects_k_zero():
    with pytest.raises(ParameterError):
        ac.theorem_bound(0, R, S, 0.01, 2.0, 1.0, 1.0)


def test_bound_strictly_decays(quad2d):
    oracle, _ = quad2d
    values = [
        ac.theorem_bound(k, R, S, oracle.mu, oracle.lipschitz, 1.0, 1.0)
        for k in range(1, 500)
    ]
    ratios = np.array(values[1:]) / np.array(values[:-1])
    assert np.all(ratios < 1.0)


def test_certify_passes_on_nag(nag_trace, quad2d):
    cert = ac.certify(nag_trace, quad2d[0], quad2d[1])
    assert cert.threshold_K == 0
    assert cert.overall_pass
    assert ly.first_failing_k(cert) is None
    assert len(cert.rows) == len(nag_trace.f)


def test_certify_passes_on_mnag_xy_form(mnag_trace, quad2d):
    cert = ac.certify(mnag_trace, quad2d[0], quad2d[1], form="xy")
    assert cert.overall_pass


def test_certify_stationary_trace(stationary_trace, quad2d):
    cert = ac.certify(stationary_trace, quad2d[0], quad2d[1])
    assert cert.overall_pass
    for row in cert.rows:
        assert row.f_gap == 0.0
        if row.bound is not None:
            assert row.bound >= 0.0


def test_certify_requires_certifiable_algorithm(quad2d):
    oracle, optimum = quad2d
    trace = ac.run(oracle, ac.RunParams(algo="gd", step=0.4, iters=10), [1.0, 1.0])
    with pytest.raises(ParameterError):
        ac.certify(trace, oracle, optimum)


def test_certify_refuses_the_velocity_energy(nag_trace, quad2d):
    with pytest.raises(ParameterError, match="velocity-free energy only"):
        ac.certify(nag_trace, *quad2d, form="velocity")


@pytest.mark.parametrize("algo", CERTIFIABLE)
def test_certify_auto_and_xy_give_the_same_certificate_bytes(quad2d, algo):
    trace = ac.run(quad2d[0], ac.RunParams(algo=algo, step=S, iters=100, momentum_r=R),
                   [1.0, 1.0])
    auto, xy = (json.dumps(ly.certificate_to_dict(ac.certify(trace, *quad2d, form=form)))
                for form in ("auto", "xy"))
    assert auto == xy


def test_certify_requires_an_optimum(nag_trace, quad2d):
    with pytest.raises(ParameterError, match="optimum"):
        ac.certify(nag_trace, quad2d[0], None)


def test_certify_requires_enough_records(quad2d):
    oracle, optimum = quad2d
    trace = ac.run(
        oracle, ac.RunParams(algo="nag", step=0.4, iters=1, momentum_r=2.0), [1.0, 1.0]
    )
    with pytest.raises(ParameterError):
        ac.certify(trace, oracle, optimum)


def test_certify_applies_the_step_check_of_run():
    # s = 0.4 is inside (0, 1/2) for quad-diag:1,1 but outside (0, 1/6) for
    # quad-diag:1,3, where run refuses it.
    oracle, _ = ac.make_quadratic((1.0, 1.0))
    trace = ac.run(oracle, ac.RunParams(algo="nag", step=0.4, iters=20, momentum_r=2.0),
                   [1.0, 1.0])
    steep, steep_optimum = ac.make_quadratic((1.0, 3.0))
    with pytest.raises(StepSizeError):
        ac.run(steep, trace.params, [1.0, 1.0])
    with pytest.raises(StepSizeError):
        ac.certify(trace, steep, steep_optimum)


def test_certify_flags_tampered_trace(nag_trace, quad2d):
    f = nag_trace.f.copy()
    f[7] += 1.0
    tampered = dataclasses.replace(nag_trace, f=f)
    cert = ac.certify(tampered, quad2d[0], quad2d[1])
    assert not cert.overall_pass
    assert ly.first_failing_k(cert) in (5, 6, 7)


def test_certificate_serialization_schema(nag_trace, quad2d):
    cert = ac.certify(nag_trace, quad2d[0], quad2d[1])
    payload = ly.certificate_to_dict(cert)
    assert set(payload) == {"K", "pass", "rows"}
    assert payload["K"] == 0 and payload["pass"] is True
    assert set(payload["rows"][0]) == {"k", "gap", "bound", "energy", "decrease_margin"}
    assert payload["rows"][0]["bound"] is None
    assert payload["rows"][-1]["energy"] is None


# --- whole-array certificate against the per-k API ---------------------------

DIAG50 = np.geomspace(5e-3, 1.0, 50)


def _per_k_case(name, quad2d, lasso5):
    if name == "quad2d":
        problem, optimum = quad2d
        return problem, optimum, S, R, [1.0, -0.5]
    if name == "diag50":
        problem, optimum = ac.make_quadratic(DIAG50)
        return problem, optimum, S, R, np.random.default_rng(50).uniform(-1.0, 1.0, 50)
    problem, optimum = lasso5
    return problem, optimum, 0.9 / problem.smooth.lipschitz, 3.0, np.ones(5)


@pytest.mark.parametrize(
    "name,algo",
    [(name, algo) for name in ("quad2d", "diag50") for algo in sorted(CERTIFIABLE)]
    + [("lasso5", "fista"), ("lasso5", "m-fista")],
)
def test_certificate_matches_per_k_api_bitwise(tmp_path, quad2d, lasso5, name, algo):
    from accelcert.harness import emit_trace

    problem, optimum, s, r, x0 = _per_k_case(name, quad2d, lasso5)
    params = ac.RunParams(algo=algo, step=s, iters=300, momentum_r=r)
    trace = ac.run(problem, params, x0, problem_id=name)
    cert = ac.certify(trace, problem, optimum)
    oracle = ac.problems.smooth_part(problem)
    f1_gap = float(trace.f[1]) - optimum.f_star
    diff1 = trace.x[1] - optimum.x_star
    dist_sq = float(np.dot(diff1, diff1))
    shrink = ly.rate_factor(oracle.mu, s, oracle.lipschitz)
    energies = [ly.energy(trace, k, s, r, optimum, "xy").total for k in range(300)]
    for k, row in enumerate(cert.rows):
        assert row.k == k
        assert row.f_gap == float(trace.f[k]) - optimum.f_star
        if k < 300:
            assert row.energy == energies[k]
        else:
            assert row.energy is None
        if k >= 1:
            assert row.bound == ac.theorem_bound(
                k, r, s, oracle.mu, oracle.lipschitz, f1_gap, dist_sq
            )
        else:
            assert row.bound is None
        if k < 299:
            assert row.decrease_margin == energies[k] / shrink - energies[k + 1]
        else:
            assert row.decrease_margin is None

    path = tmp_path / "t.json"
    emit_trace(trace, "json", str(path), optimum=optimum, certificate=cert)
    stored = json.loads(path.read_text())["records"]
    for m, out in zip(trace.map, stored):
        assert out["grad_norm"] == float(np.linalg.norm(m))



def test_decrease_margin_divides_by_the_rate_factor():
    # Here 1 + mu*s*(1 - L*s)/4 and 1 + (1 - L*s)*mu*s/4 round apart by one
    # bit; the margin must use the base that the bound's power uses.
    problem, optimum = ac.resolve_problem("quad-diag:0.209,0.666")
    s = 0.27
    trace = ac.run(problem, ac.RunParams(algo="nag", step=s, iters=200, momentum_r=R),
                   np.ones(2))
    cert = ac.certify(trace, problem, optimum)
    rate = ly.rate_factor(problem.mu, s, problem.lipschitz)
    assert rate != 1.0 + problem.mu * s * (1.0 - problem.lipschitz * s) / 4.0
    expected = cert.energy[:-1] / rate - cert.energy[1:]
    assert cert.decrease_margin.tobytes() == expected.tobytes()
    for k, row in enumerate(cert.rows[:199]):
        energy_k = ly.energy(trace, k, s, R, optimum, "xy").total
        energy_next = ly.energy(trace, k + 1, s, R, optimum, "xy").total
        assert row.decrease_margin == energy_k / rate - energy_next


#: First failing k of each failing run of the equivalence grid, keyed by
#: (problem, s*L, r). Each is a rate-bound row: below s = 1/(2L) the bound's
#: r^2*L numerator is smaller than the energy proves, and every decrease row
#: passes.
EQUIVALENCE_FAILURES = {
    ("quad2d", 0.02, 2.0): 4, ("quad2d", 0.02, 3.0): 6, ("quad2d", 0.02, 4.0): 10,
    ("lasso5", 0.02, 2.0): 3, ("lasso5", 0.02, 3.0): 5, ("lasso5", 0.02, 4.0): 6,
    ("lasso5", 0.02, 6.0): 10,
}


@pytest.mark.parametrize("algo", ["nag", "nag-phase", "fista"])
def test_xy_energy_gives_the_verdicts_of_the_velocity_energy(quad2d, lasso5, algo):
    # The paper's equivalence: wherever x, y and v obey the position-velocity
    # relation, the velocity-free energy that certify checks gives the
    # decrease flags and verdict of li2024linear's velocity energy. Over the
    # three schemes, 100 runs from x0 = ones: s*L in {0.02, ..., 0.9} (s =
    # 0.01 on quad2d, where the rate bound fails) and r in {2, ..., 8}.
    n = 1000
    problems = {"quad2d": quad2d, "lasso5": lasso5} if algo == "fista" else {"quad2d": quad2d}
    failing = {}
    grid = itertools.product((0.02, 0.1, 0.4, 0.8, 0.9), (2.0, 3.0, 4.0, 6.0, 8.0))
    for (name, (problem, optimum)), (sl, r) in itertools.product(problems.items(), grid):
        oracle = ac.problems.smooth_part(problem)
        s = sl / oracle.lipschitz
        trace = ac.run(problem, ac.RunParams(algo=algo, step=s, iters=n, momentum_r=r),
                       np.ones(oracle.dim))
        cert = ac.certify(trace, problem, optimum)
        velocity = np.array([ly.energy(trace, k, s, r, optimum, "velocity").total
                             for k in range(n)])
        assert np.max(np.abs(velocity - cert.energy)) <= 1e-13 * velocity[0]
        rel, absolute = ly.REFERENCE_TOLS if optimum.source == "reference-run" else ly.ANALYTIC_TOLS
        contracted = velocity[:-1] / ly.rate_factor(oracle.mu, s, oracle.lipschitz)
        big_k = cert.threshold_K
        decrease_ok = np.ones(n + 1, dtype=bool)
        limit = contracted[big_k:] * (1.0 + rel) + absolute
        decrease_ok[big_k:n - 1] = velocity[big_k + 1:] <= limit
        decrease_ok[:n] &= np.isfinite(velocity)
        assert np.array_equal(cert.decrease_ok, decrease_ok)
        assert cert.overall_pass == bool(cert.bound_ok.all() and decrease_ok.all())
        if not cert.overall_pass:
            failing[name, sl, r] = ly.first_failing_k(cert)
    assert failing == {key: k for key, k in EQUIVALENCE_FAILURES.items() if key[0] in problems}


def test_certify_fails_a_row_with_infinite_f(nag_trace, quad2d):
    # f(x_1) = inf makes every bound inf, and inf <= inf would hold.
    f = nag_trace.f.copy()
    f[1] = math.inf
    overflowed = dataclasses.replace(nag_trace, f=f)
    cert = ac.certify(overflowed, quad2d[0], quad2d[1])
    assert not cert.overall_pass
    assert ly.first_failing_k(cert) == 0
    assert not cert.rows[1].bound_ok
    assert not cert.rows[0].decrease_ok
