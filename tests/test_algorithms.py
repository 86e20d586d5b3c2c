import dataclasses
import itertools
import math

import numpy as np
import pytest

import accelcert as ac
from accelcert import algorithms
from accelcert import lyapunov as ly
from accelcert.algorithms import (
    MONOTONE_ALGOS,
    R_FAMILY_ALGOS,
    SCHEMES,
    AlgoState,
    initial_state,
)
from accelcert.errors import InvalidProblemError, ParameterError, StepSizeError

#: The six arrays a Trace stores.
TRACE_ARRAYS = ("x", "y", "v", "map", "f", "z")


def quad1d():
    return ac.make_quadratic([1.0])[0]


def trajectories_equal(a, b):
    """Two traces' x, y, v, f and map arrays are equal entry for entry."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("x", "y", "v", "f", "map"))


# --- single-step transitions ------------------------------------------------

def test_gd_step_1d():
    state = ac.step("gd", initial_state([1.0]), quad1d(), 0.25)
    assert state.x == pytest.approx([0.5], rel=1e-15)
    assert np.array_equal(state.y, state.x)
    assert state.k == 1


def test_gd_fixed_point(quad2d):
    oracle, optimum = quad2d
    state = ac.step("gd", initial_state(optimum.x_star), oracle, 0.1)
    assert np.array_equal(state.x, optimum.x_star)


def test_gd_componentwise(quad2d):
    state = ac.step("gd", initial_state([1.0, 1.0]), quad2d[0], 0.01)
    assert state.x == pytest.approx([0.9999, 0.98], rel=1e-14)


def test_nag_first_step_has_no_momentum(quad2d):
    state = ac.step("nag", initial_state([1.0, 1.0]), quad2d[0], 0.4, 2.0)
    assert state.x == pytest.approx([0.996, 0.2], rel=1e-14)
    assert np.array_equal(state.y, state.x)


def test_nag_stationary_at_optimum(quad2d):
    oracle, optimum = quad2d
    state = initial_state(optimum.x_star)
    for _ in range(5):
        state = ac.step("nag", state, oracle, 0.4, 2.0)
        assert np.array_equal(state.x, optimum.x_star)


def test_phase_form_matches_two_point_form(quad2d):
    oracle, _ = quad2d
    a = initial_state([1.0, 1.0])
    b = initial_state([1.0, 1.0])
    for _ in range(30):
        a = ac.step("nag", a, oracle, 0.4, 2.0)
        b = ac.step("nag-phase", b, oracle, 0.4, 2.0)
        scale = 1.0 + np.linalg.norm(a.x)
        assert np.linalg.norm(a.x - b.x) <= 1e-12 * scale
        assert np.linalg.norm(a.y - b.y) <= 1e-12 * scale


def test_phase_first_step_1d():
    state = ac.step("nag-phase", initial_state([1.0]), quad1d(), 0.25, 2.0)
    # v1 = -sqrt(s) * f'(1) = -0.5 * 2 = -1, x1 = 1 + 0.5 * (-1) = 0.5
    assert state.v == pytest.approx([-1.0], rel=1e-15)
    assert state.x == pytest.approx([0.5], rel=1e-15)


def test_mnag_accepts_descent_candidate(quad2d):
    oracle, _ = quad2d
    state = ac.step("m-nag", initial_state([1.0, 1.0]), oracle, 0.4, 2.0)
    assert oracle.value(state.z) == pytest.approx(0.04496008, rel=1e-12)
    assert np.array_equal(state.x, state.z)
    # y1 = x1 + 0 + (2/3)(z0 - x1) collapses onto x1 when z0 is accepted
    assert np.array_equal(state.y, state.x)


def test_mnag_reject_branch_keeps_x(quad2d):
    oracle, _ = quad2d
    # Overshooting y: z = y - s*grad(y) = (0, 0.2) has f = 0.04 > f(x) = 1e-4.
    x = np.array([0.0, 0.01])
    y = np.array([0.0, 1.0])
    state = AlgoState(k=5, x=x, y=y, v=np.zeros(2))
    out = ac.step("m-nag", state, oracle, 0.4, 2.0)
    z = y - 0.4 * oracle.gradient(y)
    assert oracle.value(z) > oracle.value(x)
    assert np.array_equal(out.x, x)
    assert out.y == pytest.approx(x + (7.0 / 8.0) * (z - x), rel=1e-15)
    assert np.all(out.v == 0.0)


def test_mnag_stationary_at_optimum(quad2d):
    oracle, optimum = quad2d
    out = ac.step("m-nag", initial_state(optimum.x_star), oracle, 0.4, 2.0)
    assert np.array_equal(out.x, optimum.x_star)
    assert np.array_equal(out.z, optimum.x_star)


def test_fista_zero_regularizer_is_nag_bitwise(quad2d):
    oracle, _ = quad2d
    b = ac.step("nag", initial_state([1.0, 1.0]), oracle, 0.4, 2.0)
    for problem in (ac.as_composite(oracle), oracle):
        a = ac.step("fista", initial_state([1.0, 1.0]), problem, 0.4, 2.0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_fista_soft_thresholds_the_gradient_point():
    problem = ac.make_lasso(np.eye(1), [3.0], 1.0, ref_iters=1)[0]
    state = ac.step("fista", initial_state([0.0]), problem, 0.5, 2.0)
    # grad f(0) = -3, gradient point 1.5, soft(1.5, 0.5) = 1.0
    assert state.x == pytest.approx([1.0], rel=1e-15)
    assert np.array_equal(state.x, ac.prox_value(problem, np.zeros(1), 0.5))


def test_fista_fixed_point_at_reference_optimum(identity_lasso):
    problem, optimum = identity_lasso
    params = ac.RunParams(algo="fista", step=0.5, iters=50, momentum_r=2.0)
    trace = ac.run(problem, params, optimum.x_star)
    drift = max(np.linalg.norm(x - optimum.x_star) for x in trace.x)
    assert drift <= 1e-10 * (1.0 + np.linalg.norm(optimum.x_star))


def test_mfista_zero_regularizer_is_mnag_bitwise(quad2d):
    oracle, _ = quad2d
    b = ac.step("m-nag", initial_state([1.0, 1.0]), oracle, 0.4, 2.0)
    for problem in (ac.as_composite(oracle), oracle):
        a = ac.step("m-fista", initial_state([1.0, 1.0]), problem, 0.4, 2.0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_mfista_compares_on_phi():
    problem = ac.make_lasso(np.eye(1), [3.0], 1.0, ref_iters=1)[0]
    state = ac.step("m-fista", initial_state([0.0]), problem, 0.5, 2.0)
    # phi(z0) = 0.5*(1-3)^2 + 1 = 3 < phi(0) = 4.5, so z0 is accepted.
    assert problem.phi_value(state.z) == pytest.approx(3.0, rel=1e-15)
    assert np.array_equal(state.x, state.z)


def test_mfista_stationary_at_optimum(identity_lasso):
    problem, optimum = identity_lasso
    out = ac.step("m-fista", initial_state(optimum.x_star), problem, 0.5, 2.0)
    assert np.linalg.norm(out.x - optimum.x_star) <= 1e-12


def test_nag_sc_constant_momentum(quad2d):
    oracle, _ = quad2d
    s = 0.01
    state = ac.step("nag-sc", initial_state([1.0, 1.0]), oracle, s)
    x0 = np.array([1.0, 1.0])
    x1 = x0 - s * oracle.gradient(x0)
    coeff = (1.0 - math.sqrt(oracle.mu * s)) / (1.0 + math.sqrt(oracle.mu * s))
    assert coeff == pytest.approx(0.99 / 1.01, rel=1e-15)
    assert state.y == pytest.approx(x1 + coeff * (x1 - x0), rel=1e-15)


def test_nag_sc_coefficient_below_one():
    for mu, s in [(0.01, 0.01), (0.5, 1.0), (1.0, 0.999)]:
        coeff = (1.0 - math.sqrt(mu * s)) / (1.0 + math.sqrt(mu * s))
        assert 0.0 <= coeff < 1.0


def test_nag_sc_rejects_mus_at_least_one():
    oracle = ac.make_quadratic([0.5])[0]  # mu = 1
    with pytest.raises(ParameterError):
        ac.step("nag-sc", initial_state([1.0]), oracle, 1.0)


def test_mnag_sc_accept_branch(quad2d):
    oracle, _ = quad2d
    s = 0.01
    state = ac.step("m-nag-sc", initial_state([1.0, 1.0]), oracle, s)
    coeff = (1.0 - math.sqrt(oracle.mu * s)) / (1.0 + math.sqrt(oracle.mu * s))
    x0 = np.array([1.0, 1.0])
    assert np.array_equal(state.x, state.z)
    assert state.y == pytest.approx(state.z + coeff * (state.z - x0), rel=1e-15)


def test_mnag_sc_reject_branch_moves_y_to_z(quad2d):
    oracle, _ = quad2d
    state = AlgoState(k=3, x=np.array([0.0, 0.01]), y=np.array([0.0, 1.0]), v=np.zeros(2))
    out = ac.step("m-nag-sc", state, oracle, 0.01)
    assert np.array_equal(out.x, state.x)
    assert out.y == pytest.approx(out.z, rel=1e-15)


def test_mnag_sc_stationary(quad2d):
    oracle, optimum = quad2d
    out = ac.step("m-nag-sc", initial_state(optimum.x_star), oracle, 0.01)
    assert np.array_equal(out.x, optimum.x_star)


@pytest.mark.parametrize("algo", ac.ALGORITHMS)
def test_step_from_the_start_is_record_one_of_run(quad2d, algo):
    problem = quad2d[0]
    trace = ac.run(problem, ac.RunParams(algo=algo, step=0.4, iters=1, momentum_r=2.0),
                   [0.7, -1.3])
    out = ac.step(algo, initial_state([0.7, -1.3]), problem, 0.4, 2.0)
    z0 = trace.z[0] if len(trace.z) else None
    assert out.k == 1
    for got, want in ((out.x, trace.x[1]), (out.y, trace.y[1]), (out.v, trace.v[1]), (out.z, z0)):
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "algo, s, r",
    [
        ("sgd", 0.4, 2.0),
        ("nag", 0.4, None),
        ("m-fista", 0.4, None),
        ("nag-phase", 0.4, 1.5),
        ("gd", 0.0, None),
        ("nag", -0.4, 2.0),
        ("nag-sc", math.nan, None),
        ("m-nag", math.inf, 2.0),
        ("nag", 0.4, math.inf),
    ],
)
def test_step_checks_its_parameters_as_run_params_does(quad2d, algo, s, r):
    with pytest.raises(ParameterError):
        ac.step(algo, initial_state([1.0, 1.0]), quad2d[0], s, r)


def test_scheme_table_holds_the_facts_of_each_scheme():
    def names(fact):
        return {algo for algo, row in SCHEMES.items() if fact(row)}

    assert ac.ALGORITHMS == (
        "gd", "nag", "nag-phase", "m-nag", "fista", "m-fista", "nag-sc", "m-nag-sc"
    )
    r_family = {"nag", "nag-phase", "m-nag", "fista", "m-fista"}
    assert names(lambda row: row.momentum == "r") == R_FAMILY_ALGOS == r_family
    assert names(lambda row: row.momentum == "constant") == {"nag-sc", "m-nag-sc"}
    assert names(lambda row: row.monotone) == MONOTONE_ALGOS == {"m-nag", "m-fista", "m-nag-sc"}
    assert names(lambda row: row.composite) == {"fista", "m-fista"}
    assert names(lambda row: row.certifiable) == r_family
    assert names(lambda row: row.phase) == {"nag-phase"}
    assert not hasattr(algorithms, "COMPOSITE_ALGOS")
    assert not hasattr(ly, "CERTIFIABLE_ALGOS")


def test_step_replaces_the_per_scheme_entries():
    assert not hasattr(ac, "step_nag")
    assert not hasattr(ac, "sample_sequence")
    assert not hasattr(ac, "SequenceSample")


# --- parameter validation ---------------------------------------------------

def test_run_params_validation():
    with pytest.raises(ParameterError):
        ac.RunParams(algo="sgd", step=0.1, iters=10)
    with pytest.raises(ParameterError):
        ac.RunParams(algo="nag", step=0.1, iters=0, momentum_r=2.0)
    with pytest.raises(ParameterError):
        ac.RunParams(algo="nag", step=-0.1, iters=10, momentum_r=2.0)
    with pytest.raises(ParameterError):
        ac.RunParams(algo="nag", step=0.1, iters=10)
    with pytest.raises(ParameterError):
        ac.RunParams(algo="fista", step=0.1, iters=10, momentum_r=1.5)


@pytest.mark.parametrize(
    "fields",
    [
        {"iters": 2.5},
        {"iters": True},
        {"iters": "10"},
        {"step": True},
        {"step": "0.1"},
        {"algo": "gd", "momentum_r": True},
        {"momentum_r": "2"},
        {"algo": ["nag"]},
        {"algo": None},
    ],
)
def test_run_params_rejects_values_of_the_wrong_type(fields):
    with pytest.raises(ParameterError):
        ac.RunParams(**{"algo": "nag", "step": 0.1, "iters": 10, "momentum_r": 2.0, **fields})


def test_run_params_accepts_numpy_scalars():
    params = ac.RunParams(algo="nag", step=np.float64(0.1), iters=np.int64(10),
                          momentum_r=np.float32(2.0))
    assert params.iters == 10


def test_run_rejects_step_at_boundary(quad2d):
    params = ac.RunParams(algo="nag", step=0.5, iters=10, momentum_r=2.0)
    with pytest.raises(StepSizeError):
        ac.run(quad2d[0], params, [1.0, 1.0])


def test_run_problem_kind_mismatches(quad2d, identity_lasso):
    oracle, _ = quad2d
    # Every scheme runs on a smooth oracle; fista there is nag.
    fista = ac.run(oracle, ac.RunParams(algo="fista", step=0.1, iters=5, momentum_r=2.0),
                   [1.0, 1.0])
    nag = ac.run(oracle, ac.RunParams(algo="nag", step=0.1, iters=5, momentum_r=2.0), [1.0, 1.0])
    assert trajectories_equal(fista, nag)
    with pytest.raises(InvalidProblemError):
        ac.run(
            identity_lasso[0],
            ac.RunParams(algo="nag", step=0.1, iters=5, momentum_r=2.0),
            [1.0, 1.0],
        )
    with pytest.raises(InvalidProblemError):
        ac.run(oracle, ac.RunParams(algo="nag", step=0.1, iters=5, momentum_r=2.0), [1.0])


def test_run_unwraps_zero_composite(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=20, momentum_r=2.0)
    a = ac.run(ac.as_composite(oracle), params, [1.0, 1.0])
    b = ac.run(oracle, params, [1.0, 1.0])
    assert trajectories_equal(a, b)


# --- trace runner -----------------------------------------------------------

def test_trace_structure(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=30, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    assert trace.iters == 30
    assert len(trace.f) == 31
    assert np.array_equal(trace.x[0], [1.0, 1.0])
    assert np.array_equal(trace.y[0], trace.x[0])
    assert np.all(trace.v[0] == 0.0)
    # A candidate z_k for each of records 0..29, none for the last.
    assert len(trace.z) == 30


def test_monotone_trace_never_increases(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=200, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0])
    f = trace.f_values()
    assert np.all(np.diff(f) <= 0.0)


def test_nag_trace_oscillates(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=200, momentum_r=2.0)
    f = ac.run(oracle, params, [1.0, 1.0]).f_values()
    assert np.any(np.diff(f) > 0.0)


def test_stationary_start_produces_constant_trace(quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=10, momentum_r=2.0)
    trace = ac.run(oracle, params, optimum.x_star)
    assert np.all(trace.x == trace.x[0]) and np.all(trace.y == trace.y[0])
    assert np.all(trace.f == trace.f[0])


def test_runs_are_deterministic(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=100, momentum_r=2.0)
    a = ac.run(oracle, params, [1.0, 1.0])
    b = ac.run(oracle, params, [1.0, 1.0])
    assert trajectories_equal(a, b)


def test_phase_trace_satisfies_position_velocity_relation(quad2d):
    oracle, _ = quad2d
    s, r = 0.4, 2.0
    params = ac.RunParams(algo="nag-phase", step=s, iters=100, momentum_r=r)
    trace = ac.run(oracle, params, [1.0, 1.0])
    for k, (x, y, v) in enumerate(zip(trace.x, trace.y, trace.v)):
        expected = x + ((k - 1.0) / (k + r)) * math.sqrt(s) * v
        assert np.linalg.norm(y - expected) <= 1e-12 * (1.0 + np.linalg.norm(y))


def test_composite_collapse_over_full_trace(quad2d):
    oracle, _ = quad2d
    for pair, problem in itertools.product(
        (("fista", "nag"), ("m-fista", "m-nag")), (ac.as_composite(oracle), oracle)
    ):
        pa = ac.RunParams(algo=pair[0], step=0.4, iters=50, momentum_r=2.0)
        pb = ac.RunParams(algo=pair[1], step=0.4, iters=50, momentum_r=2.0)
        ta = ac.run(problem, pa, [1.0, 1.0])
        tb = ac.run(oracle, pb, [1.0, 1.0])
        for name in TRACE_ARRAYS:
            assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes()


def test_zero_weight_lasso_is_the_smooth_problem():
    # At lambda = 0, g is identically 0: nag and m-nag run, step and certify
    # on the lasso, and fista and m-fista there are nag and m-nag on its
    # smooth part in every column, bit for bit.
    problem, optimum = ac.make_lasso(np.diag([1.0, 2.0]), [1.0, 1.0], 0.0)
    for composite_algo, smooth_algo in (("fista", "nag"), ("m-fista", "m-nag")):
        params = ac.RunParams(algo=smooth_algo, step=0.2, iters=50, momentum_r=2.0)
        smooth = ac.run(problem.smooth, params, [3.0, -2.0])
        for trace in (
            ac.run(problem, params, [3.0, -2.0]),
            ac.run(problem, dataclasses.replace(params, algo=composite_algo), [3.0, -2.0]),
        ):
            for name in TRACE_ARRAYS:
                assert getattr(trace, name).tobytes() == getattr(smooth, name).tobytes()
        first = ac.step(smooth_algo, initial_state([3.0, -2.0]), problem, 0.2, 2.0)
        assert np.array_equal(first.x, smooth.x[1])
        assert ac.certify(ac.run(problem, params, [3.0, -2.0]), problem, optimum).overall_pass


def test_fast_methods_converge_on_quad2d(quad2d):
    oracle, optimum = quad2d
    for algo in ("nag", "m-nag"):
        params = ac.RunParams(algo=algo, step=0.4, iters=200, momentum_r=2.0)
        trace = ac.run(oracle, params, [1.0, 1.0])
        assert trace.f[200] - optimum.f_star < 1e-6


def test_trace_columns_stack_records_read_only(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=30, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0])
    assert trace.x.shape == trace.y.shape == trace.v.shape == trace.map.shape == (31, 2)
    assert {f.name for f in dataclasses.fields(trace)} == {"params", "problem_id", *TRACE_ARRAYS}
    assert trace.f.shape == (31,) and trace.z.shape == (30, 2)
    for k, rec in enumerate(trace.records):
        assert rec.k == k
        assert np.array_equal(trace.x[k], rec.x) and np.array_equal(trace.y[k], rec.y)
        assert np.array_equal(trace.v[k], rec.v)
        assert np.array_equal(trace.map[k], rec.first_order_at_y)
        assert trace.f[k] == rec.f_or_phi_at_x
        assert np.array_equal(trace.z[k], rec.z) if k < 30 else rec.z is None
    for name in TRACE_ARRAYS:
        with pytest.raises(ValueError):
            getattr(trace, name)[0] = 0.0
    # Every array one row shorter no longer matches params.iters = 30.
    with pytest.raises(ParameterError):
        dataclasses.replace(trace, **{name: getattr(trace, name)[1:] for name in TRACE_ARRAYS})


def _short(name):
    return lambda t: {name: getattr(t, name)[:-1]}


def _wide(name):
    return lambda t: {name: np.column_stack([getattr(t, name), np.zeros(len(getattr(t, name)))])}


#: id -> (scheme, changes to its 20-step quad2d trace) that break the Trace layout.
BAD_LAYOUTS = {
    **{f"{name}-one-row-fewer": ("m-nag", _short(name)) for name in TRACE_ARRAYS},
    **{f"{name}-one-column-more": ("m-nag", _wide(name)) for name in ("x", "y", "v", "map", "z")},
    "nag-f-one-row-fewer": ("nag", _short("f")),
    "nag-y-one-column-more": ("nag", _wide("y")),
    "z-on-nag": ("nag", lambda t: {"z": t.x[:-1]}),
    "no-z-on-m-nag": ("m-nag", lambda t: {"z": t.x[:0]}),
    "iters-one-more": ("m-nag", lambda t: {"params": dataclasses.replace(t.params, iters=21)}),
    "iters-one-less": ("m-nag", lambda t: {"params": dataclasses.replace(t.params, iters=19)}),
    "problem-id-not-a-string": ("nag", lambda t: {"problem_id": 123}),
    "params-not-run-params": ("nag", lambda t: {"params": {"algo": "nag", "iters": 20}}),
    "x-a-list": ("nag", lambda t: {"x": t.x.tolist()}),
    "x-no-columns": ("nag", lambda t: {"x": t.x[:, :0]}),
    "x-one-dimensional": ("nag", lambda t: {"x": t.x.ravel()}),
}


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("algo,change", BAD_LAYOUTS.values(), ids=BAD_LAYOUTS)
def test_trace_constructor_checks_the_layout(quad2d, algo, change, build):
    trace = ac.run(quad2d[0], ac.RunParams(algo=algo, step=0.4, iters=20, momentum_r=2.0),
                   [1.0, 1.0], problem_id="quad2d")
    changes = change(trace)
    with pytest.raises(ParameterError):
        if build == "replace":
            dataclasses.replace(trace, **changes)
        else:
            fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
            ac.Trace(**{**fields, **changes})


def test_traces_compare_by_identity(quad2d):
    oracle, _ = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=10, momentum_r=2.0)
    a, b = (ac.run(oracle, params, [1.0, 1.0]) for _ in range(2))
    assert a == a and a != b and len({a, b, a}) == 2
    assert all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in TRACE_ARRAYS)


# Every scheme evaluates f once a step: a monotone one at z_k, whose
# comparison decides f(x_{k+1}), the others at x_{k+1}.
@pytest.mark.parametrize("algo", list(SCHEMES))
def test_run_evaluates_f_once_per_step(quad2d, algo):
    oracle, _ = quad2d
    calls = []

    def value(x):
        calls.append(1)
        return oracle.value(x)

    counted = dataclasses.replace(oracle, value=value)
    r = 2.0 if algo in R_FAMILY_ALGOS else None
    params = ac.RunParams(algo=algo, step=0.4, iters=40, momentum_r=r)
    trace = ac.run(counted, params, [1.0, 1.0])
    assert len(calls) == params.iters + 1
    plain = ac.run(oracle, params, [1.0, 1.0])
    assert trajectories_equal(trace, plain)
