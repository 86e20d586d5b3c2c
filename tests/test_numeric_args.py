"""Every numeric argument is checked by one count, real or array rule.

A count is an int, not a bool, at least its lower bound; a real is a number,
not a bool, NaN, +-inf or an int too large for a float, above (or at) its
lower bound; an array is a non-empty vector or matrix of reals that are
finite, of a given length where the caller knows it. Each row below names
one routed argument, the call that takes it, and the error class documented
for it. Every bad value must raise that class at once, with a one-line
message: never a ZeroDivisionError, OverflowError, TypeError, numpy's
IndexError or ValueError, or a hang.
"""

import dataclasses
import json
import math
import signal
import tempfile

import numpy as np
import pytest

import accelcert as ac
from accelcert import harness, problems, proximal
from accelcert.algorithms import AlgoState
from accelcert.errors import InvalidProblemError, ParameterError
from accelcert.harness import UsageError

QUAD, QUAD_OPT = ac.make_quadratic((5e-3, 1.0))
TRACE = ac.run(QUAD, ac.RunParams("nag", 0.4, 20, 2.0), [1.0, 1.0])
START = AlgoState(0, np.ones(2), np.ones(2), np.zeros(2))
LASSO = ([[1.0, 0.2], [0.1, 2.0]], [1.0, -1.0])

#: Values that neither rule admits anywhere.
ANY_BAD = [True, math.nan, math.inf, -math.inf, "2"]
#: A count also refuses a whole-looking non-int; a real, an int past float range.
COUNT_BAD = ANY_BAD + [1.5]
REAL_BAD = ANY_BAD + [10**400]


def _below(low):
    """The float just below ``low``."""
    return float(np.nextafter(low, -math.inf))


def _id(name, value):
    big = type(value) is int and value > 10**100
    return f"{name}={f'10**{round(math.log10(value))}' if big else repr(value)}"


# (argument, call taking the value, error class, bad values). A value "just
# below the range" is the bound itself for a strict real.
ROWS = [
    ("SmoothOracle.dim", lambda v: ac.SmoothOracle(v, QUAD.value, QUAD.gradient, 1.0, 2.0),
     InvalidProblemError, COUNT_BAD + [0]),
    ("SmoothOracle.mu", lambda v: ac.SmoothOracle(2, QUAD.value, QUAD.gradient, v, 2.0),
     InvalidProblemError, REAL_BAD + [0.0]),
    ("SmoothOracle.lipschitz", lambda v: ac.SmoothOracle(2, QUAD.value, QUAD.gradient, 1.0, v),
     InvalidProblemError, REAL_BAD + [_below(1.0)]),
    ("CompositeObjective.l1_weight", lambda v: ac.CompositeObjective(QUAD, v),
     InvalidProblemError, REAL_BAD + [_below(0.0)]),
    ("make_lasso.ref_iters", lambda v: ac.make_lasso(*LASSO, 0.1, ref_iters=v),
     InvalidProblemError, COUNT_BAD + [0]),
    ("finite_diff_gradient.h", lambda v: ac.finite_diff_gradient(QUAD, [1.0, 1.0], v),
     InvalidProblemError, REAL_BAD + [0.0]),
    # run, so that a count too large for the trace arrays is refused too.
    ("RunParams.iters", lambda v: ac.run(QUAD, ac.RunParams("nag", 0.4, v, 2.0), [1.0, 1.0]),
     ParameterError, COUNT_BAD + [0, 10**400, 10**5000]),
    ("RunParams.step", lambda v: ac.RunParams("nag", v, 5, 2.0),
     ParameterError, REAL_BAD + [0.0]),
    ("RunParams.momentum_r (nag)", lambda v: ac.RunParams("nag", 0.4, 5, v),
     ParameterError, REAL_BAD + [_below(2.0)]),
    ("RunParams.momentum_r (gd)", lambda v: ac.RunParams("gd", 0.4, 5, v),
     ParameterError, REAL_BAD),
    ("step.s", lambda v: ac.step("nag", START, QUAD, v, 2.0),
     ParameterError, REAL_BAD + [0.0]),
    ("step.state.k", lambda v: ac.step("nag", AlgoState(v, START.x, START.y, START.v),
                                       QUAD, 0.4, 2.0),
     ParameterError, COUNT_BAD + [-1, -3, 10**400]),
    ("threshold_K.r", ac.threshold_K, ParameterError, REAL_BAD + [_below(2.0)]),
    ("theorem_bound.k", lambda v: ac.theorem_bound(v, 2.0, 0.4, 0.01, 2.0, 1.0, 1.0),
     ParameterError, COUNT_BAD + [0, 10**400]),
    ("soft_threshold.theta", lambda v: ac.soft_threshold([2.0], v),
     ParameterError, REAL_BAD + [_below(0.0)]),
    ("prox_bruteforce.grid_step",
     lambda v: ac.prox_bruteforce(QUAD, [1.0, 1.0], 0.4, grid_step=v),
     ParameterError, REAL_BAD + [0.0]),
]
# The per-k readers refuse a k that is not an int; an int out of 0..n is an
# IndexError, checked by test_per_k_reads_leave_trace_records_unbuilt.
ROWS += [
    (f"{reader.__name__}.k", lambda v, reader=reader: reader(TRACE, v, 0.4, 2.0),
     ParameterError, COUNT_BAD)
    for reader in (ac.seq_R, ac.seq_S, ac.seq_T)
]
ROWS.append(("energy.k", lambda v: ac.energy(TRACE, v, 0.4, 2.0, QUAD_OPT, "xy"),
             ParameterError, COUNT_BAD))
ROWS.append(("OptimumInfo.f_star", lambda v: ac.OptimumInfo([0.0, 0.0], v, "analytic"),
             InvalidProblemError, REAL_BAD))

CASES = [
    pytest.param(call, error, value, id=_id(name, value))
    for name, call, error, values in ROWS
    for value in values
]


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang("the call did not return within 5 s")


@pytest.fixture
def alarm():
    """Fail a call that hangs (a grid step of NaN once looped forever)."""
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call,error,value", CASES)
def test_bad_numeric_argument_raises_its_documented_error(alarm, call, error, value):
    with pytest.raises(error) as info:
        call(value)
    assert "\n" not in str(info.value)


def _bad_arrays(ndim, length_checked=True, numpy=True):
    """(label, value) pairs that the array rule refuses where a 2-vector
    (ndim 1) or a 2x2 matrix (ndim 2) is wanted; each breaks one rule."""
    good = [1.0, 2.0] if ndim == 1 else [[1.0, 0.2], [0.1, 2.0]]

    def last(entry):  # ``good`` with its last entry replaced
        return [1.0, entry] if ndim == 1 else [[1.0, 0.2], [0.1, entry]]

    bad = [("bool", last(True)), ("str", last("2")), ("nan", last(math.nan)),
           ("inf", last(math.inf)), ("-inf", last(-math.inf)), ("10**400", last(10**400)),
           ("ragged", [1.0, [2.0, 3.0]] if ndim == 1 else [[1.0, 0.2], [0.1]]),
           ("ndim", [good] if ndim == 1 else good[0]), ("empty", [] if ndim == 1 else [[]])]
    if length_checked:
        bad.append(("length", [1.0, 2.0, 3.0] if ndim == 1 else [[1.0, 0.2, 0.3]] * 2))
    if numpy:
        bad.append(("numpy-bool", np.array(good) > 0.5))
    return bad


def _state(name):
    return lambda v: ac.step("nag", dataclasses.replace(START, **{name: v}), QUAD, 0.4, 2.0)


def _lasso_file(key):
    """A call that resolves a lasso file whose ``key`` holds the value."""
    def call(value):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/lasso.json"
            with open(path, "w") as fh:
                json.dump({"A": LASSO[0], "b": LASSO[1], "lambda": 0.1, key: value}, fh)
            return ac.resolve_problem(f"lasso:{path}")
    return call


# (argument, call taking the value, error class, ndim, whether the length is
# checked, whether the value may be a numpy array).
ARRAY_ROWS = [
    ("make_quadratic.coefficients", ac.make_quadratic, InvalidProblemError, 1, False, True),
    ("make_lasso.design", lambda v: ac.make_lasso(v, LASSO[1], 0.1),
     InvalidProblemError, 2, False, True),
    ("make_lasso.target", lambda v: ac.make_lasso(LASSO[0], v, 0.1),
     InvalidProblemError, 1, True, True),
    ("lasso file A", _lasso_file("A"), InvalidProblemError, 2, False, False),
    ("lasso file b", _lasso_file("b"), InvalidProblemError, 1, True, False),
    ("oracle_eval.x", lambda v: ac.oracle_eval(QUAD, v), InvalidProblemError, 1, True, True),
    ("finite_diff_gradient.x", lambda v: ac.finite_diff_gradient(QUAD, v, 1e-6),
     InvalidProblemError, 1, True, True),
    ("strong_convexity_slack.x", lambda v: problems.strong_convexity_slack(QUAD, v, [1.0, 1.0]),
     InvalidProblemError, 1, True, True),
    ("strong_convexity_slack.y", lambda v: problems.strong_convexity_slack(QUAD, [1.0, 1.0], v),
     InvalidProblemError, 1, True, True),
    ("gradient_lipschitz_slack.x",
     lambda v: problems.gradient_lipschitz_slack(QUAD, v, [1.0, 1.0]),
     InvalidProblemError, 1, True, True),
    ("gradient_lipschitz_slack.y",
     lambda v: problems.gradient_lipschitz_slack(QUAD, [1.0, 1.0], v),
     InvalidProblemError, 1, True, True),
    ("prox_eval.x", lambda v: ac.prox_eval(QUAD, v, 0.4), InvalidProblemError, 1, True, True),
    ("prox_bruteforce.x", lambda v: ac.prox_bruteforce(QUAD, v, 0.4),
     InvalidProblemError, 1, True, True),
    ("composite_fundamental_slack.x",
     lambda v: proximal.composite_fundamental_slack(QUAD, v, [1.0, 1.0], 0.4),
     InvalidProblemError, 1, True, True),
    ("composite_fundamental_slack.y",
     lambda v: proximal.composite_fundamental_slack(QUAD, [1.0, 1.0], v, 0.4),
     InvalidProblemError, 1, True, True),
    ("composite_key_slack.y", lambda v: proximal.composite_key_slack(QUAD, v, 0.4, 0.0),
     InvalidProblemError, 1, True, True),
    ("initial_state.x0", ac.initial_state, InvalidProblemError, 1, False, True),
    ("step.state.x", _state("x"), InvalidProblemError, 1, True, True),
    ("step.state.y", _state("y"), InvalidProblemError, 1, True, True),
    ("step.state.v", _state("v"), InvalidProblemError, 1, True, True),
    ("run.x0", lambda v: ac.run(QUAD, ac.RunParams("nag", 0.4, 5, 2.0), v),
     InvalidProblemError, 1, True, True),
    ("OptimumInfo.x_star", lambda v: ac.OptimumInfo(v, 0.0, "analytic"),
     InvalidProblemError, 1, False, True),
    # A config's x0 is a list or a comma string; its length is run's to check.
    ("ExperimentConfig.x0", lambda v: harness.parse_config({**CONFIG, "x0": v}),
     UsageError, 1, False, False),
]
ARRAY_CASES = [
    pytest.param(call, error, value, id=f"{name}={label}")
    for name, call, error, ndim, length_checked, numpy in ARRAY_ROWS
    for label, value in _bad_arrays(ndim, length_checked, numpy)
]
# certify refuses an optimum of another dimension than the problem's, and
# the message shows an entry past Python's int-to-str digit limit by its size.
ARRAY_CASES += [
    pytest.param(lambda v: ac.certify(TRACE, QUAD, ac.OptimumInfo(v, 0.0, "analytic")),
                 ParameterError, [0.0, 0.0, 0.0], id="certify.optimum=length"),
    pytest.param(lambda v: ac.run(QUAD, ac.RunParams("nag", 0.4, 5, 2.0), v),
                 InvalidProblemError, [10**5000, 1.0], id="run.x0=10**5000"),
]


@pytest.mark.parametrize("call,error,value", ARRAY_CASES)
def test_bad_array_argument_raises_its_documented_error(alarm, call, error, value):
    with pytest.raises(error) as info:
        call(value)
    assert "\n" not in str(info.value)


#: The forms of the start point (1, 2) that the array rule admits.
ADMITTED = {
    "float-list": [1.0, 2.0],
    "int-list": [1, 2],
    "tuple": (1.0, 2),
    "float64-array": np.array([1.0, 2.0]),
    "int-array": np.array([1, 2]),
    "np.float64-list": [np.float64(1.0), np.float64(2.0)],
}


def _bits(result):
    """The bytes of every float a result holds, for a bit-for-bit comparison."""
    if isinstance(result, ac.Trace):
        return [a.tobytes() for a in (result.x, result.y, result.v, result.map, result.f, result.z)]
    if isinstance(result, AlgoState):
        return _bits((result.x, result.y, result.v, result.z))
    if isinstance(result, ac.OptimumInfo):
        return _bits((result.x_star, result.f_star))
    if isinstance(result, ac.CompositeObjective):
        return _bits((result.smooth.mu, result.smooth.lipschitz, result.l1_weight))
    if isinstance(result, (tuple, list)):
        return [_bits(item) for item in result]
    return None if result is None else np.asarray(result, dtype=float).tobytes()


ADMITTING_CALLS = {
    "make_quadratic": lambda v: ac.make_quadratic(v)[0].mu,
    "make_lasso.target": lambda v: ac.make_lasso(LASSO[0], v, 0.1),
    "make_lasso.design": lambda v: ac.make_lasso([v, [0.1, 2.0]], LASSO[1], 0.1),
    "oracle_eval": lambda v: ac.oracle_eval(QUAD, v),
    "prox_eval": lambda v: ac.prox_eval(QUAD, v, 0.4),
    "composite_key_slack": lambda v: proximal.composite_key_slack(QUAD, v, 0.4, 0.0),
    "initial_state": ac.initial_state,
    "step": lambda v: ac.step("nag", AlgoState(0, v, v, v), QUAD, 0.4, 2.0),
    "run": lambda v: ac.run(QUAD, ac.RunParams("m-nag", 0.4, 30, 2.0), v),
    "certify": lambda v: ac.certify(TRACE, QUAD, ac.OptimumInfo(v, 0.0, "analytic")).energy,
    "ExperimentConfig.x0": lambda v: harness.parse_config({**CONFIG, "x0": v}).x0,
}


@pytest.mark.parametrize("name", ADMITTING_CALLS)
def test_admitted_array_forms_give_the_same_bits(name):
    call = ADMITTING_CALLS[name]
    reference = _bits(call(ADMITTED["float-list"]))
    for form, value in ADMITTED.items():
        if name == "ExperimentConfig.x0" and isinstance(value, np.ndarray):
            continue  # a config's x0 is a comma string, a list or a tuple
        assert _bits(call(value)) == reference, form


def test_admitted_numbers_pass_both_rules():
    assert ac.soft_threshold([2.0], 0).tolist() == [2.0]
    assert ac.soft_threshold([2.0], np.float64(0.5)).tolist() == [1.5]
    assert ac.RunParams("nag", 0.4, np.int64(5), 2).iters == 5
    assert ac.RunParams("gd", 0.4, 5, -1.0).momentum_r == -1.0
    assert ac.threshold_K(2) == 0
    assert ac.theorem_bound(np.iinfo(np.intp).max, 2.0, 0.4, 0.01, 2.0, 1.0, 1.0) == 0.0
    assert ac.make_lasso(*LASSO, 0.1, ref_iters=50.0)[1].solver_params["iterations"] <= 50


# The same rules behind the CLI: a --config file's numbers, and a stored
# trace whose params or records are not the JSON objects they must be.
CONFIG = {"problem": "quad2d", "algo": "nag", "step": 0.4, "momentum_r": 2.0, "iters": 5}
CONFIG_CASES = [
    pytest.param(key, value, id=_id(key, value))
    for key, values in (("step", [True, "2", 1e999, -1e999, 10**400, 0.0]),
                        ("iters", [True, "2", 1.5, 0]),
                        ("momentum_r", [True, "2", 1e999, 10**400, 1.999]))
    for value in values
]


@pytest.mark.parametrize("key,value", CONFIG_CASES)
def test_bad_config_number_is_a_one_line_usage_error(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, key: value}))
    with pytest.raises(UsageError):
        harness.parse_config(str(path))
    assert harness.main(["run", "--config", str(path), "--trace-out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t").exists()


#: JSON start points that a --config file may not hold; the config refuses
#: all but the 3-vector, which run refuses on quad2d.
JSON_BAD_X0 = [pytest.param(value, id=label) for label, value in _bad_arrays(1, numpy=False)]


@pytest.mark.parametrize("x0", JSON_BAD_X0)
def test_bad_config_x0_is_a_one_line_usage_error(tmp_path, capsys, x0):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "x0": x0}))
    assert harness.main(["run", "--config", str(path), "--trace-out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x0 must be a vector of ") and err.count("\n") == 1
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("key,value", [
    *(pytest.param("A", value, id=f"A={label}") for label, value in _bad_arrays(2, False, False)),
    *(pytest.param("b", value, id=f"b={label}") for label, value in _bad_arrays(1, numpy=False)),
    pytest.param("lambda", "0.1", id="lambda='0.1'"),
])
def test_bad_lasso_file_entry_is_a_one_line_error(tmp_path, capsys, key, value):
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps({"A": LASSO[0], "b": LASSO[1], "lambda": 0.1, key: value}))
    assert harness.main(["run", "--problem", f"lasso:{path}", "--algo", "fista", "--step", "0.1",
                         "--r", "2", "--iters", "5", "--trace-out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t").exists()


def _trace_field(key, label, value):
    """A mutation of a stored m-nag trace's records: record 2's ``key``
    becomes ``value``, or every record's for the labels that need it."""
    def mutate(trace):
        records = trace["records"]
        if label in ("ndim", "empty"):  # every record, so that the column is not ragged
            for rec in records[:len(records) - (key == "z")]:
                rec[key] = value
        else:
            records[2][key] = value
    return pytest.param(key, mutate, id=f"{key}={label}")


TRACE_FIELD_CASES = [
    _trace_field(key, label, value)
    for key in ("x", "y", "v", "map", "z")
    for label, value in _bad_arrays(1, length_checked=False, numpy=False)
] + [_trace_field("f", label, value[1]) for label, value in _bad_arrays(1, False, False)[:6]]


@pytest.mark.parametrize("field,mutate", TRACE_FIELD_CASES)
def test_bad_trace_field_is_a_one_line_usage_error(tmp_path, capsys, field, mutate):
    path = tmp_path / "t.json"
    assert harness.main(["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4",
                         "--r", "2", "--iters", "5", "--format", "json",
                         "--trace-out", str(path)]) == 0
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert harness.main(["certify", "--trace", str(path), "--problem", "quad2d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"field {field!r}" in err


@pytest.mark.parametrize(
    "field,mutate",
    [
        ("params", lambda t: t.update(params=[1, 2])),
        ("records", lambda t: t.update(records={"k": 0})),
        ("records", lambda t: t["records"].__setitem__(2, 7)),
    ],
    ids=["params-list", "records-object", "records-number"],
)
def test_malformed_trace_names_its_field(tmp_path, capsys, field, mutate):
    path = tmp_path / "t.json"
    assert harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                         "--r", "2", "--iters", "5", "--format", "json",
                         "--trace-out", str(path)]) == 0
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert harness.main(["certify", "--trace", str(path), "--problem", "quad2d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"field {field!r}" in err
