"""Every numeric argument is checked by one count rule or one real rule.

A count is an int, not a bool, at least its lower bound; a real is a number,
not a bool, NaN, +-inf or an int too large for a float, above (or at) its
lower bound. Each row below names one routed argument, the call that takes
it, and the error class documented for it. Every bad value must raise that
class at once, with a one-line message: never a ZeroDivisionError,
OverflowError, TypeError, numpy's IndexError or ValueError, or a hang.
"""

import json
import math
import signal

import numpy as np
import pytest

import accelcert as ac
from accelcert import harness
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
    return f"{name}={'10**400' if value == 10**400 else repr(value)}"


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
     ParameterError, COUNT_BAD + [0, 10**400]),
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
