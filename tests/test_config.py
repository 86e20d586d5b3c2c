"""The one settings path of ``run``: flags, config files and dicts.

``parse_config(dict)``, ``parse_config(path)`` and ``run --config path``
all end in one validator, so they must agree on every mapping, and no
mapping may make ``main`` raise.
"""

import json
import os
import tempfile

import pytest

from accelcert import harness
from accelcert.algorithms import ALGORITHMS
from accelcert.harness import ENERGY_FORMS, FORMATS, UsageError, parse_config

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Any value json.load can return (NaN and the infinities included).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)

#: Values each key is likely to hold, so that many mappings validate.
PLAUSIBLE = {
    "problem": st.sampled_from(["quad2d", "quad-diag:1,2", "quad-diag:1", "quad9"]),
    "algo": st.sampled_from([*ALGORITHMS, "sgd"]),
    "step": st.sampled_from([0.1, 0.4, 0.6, 1, 0]),
    "iters": st.integers(0, 5),
    "momentum_r": st.sampled_from([None, 2, 3.5, 1.5]),
    "x0": st.sampled_from(["ones", "1,2", "0.5", "a,b", [1.0, -2.0], [0.5], []]),
    "trace_path": st.sampled_from([None, "t.csv"]),
    "certificate_path": st.sampled_from([None, "c.json"]),
    "format": st.sampled_from([*FORMATS, "xml"]),
    "certify": st.booleans(),
    "energy_form": st.sampled_from([*ENERGY_FORMS, "other"]),
}
#: The eleven config keys plus one that no config may hold.
KEYS = (*harness._CONFIG_TYPES, "stepsize")

MAPPINGS = st.fixed_dictionaries(
    {}, optional={key: PLAUSIBLE.get(key, JSON_VALUES) | JSON_VALUES for key in KEYS}
)


def _outcome(source):
    """repr of the parsed config (repr keeps NaN equal to itself), or UsageError."""
    try:
        return repr(parse_config(source))
    except UsageError:
        return UsageError


@SETTINGS
@given(MAPPINGS)
def test_dict_file_and_cli_config_agree(mapping):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(mapping, fh)
        expected = _outcome(mapping)
        assert _outcome(path) == expected
        assert _outcome(["--config", path]) == expected


QUAD_NAG = {"problem": "quad2d", "algo": "nag", "step": 0.4}


@SETTINGS
@given(MAPPINGS, st.integers(1, 5))
# Numbers too large for a float, and an r whose K(r) overflows one.
@example({**QUAD_NAG, "momentum_r": 10**400}, 5)
@example({**QUAD_NAG, "step": 10**400}, 5)
@example({**QUAD_NAG, "x0": [10**400, 1]}, 5)
@example({**QUAD_NAG, "momentum_r": 1e200, "certify": True}, 5)
@example({**QUAD_NAG, "momentum_r": 1e308, "certify": True}, 5)
def test_run_with_any_config_file_exits_cleanly(mapping, iters):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(mapping, fh)
        rc = harness.main(["run", "--config", path, "--iters", str(iters),
                           "--trace-out", os.path.join(tmp, "t"),
                           "--certificate-out", os.path.join(tmp, "c.json")])
    assert rc in (0, 1, 2)


def test_every_run_flag_is_a_config_key():
    parser = harness._build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    dests = {a.dest for a in sub.choices["run"]._actions} - {"help", "config", "command"}
    assert dests <= set(harness._CONFIG_TYPES)
