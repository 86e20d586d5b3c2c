"""The one settings path of ``run``: flags, config files and dicts.

``parse_config(dict)``, ``parse_config(path)`` and ``run --config path``
all end in one validator, so they must agree on every mapping, and no
mapping may make ``main`` raise.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest

from accelcert import harness
from accelcert.algorithms import ALGORITHMS
from accelcert.harness import FORMATS, UsageError, parse_config

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
}
#: The ten config keys plus one that no config may hold.
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


QUAD_NAG_R2 = {**QUAD_NAG, "momentum_r": 2.0}


@pytest.mark.parametrize(
    "fields",
    [
        {"format": "xml"},
        {"algo": "gd", "momentum_r": None, "certify": True},
        {"momentum_r": None},
        {"step": "0.4"},
        {"iters": True},
        {"x0": "a,b"},
        {"x0": [1, True]},
        {"x0": "1,,2"},
        {"x0": "1,"},
        {"x0": "nan,1"},
        {"x0": "1e400,1"},
        {"x0": [float("inf"), 1.0]},
        {"momentum_r": 200.0, "iters": 14000, "certify": True},
        {"certificate_path": "c.json"},
        {"certify": True, "trace_path": "./x.csv", "certificate_path": "x.csv"},
        {"certify": True, "trace_path": "certificate.json"},
        {"certify": True, "format": "json", "trace_path": "out/../t.json",
         "certificate_path": "t.json"},
        {"trace_path": "t\x00.csv"},
        {"trace_path": "missing/t.csv"},
        {"certify": True, "certificate_path": "."},
    ],
)
def test_a_direct_config_is_checked_when_built(tmp_path, monkeypatch, fields):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(UsageError):
        harness.ExperimentConfig(**{**QUAD_NAG_R2, **fields})


def test_replace_is_checked_and_resolves_paths_from_the_new_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = harness.ExperimentConfig(problem="quad2d", algo="gd", step=0.4, iters=5)
    with pytest.raises(UsageError):
        dataclasses.replace(cfg, format="xml")
    harness.run_experiment(dataclasses.replace(cfg, format="json"))
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
    assert harness.load_trace("trace.json").params.algo == "gd"


def test_preset_configs_validate():
    for cfg in (*harness.preset("fig1"), *harness.preset("fig2")):
        assert dataclasses.replace(cfg) == cfg
        assert cfg.x0 == (1.0, 1.0)


@pytest.mark.parametrize(
    "flags",
    [
        ["--algo", "m-nag", "--r", "2", "--iters", "200000", "--certify", "--format", "json",
         "--trace-out", ".", "--certificate-out", "c2.json"],
        ["--algo", "m-nag", "--r", "2", "--iters", "30", "--certify", "--certificate-out", "."],
        ["--algo", "gd", "--iters", "100000", "--trace-out", ""],
        ["--algo", "m-nag", "--r", "2", "--iters", "30", "--certify", "--certificate-out", ""],
        ["--algo", "gd", "--iters", "30", "--trace-out", "t.csv/"],
        ["--algo", "gd", "--iters", "30", "--x0=nan,1"],
        ["--algo", "gd", "--iters", "30", "--x0=1e400,1"],
        ["--algo", "nag", "--r", "200", "--iters", "14000", "--certify"],
        ["--algo", "nag", "--r", "2", "--iters", "20", "--certificate-out", "cc.json"],
        ["--algo", "m-nag", "--r", "2", "--iters", "30", "--certify", "--trace-out", "./x.csv",
         "--certificate-out", "x.csv"],
        ["--algo", "m-nag", "--r", "2", "--iters", "30", "--certify", "--trace-out",
         "certificate.json"],
        ["--algo", "m-nag", "--r", "2", "--iters", "300000", "--certify", "--format", "json",
         "--trace-out", "missing/t.json", "--certificate-out", "orphan.json"],
        ["--algo", "m-nag", "--r", "2", "--iters", "30", "--certify", "--certificate-out",
         "missing/c.json"],
        ["--algo", "gd", "--iters", "30", "--trace-out", "missing/t.csv"],
    ],
)
def test_refused_settings_exit_before_the_first_step(tmp_path, monkeypatch, capsys, flags):
    def fail(*args, **kwargs):
        raise AssertionError("a refused config reached the run")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "resolve_problem", fail)
    monkeypatch.setattr(harness, "run", fail)
    rc = harness.main(["run", "--problem", "quad2d", "--step", "0.4", *flags])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_colliding_paths_of_a_config_file_exit_before_the_first_step(tmp_path, monkeypatch,
                                                                      capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a refused config reached the run")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**QUAD_NAG_R2, "certify": True, "trace_path": "t.csv",
                               "certificate_path": "./t.csv"}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(harness, "run", fail)
    assert harness.main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(work.iterdir()) == []


def test_numpy_valued_config_writes_the_bytes_of_its_python_twin(tmp_path):
    def trace_bytes(name, **fields):
        cfg = harness.ExperimentConfig(problem="quad2d", algo="nag", format="json",
                                       trace_path=str(tmp_path / name), **fields)
        harness.run_experiment(cfg)
        return (tmp_path / name).read_bytes()

    numpy_valued = trace_bytes("np.json", step=np.float64(0.4), iters=np.int64(20),
                               momentum_r=np.int64(3), x0="1,-2")
    assert numpy_valued == trace_bytes("py.json", step=0.4, iters=20, momentum_r=3,
                                       x0=[1.0, -2.0])
