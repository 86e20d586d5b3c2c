"""Malformed input files end in exit 1 and one ``error:`` line, never a traceback.

``main`` reads three kinds of JSON file: a ``run --config`` file, a
``lasso:<path>`` problem file and a ``certify --trace`` file. Each starts
here from a valid file, which a mutation then breaks.
"""

import json
import os
import tempfile

import pytest

from accelcert import harness

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CONFIG = {"problem": "quad2d", "algo": "m-nag", "step": 0.4, "iters": 5, "certify": True,
          "format": "json"}
# ref_iters keeps a mutated but well-formed file's reference solve short.
LASSO = {"A": [[1.0, 0.2], [0.1, 2.0]], "b": [1.0, -1.0], "lambda": 0.3, "ref_iters": 50}
ROLES = ("config", "lasso", "trace")


def _argv(role: str, path: str, tmp: str) -> list[str]:
    out = os.path.join(tmp, "out.json")
    if role == "config":
        return ["run", "--config", path, "--trace-out", out,
                "--certificate-out", os.path.join(tmp, "c.json")]
    if role == "lasso":
        return ["run", "--problem", f"lasso:{path}", "--algo", "m-fista", "--step", "0.1",
                "--r", "2", "--iters", "5", "--trace-out", out]
    return ["certify", "--trace", path, "--problem", "quad2d", "--out", out]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """role -> the bytes of a valid file of that role: a config, a lasso
    problem, and the JSON trace of a 5-step m-nag run."""
    tmp = tmp_path_factory.mktemp("valid")
    trace = tmp / "t.json"
    assert harness.main(["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4",
                         "--r", "2", "--iters", "5", "--format", "json",
                         "--trace-out", str(trace)]) == 0
    return {"config": json.dumps(CONFIG).encode(), "lasso": json.dumps(LASSO).encode(),
            "trace": trace.read_bytes()}


def _exit_and_stderr(capsys, role: str, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "wb") as fh:
            fh.write(data)
        capsys.readouterr()
        rc = harness.main(_argv(role, path, tmp))
    return rc, capsys.readouterr().err


def _assert_clean_exit(rc, err):
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_valid_files_run(capsys, valid_files):
    for role in ROLES:
        assert _exit_and_stderr(capsys, role, valid_files[role])[0] == 0


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` truncated at a byte, with one byte replaced, behind invalid
    UTF-8, or wrapped in nested JSON lists."""
    kind = draw(st.sampled_from(["truncate", "replace", "bad-utf8", "nest"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "replace":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "bad-utf8":
        return draw(st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80"])) + data
    depth = draw(st.integers(1, 100_000))
    return b"[" * depth + data + b"]" * depth


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.sampled_from(ROLES), st.data())
def test_mutated_input_file_exits_cleanly(capsys, valid_files, role, data):
    mutated = data.draw(mutations(valid_files[role]))
    _assert_clean_exit(*_exit_and_stderr(capsys, role, mutated))


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b"{\"A\": " + b"7" * 5000 + b"}"],
    ids=["utf16-bom", "deep-nesting", "5000-digit-int"],
)
def test_undecodable_input_file_is_a_usage_error(capsys, role, data):
    rc, err = _exit_and_stderr(capsys, role, data)
    assert rc == 1
    _assert_clean_exit(rc, err)
