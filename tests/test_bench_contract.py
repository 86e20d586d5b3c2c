"""The names the benchmark under ``perfbench/`` reads from the package.

``perfbench/tracing.py`` wraps the entry points in ``BOUNDARIES`` and reads
``Trace.records``, ``Certificate.rows``, ``problems.smooth_part`` and
``_core.backend_name``; ``perfbench/run.py`` times ``problems.resolve_s`` by
patching ``harness.resolve_problem``. A rename in the package would
otherwise surface only in the benchmark's self-test.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import accelcert as ac
from accelcert import _core, harness, problems
from accelcert import lyapunov as ly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_constant(name):
    """The literal value of the module-level ``name`` in perfbench/tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


@pytest.mark.parametrize("entry", _tracing_constant("BOUNDARIES"))
def test_boundary_resolves_to_a_callable(entry):
    layer, attr = entry.split(".")
    assert layer in _tracing_constant("LAYERS")
    assert callable(getattr(importlib.import_module(f"accelcert.{layer}"), attr))


def test_core_reports_its_backend():
    assert isinstance(_core.backend_name(), str)


def test_trace_records_and_certificate_rows(quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=20, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    records = trace.records
    assert len(records) == params.iters + 1
    assert {"x", "z"} <= {f.name for f in dataclasses.fields(records[0])}
    for k, rec in enumerate(records):
        assert np.array_equal(rec.x, trace.columns.x[k])
        assert (rec.z is None) == (k >= len(trace.columns.z))
    assert records[-1].z is None
    cert = ac.certify(trace, oracle, optimum)
    assert len(cert.rows) == len(records)
    assert len(ly.certificate_to_dict(cert)["rows"]) == len(records)


def test_smooth_part_reads_either_problem_kind(quad2d, lasso5):
    oracle, problem = quad2d[0], lasso5[0]
    assert problems.smooth_part(oracle) is oracle
    assert problems.smooth_part(problem) is problem.smooth


def test_run_and_certify_resolve_the_problem_once_through_harness(tmp_path, monkeypatch):
    calls = []

    def resolve(name):
        calls.append(name)
        return problems.resolve_problem(name)

    monkeypatch.setattr(harness, "resolve_problem", resolve)
    tr = str(tmp_path / "t.json")
    assert harness.main(["run", "--problem", "quad2d", "--algo", "m-fista", "--step", "0.4",
                         "--r", "2", "--iters", "20", "--certify", "--format", "json",
                         "--trace-out", tr,
                         "--certificate-out", str(tmp_path / "c.json")]) == 0
    assert calls == ["quad2d"]
    assert harness.main(["certify", "--trace", tr, "--problem", "quad2d",
                         "--out", str(tmp_path / "c2.json")]) == 0
    assert calls == ["quad2d", "quad2d"]
