"""The JSON renderer of traces and certificates against json.dumps.

``reference_trace`` and ``reference_certificate`` build the per-record dict
trees and write them with json.dumps; the renderer must give their bytes.
"""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest

import accelcert as ac
from accelcert import harness
from accelcert import lyapunov as ly
from accelcert.harness import emit_trace


def reference_trace(trace, optimum, certificate=None) -> str:
    """A JSON trace as the per-record dict tree, written by json.dumps."""
    energies, bounds = {}, {}
    if certificate is not None:
        energies = {row.k: row.energy for row in certificate.rows}
        bounds = {row.k: row.bound for row in certificate.rows}
    records = trace.records
    payload = {
        "kind": "accelcert-trace",
        "problem_id": trace.problem_id,
        "params": {
            "algo": trace.params.algo,
            "step": trace.params.step,
            "iters": trace.params.iters,
            "momentum_r": trace.params.momentum_r,
        },
        "records": [
            {
                "k": rec.k,
                "x": rec.x.tolist(),
                "y": rec.y.tolist(),
                "v": rec.v.tolist(),
                "z": None if rec.z is None else rec.z.tolist(),
                "f": float(rec.f_or_phi_at_x),
                "map": rec.first_order_at_y.tolist(),
                "f_gap": float(rec.f_or_phi_at_x) - optimum.f_star,
                "grad_norm": float(np.linalg.norm(rec.first_order_at_y)),
                "monotone_violation": int(
                    k > 0 and rec.f_or_phi_at_x > records[k - 1].f_or_phi_at_x
                ),
                "energy": energies.get(rec.k),
                "bound": bounds.get(rec.k),
            }
            for k, rec in enumerate(records)
        ],
    }
    return json.dumps(payload, check_circular=False) + "\n"


def reference_certificate(certificate) -> str:
    return json.dumps(ly.certificate_to_dict(certificate), check_circular=False) + "\n"


def _write(tmp_path, trace, optimum, certificate=None):
    """emit_trace's JSON trace and certificate bytes (certificate None if absent)."""
    tr, cert = tmp_path / "t.json", tmp_path / "c.json"
    emit_trace(trace, "json", str(tr), optimum=optimum, certificate=certificate,
               certificate_path=None if certificate is None else str(cert))
    return tr.read_text(), None if certificate is None else cert.read_text()


def _assert_same_text(got, want):
    # A plain assert would have pytest diff megabyte strings.
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def _assert_same_as_reference(tmp_path, trace, optimum, certificate=None):
    text, cert_text = _write(tmp_path, trace, optimum, certificate)
    _assert_same_text(text, reference_trace(trace, optimum, certificate))
    if certificate is not None:
        _assert_same_text(cert_text, reference_certificate(certificate))


CASES = [
    ("quad2d", "gd", 0.4, None),
    ("quad2d", "nag", 0.4, 2.0),
    ("quad2d", "nag-phase", 0.4, 2.0),
    ("quad2d", "m-nag", 0.4, 3.0),
    ("quad2d", "fista", 0.3, 2.0),
    ("quad2d", "m-fista", 0.4, 2.0),
    ("quad2d", "nag-sc", 0.4, None),
    ("quad2d", "m-nag-sc", 0.4, None),
    ("lasso5", "fista", 0.3, 3.0),
    ("lasso5", "m-fista", 0.3, 3.0),
]


@pytest.mark.parametrize("name,algo,step,r", CASES)
def test_render_matches_json_dumps_for_every_scheme(tmp_path, quad2d, lasso5, name, algo, step,
                                                    r):
    problem, optimum = lasso5 if name == "lasso5" else quad2d
    x0 = [0.7, -1.3] if name == "quad2d" else [0.3, -0.2, 0.5, 1.0, -1.0]
    params = ac.RunParams(algo=algo, step=step, iters=400, momentum_r=r)
    trace = ac.run(problem, params, x0, problem_id=name)
    certificate = None
    if algo in ly.CERTIFIABLE_ALGOS:
        certificate = ac.certify(trace, problem, optimum)
    _assert_same_as_reference(tmp_path, trace, optimum, certificate)
    if certificate is not None:
        _assert_same_as_reference(tmp_path, trace, optimum)


def test_render_keeps_negative_zero_apart(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=20, momentum_r=2.0)
    trace = ac.run(oracle, params, [-0.0, 0.0], problem_id="quad2d")
    certificate = ac.certify(trace, oracle, optimum)
    text, _ = _write(tmp_path, trace, optimum, certificate)
    assert '"x": [-0.0, 0.0]' in text
    _assert_same_as_reference(tmp_path, trace, optimum, certificate)


def _with_non_finite(trace):
    f, x, m, z = (col.copy() for col in (trace.f, trace.x, trace.map, trace.z))
    f[1] = float("inf")
    x[2] = [float("nan"), 1.0]
    m[3] = [float("-inf"), 0.0]
    z[4] = [-0.0, float("-nan")]
    return dataclasses.replace(trace, f=f, x=x, map=m, z=z)


def test_render_spells_non_finite_values_as_json_dumps(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=12, momentum_r=2.0)
    trace = _with_non_finite(ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d"))
    certificate = ac.certify(trace, oracle, optimum)
    text, cert_text = _write(tmp_path, trace, optimum, certificate)
    for token in ("Infinity", "-Infinity", "NaN"):
        assert token in text
    assert "Infinity" in cert_text and "NaN" in cert_text
    _assert_same_as_reference(tmp_path, trace, optimum, certificate)


def test_render_mixes_z_rows_and_nulls(tmp_path, quad2d):
    # A monotone trace's z is a vector on every record but the last, which is null.
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=9, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    text, _ = _write(tmp_path, trace, optimum)
    records = json.loads(text)["records"]
    assert [rec["z"] is None for rec in records] == [False] * params.iters + [True]
    assert text.count('"z": [') == params.iters
    _assert_same_as_reference(tmp_path, trace, optimum)


def test_render_escapes_problem_id(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=5, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id='100% "quad" – ü %s %(k)s')
    _assert_same_as_reference(tmp_path, trace, optimum, ac.certify(trace, oracle, optimum))


@pytest.mark.parametrize(
    "n_records", [2, harness.RENDER_CHUNK - 1, harness.RENDER_CHUNK, harness.RENDER_CHUNK + 1]
)
def test_render_across_chunk_edges(tmp_path, quad2d, n_records):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=n_records - 1, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    certificate = ac.certify(trace, oracle, optimum) if n_records > 2 else None
    _assert_same_as_reference(tmp_path, trace, optimum, certificate)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _floats(tree):
    if isinstance(tree, float):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _floats(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _floats(value)


def test_formatter_runs_once_per_distinct_bit_pattern(tmp_path, quad2d, monkeypatch):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=300, momentum_r=2.0)
    trace = ac.run(oracle, params, [-0.0, 1.0], problem_id="quad2d")
    certificate = ac.certify(trace, oracle, optimum)
    calls = []
    fmt = harness._format_float

    def counting(value):
        calls.append(value)
        return fmt(value)

    monkeypatch.setattr(harness, "_format_float", counting)
    text, cert_text = _write(tmp_path, trace, optimum, certificate)
    # Every float of the records and rows; params.step is in the header,
    # which json.dumps writes.
    floats = [*_floats(json.loads(text)["records"]), *_floats(json.loads(cert_text)["rows"])]
    called = [_bits(v) for v in calls]
    assert len(called) == len(set(called))
    assert set(called) == {_bits(v) for v in floats}
    # The trace and certificate repeat values: f_gap is f when f* = 0 and
    # the certificate's gap, bound and energy are the trace's.
    assert len(called) < len(floats) / 2


def _lasso_file(tmp_path, seed):
    rng = np.random.default_rng(seed)
    A = np.eye(5) + 0.25 * rng.standard_normal((5, 5))
    b = rng.uniform(-2.0, 2.0, 5)
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps({"A": A.tolist(), "b": b.tolist(), "lambda": 0.4}))
    return f"lasso:{path}", 0.9 / float(np.linalg.eigvalsh(A.T @ A)[-1])


@pytest.mark.parametrize("case", ["m-nag-quad2d", "fista-lasso"])
def test_certify_out_reproduces_run_certificate_bytes(tmp_path, capsys, case):
    if case == "fista-lasso":
        algo, (problem, step), r, x0 = "fista", _lasso_file(tmp_path, 11), "3", "0.3,-0.2,0.5,1,-1"
    else:
        algo, problem, step, r, x0 = "m-nag", "quad2d", 0.4, "2", "0.7,-1.3"
    tr, cert, cert2 = tmp_path / "t.json", tmp_path / "c.json", tmp_path / "c2.json"
    rc = harness.main(["run", "--problem", problem, "--algo", algo, "--step", repr(step),
                       "--r", r, "--iters", "600", f"--x0={x0}", "--format", "json",
                       "--certify", "--trace-out", str(tr), "--certificate-out", str(cert)])
    assert rc == 0
    assert harness.main(["certify", "--trace", str(tr), "--problem", problem,
                         "--out", str(cert2)]) == 0
    _assert_same_text(cert2.read_bytes(), cert.read_bytes())
    capsys.readouterr()
    assert harness.main(["certify", "--trace", str(tr), "--problem", problem]) == 0
    _assert_same_text(capsys.readouterr().out, cert.read_text())
