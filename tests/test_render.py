"""The renderer of traces and certificates against json.dumps and csv.writer.

``reference_trace`` and ``reference_certificate`` build the per-record dict
trees and write them with json.dumps, and ``reference_csv`` writes the CSV
rows with csv.writer; the renderer must give their bytes.
"""

import csv
import dataclasses
import io
import json
import os
import struct

import numpy as np
import pytest

import accelcert as ac
from accelcert import harness
from accelcert import lyapunov as ly
from accelcert.algorithms import SCHEMES
from accelcert.harness import emit_trace


def reference_trace(trace, optimum, certificate=None) -> str:
    """A JSON trace as the per-record dict tree, written by json.dumps."""
    energies, bounds = {}, {}
    if certificate is not None:
        energies = {row.k: row.energy for row in certificate.rows}
        bounds = {row.k: row.bound for row in certificate.rows}
    f = trace.f.tolist()
    zs = trace.z.tolist() + [None] * (len(f) - len(trace.z))
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
                "k": k,
                "x": x.tolist(),
                "y": y.tolist(),
                "v": v.tolist(),
                "z": z,
                "f": f[k],
                "map": m.tolist(),
                "f_gap": f[k] - optimum.f_star,
                "grad_norm": float(np.linalg.norm(m)),
                "monotone_violation": int(k > 0 and f[k] > f[k - 1]),
                "energy": energies.get(k),
                "bound": bounds.get(k),
            }
            for k, (x, y, v, m, z) in enumerate(zip(trace.x, trace.y, trace.v, trace.map, zs))
        ],
    }
    return json.dumps(payload, check_circular=False) + "\n"


def reference_certificate(certificate) -> str:
    return json.dumps(ly.certificate_to_dict(certificate), check_circular=False) + "\n"


def reference_csv(trace, optimum, certificate=None) -> str:
    """A CSV trace as csv.writer writes its rows, numbers as format(v, ".17g")."""
    def fmt(value):
        return "" if value is None else format(value, ".17g")

    d = trace.x.shape[1]
    rows = [None] * len(trace.f) if certificate is None else certificate.rows
    f = trace.f.tolist()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "f_gap", "grad_norm", *(f"x{i}" for i in range(d)),
                     *(f"y{i}" for i in range(d)), "monotone_violation", "energy", "bound"])
    for k, (x, y, m, row) in enumerate(zip(trace.x, trace.y, trace.map, rows)):
        writer.writerow([
            k,
            fmt(f[k] - optimum.f_star),
            fmt(float(np.linalg.norm(m))),
            *map(fmt, x.tolist()),
            *map(fmt, y.tolist()),
            int(k > 0 and f[k] > f[k - 1]),
            fmt(None if row is None else row.energy),
            fmt(None if row is None else row.bound),
        ])
    return buf.getvalue()


def _write(tmp_path, trace, optimum, certificate=None):
    """emit_trace's JSON trace and certificate bytes (certificate None if absent)."""
    tr, cert = tmp_path / "t.json", tmp_path / "c.json"
    emit_trace(trace, "json", str(tr), optimum=optimum, certificate=certificate,
               certificate_path=None if certificate is None else str(cert))
    return tr.read_text(), None if certificate is None else cert.read_text()


def _write_csv(tmp_path, trace, optimum, certificate=None):
    """emit_trace's CSV trace and certificate texts, line ends as written."""
    tr, cert = tmp_path / "t.csv", tmp_path / "c.json"
    emit_trace(trace, "csv", str(tr), optimum=optimum, certificate=certificate,
               certificate_path=None if certificate is None else str(cert))
    return tr.read_bytes().decode(), None if certificate is None else cert.read_text()


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


def _assert_csv_same_as_reference(tmp_path, trace, optimum, certificate=None):
    text, cert_text = _write_csv(tmp_path, trace, optimum, certificate)
    _assert_same_text(text, reference_csv(trace, optimum, certificate))
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
    if SCHEMES[algo].certifiable:
        certificate = ac.certify(trace, problem, optimum)
    _assert_same_as_reference(tmp_path, trace, optimum, certificate)
    if certificate is not None:
        _assert_same_as_reference(tmp_path, trace, optimum)


@pytest.mark.parametrize("name,algo,step,r", CASES)
def test_csv_matches_csv_writer_for_every_scheme(tmp_path, quad2d, lasso5, name, algo, step, r):
    problem, optimum = lasso5 if name == "lasso5" else quad2d
    x0 = [0.7, -1.3] if name == "quad2d" else [0.3, -0.2, 0.5, 1.0, -1.0]
    params = ac.RunParams(algo=algo, step=step, iters=400, momentum_r=r)
    trace = ac.run(problem, params, x0, problem_id=name)
    if SCHEMES[algo].certifiable:
        _assert_csv_same_as_reference(tmp_path, trace, optimum, ac.certify(trace, problem, optimum))
    _assert_csv_same_as_reference(tmp_path, trace, optimum)


@pytest.mark.parametrize("d", [1, 50])
@pytest.mark.parametrize("algo,r", [("gd", None), ("nag-sc", None), ("m-nag-sc", None),
                                    ("nag", 2.0), ("m-nag", 3.5)])
def test_csv_matches_csv_writer_across_dimensions(tmp_path, d, algo, r):
    oracle, optimum = ac.make_quadratic(np.geomspace(5e-3, 1.0, d))
    x0 = np.linspace(-1.0, 1.0, d) if d > 1 else [-0.7]
    trace = ac.run(oracle, ac.RunParams(algo=algo, step=0.4, iters=300, momentum_r=r), x0)
    certificate = None
    if SCHEMES[algo].certifiable:
        certificate = ac.certify(trace, oracle, optimum)
    _assert_csv_same_as_reference(tmp_path, trace, optimum, certificate)


def test_csv_keeps_negative_zero_apart(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=20, momentum_r=2.0)
    trace = ac.run(oracle, params, [-0.0, 0.0], problem_id="quad2d")
    certificate = ac.certify(trace, oracle, optimum)
    text, _ = _write_csv(tmp_path, trace, optimum, certificate)
    assert text.splitlines()[1].split(",")[3:7] == ["-0", "0", "-0", "0"]
    _assert_csv_same_as_reference(tmp_path, trace, optimum, certificate)


def test_csv_spells_non_finite_values_as_csv_writer(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=12, momentum_r=2.0)
    trace = _with_non_finite(ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d"))
    certificate = ac.certify(trace, oracle, optimum)
    text, _ = _write_csv(tmp_path, trace, optimum, certificate)
    for token in (",inf,", ",nan,"):
        assert token in text
    _assert_csv_same_as_reference(tmp_path, trace, optimum, certificate)


# Record counts on either side of the first and second chunk boundary.
_CHUNK_EDGES = [2] + [
    edge + offset for edge in (harness.RENDER_CHUNK, 2 * harness.RENDER_CHUNK) for offset in (-1, 0, 1)
]


@pytest.mark.parametrize("n_records", _CHUNK_EDGES)
def test_csv_across_chunk_edges(tmp_path, quad2d, n_records):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=n_records - 1, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    certificate = ac.certify(trace, oracle, optimum) if n_records > 2 else None
    _assert_csv_same_as_reference(tmp_path, trace, optimum, certificate)
    text, _ = _write_csv(tmp_path, trace, optimum, certificate)
    assert text.count("\r\n") == text.count("\n") == n_records + 1


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


@pytest.mark.parametrize("n_records", _CHUNK_EDGES)
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


def _spy_on_reprs(monkeypatch):
    """The bit patterns of each harness.reprs call, one set per call; a call
    that spells a pattern twice fails."""
    calls = []
    spell = harness.reprs

    def recording(values, special):
        calls.append({_bits(v) for v in values.tolist()})
        assert len(calls[-1]) == len(values)  # no pattern twice in one call
        return spell(values, special)

    monkeypatch.setattr(harness, "reprs", recording)
    return calls


def _assert_spelled_by_chunk(calls, text, cert_text):
    """The certificate's floats are spelled in the first call, and each later
    call spells one chunk's own trace floats: all but its energy and bound,
    which are the certificate's. Together they are every float written."""
    records = json.loads(text)["records"]
    cert_floats = {_bits(v) for v in _floats(json.loads(cert_text)["rows"])}
    chunks = [records[rows] for rows in harness._chunks(len(records))]
    assert calls[0] == cert_floats and len(calls) == 1 + len(chunks)
    for call, chunk in zip(calls[1:], chunks):
        own = [{k: v for k, v in rec.items() if k not in ("energy", "bound")} for rec in chunk]
        assert call == {_bits(v) for v in _floats(own)}
    # params.step is in the header, which json.dumps writes.
    assert set().union(*calls) == {_bits(v) for v in _floats(records)} | cert_floats


def test_formatter_runs_once_per_distinct_bit_pattern(tmp_path, quad2d, monkeypatch):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=300, momentum_r=2.0)
    trace = ac.run(oracle, params, [-0.0, 1.0], problem_id="quad2d")
    certificate = ac.certify(trace, oracle, optimum)
    calls = _spy_on_reprs(monkeypatch)
    text, cert_text = _write(tmp_path, trace, optimum, certificate)
    _assert_spelled_by_chunk(calls, text, cert_text)
    # The trace repeats values: f_gap is f when f* = 0, and z_k is x_{k+1}
    # on accepted steps.
    n_floats = sum(1 for _ in _floats(json.loads(text)["records"]))
    assert len(calls[1]) < n_floats / 2


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


def test_json_trace_is_spelled_a_chunk_at_a_time(tmp_path, monkeypatch):
    # The certificate's floats are spelled first, by themselves; each later
    # call spells one chunk's trace floats.
    oracle, optimum = ac.make_quadratic(np.geomspace(5e-3, 1.0, 50))
    params = ac.RunParams(algo="m-nag", step=0.4, iters=2 * harness.RENDER_CHUNK, momentum_r=2.0)
    trace = ac.run(oracle, params, np.linspace(-1.0, 1.0, 50))
    certificate = ac.certify(trace, oracle, optimum)
    calls = _spy_on_reprs(monkeypatch)
    text, cert_text = _write(tmp_path, trace, optimum, certificate)
    _assert_spelled_by_chunk(calls, text, cert_text)
    assert len(calls) == 4
    _assert_same_as_reference(tmp_path, trace, optimum, certificate)


def test_float_tokens_spell_each_pattern_once_as_json_dumps():
    # Signed zeros, a NaN with a payload, infinities and subnormals, spread
    # over two columns of different shapes.
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    specials = [-0.0, 0.0, float("nan"), nan_payload, float("inf"), float("-inf"), 5e-324]
    grid = np.array([specials, [2.5e-310, -0.0, 7.0, 1.5, 0.1, 0.0, -5e-324]])
    column = np.array(specials[::-1] + [1.5, 1e300])
    seen = []

    def spelling(values):
        seen.append(values.view(np.int64).copy())
        return harness._json_spelling(values)

    got_grid, got_column = harness._float_tokens(spelling, grid, column)
    assert got_grid.shape == grid.shape and got_column.shape == column.shape
    assert got_grid.tolist() == [[json.dumps(v) for v in row] for row in grid.tolist()]
    assert got_column.tolist() == [json.dumps(v) for v in column.tolist()]
    assert got_grid[0].tolist() == ["-0.0", "0.0", "NaN", "NaN", "Infinity", "-Infinity",
                                    "5e-324"]
    patterns = np.concatenate([grid.ravel(), column]).view(np.int64).tolist()
    assert len(seen) == 1 and sorted(seen[0].tolist()) == sorted(set(patterns))
