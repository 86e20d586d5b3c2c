import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import accelcert as ac
from accelcert import harness
from conftest import LASSO5_A, LASSO5_B, LASSO5_LAM
from accelcert.harness import (
    ExperimentConfig,
    UsageError,
    emit_trace,
    load_trace,
    parse_config,
    preset,
    run_experiment,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_config_figure_run():
    cfg = parse_config(
        ["--problem", "quad2d", "--algo", "m-nag", "--step", "0.4", "--r", "2",
         "--iters", "200"]
    )
    assert cfg.problem == "quad2d"
    assert cfg.algo == "m-nag"
    assert cfg.step == 0.4
    assert cfg.momentum_r == 2.0
    assert cfg.iters == 200
    assert cfg.format == "csv"
    assert cfg.output_paths() == ("trace.csv", None)


def test_parse_config_requires_r_on_cli():
    with pytest.raises(UsageError):
        parse_config(["--problem", "quad2d", "--algo", "nag", "--step", "0.4"])


def test_parse_config_file_defaults_r(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "quad2d", "algo": "nag", "step": 0.4}))
    cfg = parse_config(str(path))
    assert cfg.momentum_r == 2.0
    assert cfg.iters == 200


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "quad2d", "algo": "nag", "step": 0.4,
                                "stepsize": 0.1}))
    with pytest.raises(UsageError):
        parse_config(str(path))


def test_cli_flags_override_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "quad2d", "algo": "nag", "step": 0.4,
                                "iters": 10}))
    cfg = parse_config(["--config", str(path), "--iters", "25", "--algo", "m-nag"])
    assert cfg.iters == 25
    assert cfg.algo == "m-nag"
    assert cfg.step == 0.4


def test_main_exit_codes_for_bad_configs(tmp_path, capsys):
    # missing --r for an r-family algorithm
    assert harness.main(["run", "--problem", "quad2d", "--algo", "nag",
                         "--step", "0.4"]) == 1
    # step outside (0, 1/L) for quad2d (1/L = 0.5)
    assert harness.main(["run", "--problem", "quad2d", "--algo", "nag",
                         "--step", "0.6", "--r", "2",
                         "--trace-out", str(tmp_path / "t.csv")]) == 1
    assert harness.main(["run", "--problem", "quad9", "--algo", "nag",
                         "--step", "0.4", "--r", "2"]) == 1
    assert harness.main(["run", "--problem", "quad2d", "--algo", "sgd",
                         "--step", "0.4"]) == 1
    assert harness.main(["preset", "fig3"]) == 1
    capsys.readouterr()


def test_run_writes_csv_with_expected_shape(tmp_path):
    out = tmp_path / "t.csv"
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                       "--r", "2", "--iters", "2", "--trace-out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["k", "f_gap", "grad_norm", "x0", "x1", "y0", "y1",
                      "monotone_violation", "energy", "bound"]
    assert len(rows) == 3  # one line per record; 4 file lines with the header
    assert rows[0][8] == "" and rows[0][9] == ""  # no certificate requested


def test_csv_numbers_roundtrip(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=5, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    path = tmp_path / "t.csv"
    emit_trace(trace, "csv", str(path), optimum=optimum)
    _, rows = read_csv(path)
    for f, x, row in zip(trace.f, trace.x, rows):
        assert float(row[1]) == f - optimum.f_star
        assert float(row[3]) == x[0] and float(row[4]) == x[1]


def test_json_roundtrip_is_bit_exact(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=40, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    path = tmp_path / "t.json"
    emit_trace(trace, "json", str(path), optimum=optimum)

    payload = json.loads(path.read_text())
    for f, stored in zip(trace.f, payload["records"]):
        assert stored["f_gap"] == f - optimum.f_star

    loaded = load_trace(str(path))
    assert loaded.params == trace.params
    assert loaded.problem_id == "quad2d"
    # z compares by shape too: the same records hold a candidate.
    for name in ("x", "y", "v", "map", "f", "z"):
        assert np.array_equal(getattr(trace, name), getattr(loaded, name)), name


def test_reingested_trace_recertifies_identically(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=60, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    cert = ac.certify(trace, oracle, optimum)
    path = tmp_path / "t.json"
    emit_trace(trace, "json", str(path), optimum=optimum, certificate=cert)
    cert2 = ac.certify(load_trace(str(path)), oracle, optimum)
    assert cert2 == cert


def test_reloaded_trace_rewrites_identical_bytes(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=60, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    z = trace.z
    texts = []
    for i in range(2):
        tr, cert = tmp_path / f"t{i}.json", tmp_path / f"c{i}.json"
        emit_trace(trace, "json", str(tr), optimum=optimum,
                   certificate=ac.certify(trace, oracle, optimum), certificate_path=str(cert))
        texts.append((tr.read_bytes(), cert.read_bytes()))
        trace = load_trace(str(tr))
    assert texts[0][0].count(b'"z": null') == 1 and b'"z": [' in texts[0][0]
    assert texts[1] == texts[0]
    assert trace.z.shape == (params.iters, 2)
    assert trace.z.tobytes() == z.tobytes()


@pytest.mark.parametrize("algo,iters", [("nag", 2), ("m-nag", 2), ("nag", 50), ("m-fista", 50)])
def test_csv_trace_holds_the_certificate_columns(tmp_path, quad2d, algo, iters):
    oracle, optimum = quad2d
    params = ac.RunParams(algo=algo, step=0.4, iters=iters, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0])
    cert = ac.certify(trace, oracle, optimum)
    path = tmp_path / "t.csv"
    emit_trace(trace, "csv", str(path), optimum=optimum, certificate=cert)
    header, rows = read_csv(path)
    assert len(rows) == iters + 1
    for k, (row, cert_row) in enumerate(zip(rows, cert.rows)):
        energy, bound = row[header.index("energy")], row[header.index("bound")]
        assert (energy == "") == (k == iters) == (cert_row.energy is None)
        assert (bound == "") == (k == 0) == (cert_row.bound is None)
        assert energy == "" or float(energy) == cert_row.energy
        assert bound == "" or float(bound) == cert_row.bound


def test_load_trace_rejects_csv(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=3, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0])
    path = tmp_path / "t.csv"
    emit_trace(trace, "csv", str(path), optimum=optimum)
    with pytest.raises(UsageError):
        load_trace(str(path))


def test_configs_of_every_origin_get_the_same_default_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    mapping = {"problem": "quad2d", "algo": "m-nag", "step": 0.4, "iters": 20, "certify": True}
    (tmp_path / "cfg.json").write_text(json.dumps(mapping))
    flags = ["--problem", "quad2d", "--algo", "m-nag", "--step", "0.4", "--r", "2",
             "--iters", "20", "--certify"]
    configs = [ExperimentConfig(**mapping, momentum_r=2.0), parse_config(mapping),
               parse_config("cfg.json"), parse_config(flags)]
    assert {c.output_paths() for c in configs} == {("trace.csv", "certificate.json")}
    for cfg in (*preset("fig1"), *preset("fig2")):
        assert cfg.output_paths() == ("trace.csv", None)
    direct = ExperimentConfig(problem="quad2d", algo="gd", step=0.4, format="json")
    assert direct.output_paths() == ("trace.json", None)
    run_experiment(direct)
    assert load_trace("trace.json").params.algo == "gd"
    run_experiment(preset("fig1")[0])
    _, rows = read_csv("trace.csv")
    assert len(rows) == 201
    run_experiment(configs[0])
    assert json.loads((tmp_path / "certificate.json").read_text())["pass"] is True
    os.remove("certificate.json")
    assert harness.main(["run", *flags]) == 0
    assert "PASS (K=0) -> certificate.json" in capsys.readouterr().out
    assert json.loads((tmp_path / "certificate.json").read_text())["pass"] is True


@pytest.mark.parametrize(
    "fmt,guard", [("xml", None), ("json", "path-without-certificate"),
                  ("csv", "certificate-of-other-rows"), ("json", "certificate-of-other-rows")],
)
def test_emit_trace_guards(tmp_path, quad2d, fmt, guard):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="nag", step=0.4, iters=10, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0])
    longer = ac.run(oracle, dataclasses.replace(params, iters=12), [1.0, 1.0])
    kwargs = {
        "path-without-certificate": {"certificate_path": str(tmp_path / "c.json")},
        "certificate-of-other-rows": {"certificate": ac.certify(longer, oracle, optimum)},
    }.get(guard, {})
    with pytest.raises(UsageError):
        emit_trace(trace, fmt, str(tmp_path / "t"), optimum=optimum, **kwargs)
    assert list(tmp_path.iterdir()) == []


def test_certified_run_writes_certificate(tmp_path):
    tr = tmp_path / "t.csv"
    certificate = tmp_path / "c.json"
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4",
                       "--r", "2", "--iters", "50", "--certify",
                       "--trace-out", str(tr), "--certificate-out", str(certificate)])
    assert rc == 0
    payload = json.loads(certificate.read_text())
    assert payload["pass"] is True and payload["K"] == 0
    header, rows = read_csv(tr)
    energy_col = header.index("energy")
    assert rows[0][energy_col] != ""  # filled when certifying
    assert rows[-1][energy_col] == ""  # E(k) needs record k+1


def test_certify_subcommand_roundtrip(tmp_path):
    tr = tmp_path / "t.json"
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                       "--r", "2", "--iters", "50", "--format", "json",
                       "--trace-out", str(tr)])
    assert rc == 0
    out = tmp_path / "c.json"
    rc = harness.main(["certify", "--trace", str(tr), "--problem", "quad2d",
                       "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["pass"] is True


def test_certify_subcommand_flags_tampering(tmp_path, capsys):
    tr = tmp_path / "t.json"
    harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                  "--r", "2", "--iters", "50", "--format", "json",
                  "--trace-out", str(tr)])
    payload = json.loads(tr.read_text())
    payload["records"][10]["f"] += 1.0
    tr.write_text(json.dumps(payload))
    rc = harness.main(["certify", "--trace", str(tr), "--problem", "quad2d",
                       "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "FAIL at k=" in capsys.readouterr().err


def test_certify_exit_code_via_run(tmp_path):
    # gd has no certificate; asking for one is a usage error, not a crash.
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "gd", "--step", "0.4",
                       "--certify", "--trace-out", str(tmp_path / "t.csv")])
    assert rc == 1


def test_unwritable_trace_path_is_reported(tmp_path):
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                       "--r", "2", "--iters", "5",
                       "--trace-out", str(tmp_path / "missing" / "t.csv")])
    assert rc == 1


@pytest.mark.parametrize("algo", ["nag", "nag-phase", "fista"])
def test_xy_energy_gives_the_verdicts_of_the_schemes_form(quad2d, algo):
    # The paper's equivalence: once x, y and v obey the position-velocity
    # relation, the velocity-free energy certifies as the velocity one does.
    params = ac.RunParams(algo=algo, step=0.4, iters=200, momentum_r=2.0)
    trace = ac.run(quad2d[0], params, [1.0, 1.0], problem_id="quad2d")
    default = ac.certify(trace, *quad2d)
    xy = ac.certify(trace, *quad2d, form="xy")
    assert default.overall_pass and xy.overall_pass
    assert np.array_equal(xy.bound_ok, default.bound_ok)
    assert np.array_equal(xy.decrease_ok, default.decrease_ok)


def test_preset_definitions():
    fig1 = preset("fig1")
    assert [cfg.algo for cfg in fig1] == ["nag", "m-nag"]
    assert all(cfg.problem == "quad2d" and cfg.step == 0.4 and cfg.momentum_r == 2.0
               for cfg in fig1)
    fig2 = preset("fig2")
    assert [cfg.algo for cfg in fig2] == ["gd", "nag-sc", "m-nag-sc"]
    assert all(cfg.step == 0.01 for cfg in fig2)
    with pytest.raises(UsageError):
        preset("fig3")


@pytest.fixture(scope="module")
def fig_outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    assert harness.main(["preset", "fig1", "--outdir", str(outdir)]) == 0
    assert harness.main(["preset", "fig2", "--outdir", str(outdir)]) == 0
    return outdir


def test_fig1_reproduces_qualitative_pattern(fig_outputs):
    _, nag_rows = read_csv(fig_outputs / "fig1_nag.csv")
    _, mnag_rows = read_csv(fig_outputs / "fig1_m-nag.csv")
    nag_flags = [int(row[7]) for row in nag_rows]
    mnag_flags = [int(row[7]) for row in mnag_rows]
    assert sum(nag_flags) > 0
    assert sum(mnag_flags) == 0


def test_fig2_accelerated_methods_beat_gd(fig_outputs):
    def first_hit(name, level=1e-4):
        _, rows = read_csv(fig_outputs / name)
        for row in rows:
            if float(row[1]) <= level:
                return int(row[0])
        return None

    gd_hit = first_hit("fig2_gd.csv")
    sc_hit = first_hit("fig2_nag-sc.csv")
    msc_hit = first_hit("fig2_m-nag-sc.csv")
    assert sc_hit is not None and msc_hit is not None
    assert gd_hit is None or (sc_hit <= gd_hit and msc_hit <= gd_hit)


def test_identical_invocations_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
            "--r", "2", "--iters", "80"]
    assert harness.main(argv + ["--trace-out", str(a)]) == 0
    assert harness.main(argv + ["--trace-out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lasso_problem_via_cli(tmp_path):
    problem_file = tmp_path / "lasso.json"
    problem_file.write_text(json.dumps({
        "A": [[1.0, 0.0], [0.0, 1.0]], "b": [3.0, -3.0], "lambda": 1.0,
        "ref_iters": 50_000,
    }))
    tr = tmp_path / "t.json"
    rc = harness.main(["run", "--problem", f"lasso:{problem_file}", "--algo", "fista",
                       "--step", "0.5", "--r", "2", "--iters", "60", "--certify",
                       "--format", "json", "--trace-out", str(tr),
                       "--certificate-out", str(tmp_path / "c.json")])
    assert rc == 0
    rc = harness.main(["certify", "--trace", str(tr),
                       "--problem", f"lasso:{problem_file}",
                       "--out", str(tmp_path / "c2.json")])
    assert rc == 0
    assert json.loads((tmp_path / "c.json").read_text()) == json.loads(
        (tmp_path / "c2.json").read_text()
    )


def test_run_experiment_returns_trace_and_certificate(tmp_path):
    cfg = ExperimentConfig(
        problem="quad2d", algo="m-nag", step=0.4, momentum_r=2.0, iters=30,
        x0=(1.0, 1.0), trace_path=str(tmp_path / "t.csv"),
        certificate_path=str(tmp_path / "c.json"), certify=True,
    )
    trace, cert = run_experiment(cfg)
    assert trace.iters == 30
    assert cert is not None and cert.overall_pass


def test_stationary_start_via_cli(tmp_path):
    out = tmp_path / "t.csv"
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                       "--r", "2", "--iters", "5", "--x0", "0,0", "--certify",
                       "--trace-out", str(out),
                       "--certificate-out", str(tmp_path / "c.json")])
    assert rc == 0
    _, rows = read_csv(out)
    assert all(float(row[1]) == 0.0 for row in rows)


@pytest.mark.parametrize(
    "flags",
    [
        ["--algo", "nag", "--step", "0.4", "--r", "nan", "--certify"],
        ["--algo", "nag", "--step", "0.4", "--r", "inf", "--certify"],
        ["--algo", "gd", "--step", "nan"],
        ["--algo", "nag", "--step", "0.4", "--r", "2", "--x0=nan,1", "--certify"],
    ],
)
def test_non_finite_run_parameters_are_usage_errors(tmp_path, capsys, flags):
    rc = harness.main(["run", "--problem", "quad2d", "--iters", "5", *flags,
                       "--trace-out", str(tmp_path / "t.csv"),
                       "--certificate-out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _drop_params(payload):
    del payload["params"]


def _drop_map(payload):
    del payload["records"][2]["map"]


def _grow_record(payload):
    payload["records"][3]["x"].append(0.0)


def _nan_x(payload):
    payload["records"][4]["x"][0] = float("nan")


def _inf_y(payload):
    payload["records"][5]["y"][1] = float("inf")


def _nan_v(payload):
    payload["records"][3]["v"][0] = float("nan")


def _nan_z(payload):
    payload["records"][2]["z"] = [float("nan"), 0.0]


def _inf_map(payload):
    payload["records"][6]["map"][1] = float("-inf")


def _nan_f(payload):
    payload["records"][7]["f"] = float("nan")


def _quoted_x(payload):
    payload["records"][4]["x"] = [str(v) for v in payload["records"][4]["x"]]


def _bool_x(payload):
    payload["records"][4]["x"] = [True, True]


def _bool_f(payload):
    payload["records"][7]["f"] = True


def _k_not_index(payload):
    payload["records"][2]["k"] = "two"


def _k_shifted(payload):
    payload["records"][3]["k"] = 4


def _iters_mismatch(payload):
    payload["params"]["iters"] = 12


def _drop_last_record(payload):
    payload["records"].pop()


def _float_iters(payload):
    payload["params"]["iters"] = float(payload["params"]["iters"])


def _bool_step(payload):
    payload["params"]["step"] = True


def _z_on_nag(payload):
    payload["records"][3]["z"] = [0.0, 0.0]


def _int_problem_id(payload):
    payload["problem_id"] = 123


@pytest.mark.parametrize(
    "mutate",
    [
        _drop_params, _drop_map, _grow_record, _nan_x, _inf_y, _nan_v, _nan_z, _inf_map,
        _nan_f, _quoted_x, _k_not_index, _k_shifted, _iters_mismatch, _drop_last_record,
        _float_iters, _bool_step, _bool_x, _bool_f, _z_on_nag, _int_problem_id,
    ],
)
def test_certify_rejects_malformed_trace(tmp_path, capsys, mutate):
    tr = tmp_path / "t.json"
    harness.main(["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4",
                  "--r", "2", "--iters", "10", "--format", "json",
                  "--trace-out", str(tr)])
    payload = json.loads(tr.read_text())
    mutate(payload)
    tr.write_text(json.dumps(payload))
    with pytest.raises(UsageError):
        load_trace(str(tr))
    capsys.readouterr()
    rc = harness.main(["certify", "--trace", str(tr), "--problem", "quad2d",
                       "--out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _z_dropped(payload):
    payload["records"][5]["z"] = None


def _z_on_last_record(payload):
    payload["records"][-1]["z"] = [0.0, 0.0]


@pytest.mark.parametrize(
    "algo,mutate",
    [("m-nag", _z_dropped), ("m-nag", _z_on_last_record), ("nag", _z_on_nag), ("m-nag", _nan_z)],
)
def test_certify_checks_z_against_the_scheme(tmp_path, capsys, algo, mutate):
    # A monotone trace has a finite z on every record but the last; others have none.
    tr = tmp_path / "t.json"
    assert harness.main(["run", "--problem", "quad2d", "--algo", algo, "--step", "0.4",
                         "--r", "2", "--iters", "30", "--format", "json",
                         "--trace-out", str(tr)]) == 0
    payload = json.loads(tr.read_text())
    mutate(payload)
    tr.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = harness.main(["certify", "--trace", str(tr), "--problem", "quad2d",
                       "--out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "z" in err


def test_certify_refuses_to_write_over_its_trace(tmp_path, capsys, monkeypatch):
    tr = tmp_path / "t.json"
    harness.main(["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4", "--r", "2",
                  "--iters", "30", "--format", "json", "--trace-out", str(tr)])
    before = tr.read_bytes()
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert harness.main(["certify", "--trace", "t.json", "--problem", "quad2d",
                         "--out", str(tr)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert tr.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


LASSO_2X2 = {"A": [[2.0, 0.5], [0.5, 1.0]], "b": [1.0, -1.0], "lambda": 0.1}
OVERWRITES = {
    "trace-over-lasso": (LASSO_2X2, ["run", "--problem", "lasso:in.json", "--algo", "fista",
                                     "--step", "0.1", "--r", "2", "--iters", "5",
                                     "--format", "json", "--trace-out", "in.json"]),
    "certificate-over-lasso": (LASSO_2X2, ["run", "--problem", "lasso:in.json", "--algo",
                                           "m-fista", "--step", "0.1", "--r", "2", "--iters",
                                           "5", "--certify", "--certificate-out", "./in.json"]),
    "trace-over-config": ({"problem": "quad2d", "algo": "nag", "step": 0.4, "iters": 5,
                           "trace_path": "in.json"}, ["run", "--config", "in.json"]),
    "certify-out-over-lasso": (LASSO_2X2, ["certify", "--trace", "t.json", "--problem",
                                           "lasso:in.json", "--out", "in.json"]),
    # The library's route: parse_config("in.json") refuses the file, so no
    # run_experiment can write over it.
    "library-trace-over-config": ({"problem": "quad2d", "algo": "nag", "step": 0.4,
                                   "iters": 5, "trace_path": "in.json"}, None),
}


@pytest.mark.parametrize("payload,argv", OVERWRITES.values(), ids=OVERWRITES)
def test_outputs_may_not_overwrite_an_input(tmp_path, capsys, monkeypatch, payload, argv):
    def fail(*args, **kwargs):
        raise AssertionError("a refused output path reached the run")

    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    before = path.read_bytes()
    monkeypatch.chdir(tmp_path)
    for name in ("resolve_problem", "run", "load_trace"):
        monkeypatch.setattr(harness, name, fail)
    if argv is None:
        with pytest.raises(UsageError):
            harness.parse_config("in.json")
    else:
        rc = harness.main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


@pytest.mark.parametrize("out", ["d", "", "missing/c.json"])
def test_certify_refuses_an_out_path_that_names_no_file(tmp_path, capsys, monkeypatch, out):
    def fail(*args, **kwargs):
        raise AssertionError("a refused --out reached the trace")

    (tmp_path / "d").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "load_trace", fail)
    monkeypatch.setattr(harness, "resolve_problem", fail)
    rc = harness.main(["certify", "--trace", "t.json", "--problem", "quad2d", "--out", out])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any((tmp_path / "d").iterdir())


def test_certify_rejects_problem_of_other_dimension(tmp_path, capsys):
    tr = tmp_path / "t.json"
    rc = harness.main(["run", "--problem", "quad-diag:1,2,3", "--algo", "nag", "--step", "0.1",
                       "--r", "2", "--iters", "10", "--format", "json", "--trace-out", str(tr)])
    assert rc == 0
    capsys.readouterr()
    rc = harness.main(["certify", "--trace", str(tr), "--problem", "quad2d",
                       "--out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dimension" in err


def test_certify_rejects_problem_the_scheme_cannot_run_on(tmp_path, capsys, lasso5):
    # A smooth scheme's trace against an l1 lasso of the same dimension:
    # run refuses nag on that problem, so certify must too.
    tr, lasso = tmp_path / "t.json", tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"A": LASSO5_A, "b": LASSO5_B, "lambda": LASSO5_LAM}))
    rc = harness.main(["run", "--problem", "quad-diag:1,1,1,1,1", "--algo", "nag", "--step",
                       "0.1", "--r", "2", "--iters", "10", "--format", "json",
                       "--trace-out", str(tr)])
    assert rc == 0
    capsys.readouterr()
    rc = harness.main(["certify", "--trace", str(tr), "--problem", f"lasso:{lasso}",
                       "--out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(ac.InvalidProblemError):
        ac.certify(load_trace(str(tr)), *lasso5)


@pytest.mark.parametrize("algo,problem", [("nag", "quad-diag:1,1"), ("m-nag", "quad2d")])
def test_certify_rejects_a_step_outside_the_problems_range(tmp_path, capsys, algo, problem):
    # s = 0.4 runs on L = 2 but is outside (0, 1/6) for quad-diag:1,3 (L = 6).
    tr = tmp_path / "t.json"
    rc = harness.main(["run", "--problem", problem, "--algo", algo, "--step", "0.4",
                       "--r", "2", "--iters", "3000", "--format", "json",
                       "--trace-out", str(tr)])
    assert rc == 0
    capsys.readouterr()
    rc = harness.main(["certify", "--trace", str(tr), "--problem", "quad-diag:1,3",
                       "--out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 0.4 outside") and err.count("\n") == 1


def test_overflowing_start_point_is_a_usage_error(tmp_path, capsys):
    rc = harness.main(["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4",
                       "--r", "2", "--iters", "5", "--x0=1e200,1", "--format", "json",
                       "--certify", "--trace-out", str(tmp_path / "t.json"),
                       "--certificate-out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


def test_run_prints_f_drop_as_start_minus_end(tmp_path, capsys):
    argv = ["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4", "--r", "2",
            "--iters", "30", "--format", "json", "--trace-out", str(tmp_path / "t.json")]
    assert harness.main(argv) == 0
    out = capsys.readouterr().out
    drop = float(out.split("f drop ")[1].split()[0])
    f = load_trace(str(tmp_path / "t.json")).f
    assert drop > 0.0
    assert drop == float(f"{f[0] - f[-1]:.6g}")


def test_run_leaves_trace_records_unbuilt(tmp_path, capsys, monkeypatch):
    traces = []

    def recording_run(cfg):
        trace, certificate = run_experiment(cfg)
        traces.append(trace)
        return trace, certificate

    monkeypatch.setattr(harness, "run_experiment", recording_run)
    assert harness.main(["run", "--problem", "quad2d", "--algo", "m-nag", "--step", "0.4",
                         "--r", "2", "--iters", "30", "--certify", "--format", "json",
                         "--trace-out", str(tmp_path / "t.json"),
                         "--certificate-out", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()
    (trace,) = traces
    assert "records" not in vars(trace)


@pytest.mark.parametrize(
    "payload",
    [
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "x0": ["a", 1]},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "x0": 5},
        {"problem": "quad2d", "algo": "nag", "step": "abc"},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "iters": "10"},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "iters": 2.5},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "momentum_r": "x"},
        {"problem": 5, "algo": "nag", "step": 0.4},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "x0": "a,b"},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "energy_form": "kinetic"},
        [1, 2],
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "x0": "1,,2"},
        {"problem": "quad2d", "algo": "nag", "step": 0.4, "x0": "1,2,"},
        {"problem": "quad-diag:1,,2", "algo": "gd", "step": 0.1},
        {"problem": "quad-diag:1,2,", "algo": "gd", "step": 0.1},
    ],
)
def test_malformed_config_file_is_a_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    rc = harness.main(["run", "--config", str(path), "--trace-out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_types_cover_every_config_field():
    assert set(harness._CONFIG_TYPES) == set(ExperimentConfig.__dataclass_fields__)


def test_loaded_trace_columns_are_the_validated_arrays(tmp_path, quad2d):
    oracle, optimum = quad2d
    params = ac.RunParams(algo="m-nag", step=0.4, iters=25, momentum_r=2.0)
    trace = ac.run(oracle, params, [1.0, 1.0], problem_id="quad2d")
    path = tmp_path / "t.json"
    emit_trace(trace, "json", str(path), optimum=optimum)
    loaded = load_trace(str(path))
    recs = loaded.records
    for name, col, stacked in [
        ("x", loaded.x, [rec.x for rec in recs]),
        ("y", loaded.y, [rec.y for rec in recs]),
        ("v", loaded.v, [rec.v for rec in recs]),
        ("map", loaded.map, [rec.first_order_at_y for rec in recs]),
        ("f", loaded.f, [rec.f_or_phi_at_x for rec in recs]),
        ("z", loaded.z, [rec.z for rec in recs[:-1]]),
    ]:
        assert not col.flags.writeable, name
        assert np.array_equal(col, np.array(stacked)), name
    assert all(np.shares_memory(loaded.x, rec.x) for rec in recs)
    assert np.shares_memory(loaded.map, recs[3].first_order_at_y)
    assert np.array_equal(loaded.x, trace.x)


def test_overflowing_energy_fails_the_certificate_without_a_warning(tmp_path, capsys):
    # x0 = 1e154 gives a finite f(x0) near 1e308, but the energy overflows.
    argv = ["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4", "--r", "2",
            "--x0=1e154,1e154", "--iters", "5", "--certify",
            "--certificate-out", str(tmp_path / "c.json")]
    trace = str(tmp_path / "t.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt, out in (("csv", str(tmp_path / "t.csv")), ("json", trace)):
            assert harness.main(argv + ["--format", fmt, "--trace-out", out]) == 2
            assert capsys.readouterr().err.startswith("certificate: FAIL at k=0")
        assert harness.main(["certify", "--trace", trace, "--problem", "quad2d",
                             "--out", str(tmp_path / "c2.json")]) == 2
    assert capsys.readouterr().err == "certificate: FAIL at k=0\n"


def test_r_without_a_finite_K_is_a_one_line_error(tmp_path, capsys):
    # From r ~ 4.5e307 on, K(r) is NaN: on the run flags and in a stored trace.
    trace = tmp_path / "t.json"
    argv = ["run", "--problem", "quad2d", "--algo", "nag", "--step", "0.4", "--iters", "5",
            "--format", "json", "--trace-out", str(trace)]
    assert harness.main(argv + ["--r", "2"]) == 0
    payload = json.loads(trace.read_text())
    payload["params"]["momentum_r"] = 1e308
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    for call in (argv + ["--r", "1e308", "--certify",
                         "--certificate-out", str(tmp_path / "c.json")],
                 ["certify", "--trace", str(trace), "--problem", "quad2d"]):
        assert harness.main(call) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_of_memory_is_a_one_line_error(tmp_path):
    # The address-space cap makes the (iters+1, d) arrays fail to allocate;
    # only the child process runs under it.
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GiB

    # One BLAS thread keeps the child's own start-up reservations under the cap.
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "accelcert.harness", "run", "--problem", "quad2d", "--algo",
         "gd", "--step", "0.4", "--iters", "1000000000000",
         "--trace-out", str(tmp_path / "t.csv")],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


def test_rate_power_overflow_ends_in_a_certificate(tmp_path):
    # rate = 1.0625 at s = 0.25 on quad-diag:1,1; rate**k passes 1.8e308
    # near k = 11,700, where the bound becomes 0.0.
    rc = harness.main(["run", "--problem", "quad-diag:1,1", "--algo", "nag", "--step", "0.25",
                       "--r", "2", "--iters", "12000", "--certify", "--format", "json",
                       "--trace-out", str(tmp_path / "t.json"),
                       "--certificate-out", str(tmp_path / "c.json")])
    assert rc in (0, 2)
    assert json.loads((tmp_path / "c.json").read_text())["rows"][-1]["bound"] == 0.0


def test_lasso_design_that_overflows_is_a_one_line_error(tmp_path, capsys):
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"A": [[1e308, 0], [0, 1e308]], "b": [1, 1], "lambda": 0.1}))
    rc = harness.main(["run", "--problem", f"lasso:{lasso}", "--algo", "fista", "--step", "0.1",
                       "--r", "2", "--trace-out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "problem,lasso",
    [
        ("quad-diag:inf,1", None),
        ("quad-diag:1e308,1e308", None),
        ("lasso", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0], "lambda": float("nan")}),
        ("lasso", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0], "lambda": float("inf")}),
    ],
)
def test_non_finite_problem_constants_are_one_line_errors(tmp_path, capsys, problem, lasso):
    if lasso is not None:
        (tmp_path / "lasso.json").write_text(json.dumps(lasso))
        problem = f"lasso:{tmp_path / 'lasso.json'}"
    rc = harness.main(["run", "--problem", problem, "--algo", "fista", "--step", "0.1",
                       "--r", "2", "--trace-out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "outside" not in err


def test_zero_weight_lasso_file_runs_nag(tmp_path):
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0], "lambda": 0}))
    assert harness.main(["run", "--problem", f"lasso:{lasso}", "--algo", "nag", "--step",
                         "0.2", "--r", "2", "--iters", "20", "--certify",
                         "--trace-out", str(tmp_path / "t.csv"),
                         "--certificate-out", str(tmp_path / "c.json")]) == 0


def test_library_certifies_a_cli_fista_trace_on_the_smooth_oracle(tmp_path, quad2d):
    # The CLI runs fista on quad2d; the library takes the same smooth oracle.
    tr, out = tmp_path / "t.json", tmp_path / "c.json"
    assert harness.main(["run", "--problem", "quad2d", "--algo", "fista", "--step", "0.4",
                         "--r", "2", "--iters", "200", "--format", "json",
                         "--trace-out", str(tr)]) == 0
    assert harness.main(["certify", "--trace", str(tr), "--problem", "quad2d",
                         "--out", str(out)]) == 0
    certificate = ac.certify(load_trace(str(tr)), *quad2d)
    text = json.dumps(ac.lyapunov.certificate_to_dict(certificate)) + "\n"
    assert text == out.read_text()
