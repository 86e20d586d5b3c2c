"""Command-line harness: run experiments, write traces, certify them.

Subcommands::

    accelcert run --problem quad2d --algo m-nag --step 0.4 --r 2 --iters 200
    accelcert preset fig1 --outdir out/
    accelcert certify --trace trace.json --problem quad2d

Exit codes: 0 success, 1 usage or configuration error, 2 certification
failure. Trace CSVs are plot-ready; trace JSONs additionally carry the full
per-iteration state and can be re-ingested bit-faithfully. Every algorithm
here is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import lyapunov, problems
from .algorithms import (
    COMPOSITE_ALGOS,
    R_FAMILY_ALGOS,
    ALGORITHMS,
    RunParams,
    Trace,
    TraceColumns,
    TraceRecord,
    run,
)
from .errors import AccelCertError
from .lyapunov import CERTIFIABLE_ALGOS
from .problems import as_composite, resolve_problem


class UsageError(AccelCertError):
    """Bad flags or configuration; maps to exit code 1."""


DEFAULT_ITERS = 200
DEFAULT_R = 2.0
FORMATS = ("csv", "json")
ENERGY_FORMS = ("auto", "velocity", "xy")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    algo: str
    step: float
    iters: int = DEFAULT_ITERS
    momentum_r: float | None = None
    x0: str | tuple[float, ...] = "ones"
    trace_path: str | None = None
    certificate_path: str | None = None
    format: str = "csv"
    certify: bool = False
    energy_form: str = "auto"


def _parse_x0(text):
    if text == "ones":
        return "ones"
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad x0 {text!r}: expected 'ones' or comma-separated floats") from exc


def _validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.algo not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {cfg.algo!r}; choose from {', '.join(ALGORITHMS)}")
    if cfg.format not in FORMATS:
        raise UsageError(f"unknown format {cfg.format!r}")
    if cfg.energy_form not in ENERGY_FORMS:
        raise UsageError(f"unknown energy form {cfg.energy_form!r}")
    if cfg.iters < 1:
        raise UsageError("iters must be a positive integer")
    if cfg.step <= 0.0:
        raise UsageError("step must be positive")
    if cfg.algo in R_FAMILY_ALGOS and cfg.momentum_r is not None and cfg.momentum_r < 2.0:
        raise UsageError(f"momentum parameter r must be >= 2, got {cfg.momentum_r}")
    if cfg.certify and cfg.algo not in CERTIFIABLE_ALGOS:
        raise UsageError(
            f"no certificate available for {cfg.algo!r}; certifiable: "
            + ", ".join(sorted(CERTIFIABLE_ALGOS))
        )
    if cfg.trace_path is None:
        cfg = replace(cfg, trace_path=f"trace.{cfg.format}")
    if cfg.certify and cfg.certificate_path is None:
        cfg = replace(cfg, certificate_path="certificate.json")
    return cfg


def parse_config(source) -> ExperimentConfig:
    """Build a validated ExperimentConfig.

    ``source`` is either a list of command-line tokens for the ``run``
    subcommand, a path to a JSON config file, or a dict with the same keys
    as ExperimentConfig. On the command line --r is mandatory for
    r-dependent algorithms; a config file may omit momentum_r, which then
    defaults to 2.
    """
    if isinstance(source, (list, tuple)):
        parser = _build_parser()
        args = parser.parse_args(["run", *source])
        return _config_from_args(args)
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON in config {source!r}: {exc}") from exc
        return _config_from_mapping(payload)
    if isinstance(source, dict):
        return _config_from_mapping(source)
    raise UsageError(f"cannot parse config from {type(source).__name__}")


_NUMBER = (int, float)
_OPTIONAL_STR = (str, type(None))
#: The value types a config mapping may hold, per ExperimentConfig field.
_CONFIG_TYPES = {
    "problem": str,
    "algo": str,
    "step": _NUMBER,
    "iters": int,
    "momentum_r": (*_NUMBER, type(None)),
    "x0": (str, list, tuple),
    "trace_path": _OPTIONAL_STR,
    "certificate_path": _OPTIONAL_STR,
    "format": str,
    "certify": bool,
    "energy_form": str,
}


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _config_from_mapping(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise UsageError(f"config must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - set(_CONFIG_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("problem", "algo", "step"):
        if key not in payload:
            raise UsageError(f"config is missing required key {key!r}")
    for key, value in payload.items():
        # bool is an int subclass; it is a value only for "certify".
        if not isinstance(value, _CONFIG_TYPES[key]) or (
            isinstance(value, bool) and key != "certify"
        ):
            raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")
    payload = dict(payload)
    x0 = payload.get("x0", "ones")
    if isinstance(x0, str):
        payload["x0"] = _parse_x0(x0)
    elif all(map(_is_number, x0)):
        payload["x0"] = tuple(float(v) for v in x0)
    else:
        raise UsageError(f"config key 'x0' must be 'ones' or a list of numbers, got {x0!r}")
    cfg = ExperimentConfig(**payload)
    if cfg.algo in R_FAMILY_ALGOS and cfg.momentum_r is None:
        cfg = replace(cfg, momentum_r=DEFAULT_R)
    return _validate_config(cfg)


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        base = parse_config(args.config)
    else:
        for key in ("problem", "algo", "step"):
            if getattr(args, key) is None:
                raise UsageError(f"--{key} is required")
        base = None

    overrides = {}
    for key in ("problem", "algo", "step", "iters", "format", "certify", "energy_form"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.r is not None:
        overrides["momentum_r"] = args.r
    if args.x0 is not None:
        overrides["x0"] = _parse_x0(args.x0)
    if args.trace_out is not None:
        overrides["trace_path"] = args.trace_out
    if args.certificate_out is not None:
        overrides["certificate_path"] = args.certificate_out

    if base is not None:
        cfg = replace(base, **overrides)
    else:
        cfg = ExperimentConfig(**overrides)
        if cfg.algo in R_FAMILY_ALGOS and args.r is None:
            raise UsageError(f"--r is required for {cfg.algo}")
    return _validate_config(cfg)


def preset(name: str) -> list[ExperimentConfig]:
    """Experiment bundles reproducing the two benchmark figures.

    fig1: nag and m-nag on quad2d with s=0.4, r=2 (oscillation vs monotone
    descent). fig2: gd, nag-sc, m-nag-sc on quad2d with s=0.01, run long
    enough for the accelerated pair to cross small gap levels. Start point
    is (1, 1); the figures leave it unspecified, so the preset pins one for
    reproducibility.
    """
    if name == "fig1":
        return [
            ExperimentConfig(
                problem="quad2d", algo=algo, step=0.4, momentum_r=2.0,
                iters=200, x0=(1.0, 1.0),
            )
            for algo in ("nag", "m-nag")
        ]
    if name == "fig2":
        return [
            ExperimentConfig(
                problem="quad2d", algo=algo, step=0.01, iters=2000, x0=(1.0, 1.0),
            )
            for algo in ("gd", "nag-sc", "m-nag-sc")
        ]
    raise UsageError(f"unknown preset {name!r}; available: fig1, fig2")


def _resolve_x0(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    if cfg.x0 == "ones":
        return np.ones(dim)
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.size != dim:
        raise UsageError(f"x0 has dimension {x0.size}, problem needs {dim}")
    return x0


def run_experiment(cfg: ExperimentConfig):
    """Run one configured experiment; returns (trace, certificate or None).

    Writes the trace to cfg.trace_path and, when certifying, the
    certificate JSON to cfg.certificate_path.
    """
    problem, optimum = resolve_problem(cfg.problem)
    if cfg.algo in COMPOSITE_ALGOS and not isinstance(problem, problems.CompositeObjective):
        problem = as_composite(problem)
    params = RunParams(
        algo=cfg.algo, step=cfg.step, iters=cfg.iters, momentum_r=cfg.momentum_r
    )
    x0 = _resolve_x0(cfg, problems.smooth_part(problem).dim)
    trace = run(problem, params, x0, problem_id=cfg.problem)

    certificate = None
    if cfg.certify:
        certificate = lyapunov.certify(trace, problem, optimum, form=cfg.energy_form)
    emit_trace(
        trace, cfg.format, cfg.trace_path, optimum=optimum, certificate=certificate,
        certificate_path=cfg.certificate_path if certificate is not None else None,
    )
    return trace, certificate


def _violations(f: np.ndarray) -> list[int]:
    """1 where f rose from the previous record, else 0 (record 0 is 0)."""
    return [0] + (f[1:] > f[:-1]).astype(int).tolist()


def _grad_norm(cols) -> np.ndarray:
    # np.linalg.norm of a vector is sqrt(m . m); one np.dot per row keeps
    # its rounding, which a reduction over axis 1 does not.
    return np.sqrt(list(map(np.dot, cols.map, cols.map)))


def _row_fields(trace: Trace, optimum, certificate):
    """Per-record CSV columns as lists: k, f_gap, grad_norm,
    monotone_violation, energy and bound (None where the certificate has no
    value)."""
    cols = trace.columns
    ks = [rec.k for rec in trace.records]
    energies, bounds = {}, {}
    if certificate is not None:
        energies = {row.k: row.energy for row in certificate.rows}
        bounds = {row.k: row.bound for row in certificate.rows}
    return (
        ks,
        (cols.f - optimum.f_star).tolist(),
        _grad_norm(cols).tolist(),
        _violations(cols.f),
        [energies.get(k) for k in ks],
        [bounds.get(k) for k in ks],
    )


def _fmt(value) -> str:
    return "" if value is None else format(value, ".17g")


# JSON writes. The trace and certificate of one call are rendered from one
# table of float tokens: each distinct float64 bit pattern among all the
# floats they hold is formatted once, as json.dumps formats it, and the
# records are filled into a % template RENDER_CHUNK at a time. The bytes
# are those of json.dumps over the per-record dict trees, which
# certificate_to_dict still describes.

#: Records (or certificate rows) rendered per write.
RENDER_CHUNK = 1000

#: The float formatter json.dumps uses for finite values.
_format_float = float.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLAGS = np.array(["0", "1"], dtype=object)

_CERT_FIELDS = ("f_gap", "bound", "energy", "decrease_margin")
_CERT_ROW = '{"k": %s, "gap": %s, "bound": %s, "energy": %s, "decrease_margin": %s}'


def _float_tokens(*columns) -> list[np.ndarray]:
    """JSON tokens of float arrays, as object arrays of the same shapes.

    The formatter runs once per distinct bit pattern over all the columns,
    so -0.0 and 0.0 keep their own tokens and NaN, Infinity and -Infinity
    are spelled as json.dumps spells them.
    """
    arrays = [np.asarray(col, dtype=float) for col in columns]
    bits = np.concatenate([a.ravel() for a in arrays]).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    values = distinct.view(np.float64)
    table = np.array(list(map(_format_float, values.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(values)):
        table[i] = _NON_FINITE[table[i]]
    tokens = table[inverse.ravel()]
    ends = np.cumsum([a.size for a in arrays])
    return [part.reshape(a.shape) for part, a in zip(np.split(tokens, ends[:-1]), arrays)]


def _certificate_columns(certificate) -> list[tuple[np.ndarray, np.ndarray]]:
    """gap, bound, energy and decrease_margin over the certificate's rows:
    per field the float values of the rows that have one, and their mask."""
    columns = []
    for name in _CERT_FIELDS:
        values = [getattr(row, name) for row in certificate.rows]
        present = np.array([value is not None for value in values], dtype=bool)
        columns.append((np.array(values, dtype=float)[present], present))
    return columns


def _with_nulls(tokens: np.ndarray, present: np.ndarray) -> np.ndarray:
    out = np.full(present.shape, "null", dtype=object)
    out[present] = tokens
    return out


def _json_head(payload: dict, rows_key: str) -> str:
    """json.dumps(payload) opened for a trailing list under ``rows_key``."""
    return json.dumps(payload, check_circular=False)[:-1] + f", {json.dumps(rows_key)}: ["


def _write_rows(fh, head: str, templates, tokens: np.ndarray) -> None:
    """Write ``head``, row i of ``tokens`` filled into ``templates[i]`` with
    rows joined by ", ", and the closing "]}" and newline."""
    fh.write(head)
    for start in range(0, len(tokens), RENDER_CHUNK):
        chunk = slice(start, start + RENDER_CHUNK)
        text = ", ".join(templates[chunk]) % tuple(tokens[chunk].ravel().tolist())
        fh.write(", " + text if start else text)
    fh.write("]}\n")


def _write_certificate(fh, certificate, columns=None, tokens=None) -> None:
    """Write json.dumps(certificate_to_dict(certificate)) and a newline.

    ``columns`` and ``tokens`` are the certificate's float columns and their
    tokens from a table shared with the trace; without them the
    certificate gets a table of its own.
    """
    if columns is None:
        columns = _certificate_columns(certificate)
        tokens = _float_tokens(*(values for values, _ in columns))
    ks = np.array([str(row.k) for row in certificate.rows], dtype=object)
    matrix = np.column_stack(
        [ks] + [_with_nulls(tok, present) for tok, (_, present) in zip(tokens, columns)]
    )
    head = _json_head(
        {"K": certificate.threshold_K, "pass": certificate.overall_pass}, "rows"
    )
    _write_rows(fh, head, [_CERT_ROW] * len(matrix), matrix)


def _record_templates(d: int) -> np.ndarray:
    """The % templates of a JSON trace record without and with z. Without
    z, the z slots take "%.0s", which consumes an (empty) token and prints
    nothing, so every record has the same number of tokens."""
    vec = "[" + ", ".join(["%s"] * d) + "]"
    record = (
        '{"k": %s, "x": VEC, "y": VEC, "v": VEC, "z": Z, "f": %s, "map": VEC, '
        '"f_gap": %s, "grad_norm": %s, "monotone_violation": %s, "energy": %s, "bound": %s}'
    ).replace("VEC", vec)
    return np.array(
        [record.replace("Z", "null" + "%.0s" * d), record.replace("Z", vec)], dtype=object
    )


def _write_json_trace(trace: Trace, path: str, optimum, certificate, certificate_path) -> None:
    cols = trace.columns
    n_records, d = cols.x.shape
    records = trace.records
    ks = [rec.k for rec in records]
    with_z = np.array([rec.z is not None for rec in records], dtype=bool)
    z = np.array([rec.z for rec in records if rec.z is not None], dtype=float).reshape(-1, d)
    floats = [cols.x, cols.y, cols.v, z, cols.f, cols.map, cols.f - optimum.f_star,
              _grad_norm(cols)]
    energy = bound = np.full(n_records, "null", dtype=object)
    cert_columns = []
    if certificate is not None:
        if [row.k for row in certificate.rows] != ks:
            raise UsageError("the certificate's rows do not match the trace's records")
        cert_columns = _certificate_columns(certificate)
        floats += [values for values, _ in cert_columns]
    tokens = _float_tokens(*floats)
    x, y, v, z, f, m, f_gap, grad_norm = tokens[:8]
    cert_tokens = tokens[8:]
    if certificate is not None:
        # _CERT_FIELDS order: gap, bound, energy, decrease_margin.
        bound = _with_nulls(cert_tokens[1], cert_columns[1][1])
        energy = _with_nulls(cert_tokens[2], cert_columns[2][1])
        if certificate_path is not None:
            with open(certificate_path, "w") as fh:
                _write_certificate(fh, certificate, cert_columns, cert_tokens)

    z_slots = np.full((n_records, d), "", dtype=object)
    z_slots[with_z] = z
    matrix = np.column_stack([
        np.array(list(map(str, ks)), dtype=object),
        x, y, v, z_slots, f, m, f_gap, grad_norm, _FLAGS[_violations(cols.f)], energy, bound,
    ])
    params = trace.params
    head = _json_head(
        {
            "kind": "accelcert-trace",
            "problem_id": trace.problem_id,
            "params": {
                "algo": params.algo,
                "step": params.step,
                "iters": params.iters,
                "momentum_r": params.momentum_r,
            },
        },
        "records",
    )
    with open(path, "w") as fh:
        _write_rows(fh, head, _record_templates(d)[with_z.astype(int)], matrix)


def emit_trace(
    trace: Trace, fmt: str, path: str, *, optimum, certificate=None, certificate_path=None
) -> None:
    """Write a trace to disk, and its certificate to ``certificate_path``.

    CSV columns: k, f_gap, grad_norm, x..., y..., monotone_violation,
    energy, bound (the last two blank unless a certificate is supplied).
    JSON mirrors those fields and adds the full per-iteration state, with
    floats written as their repr so reloading is bit-faithful. The
    certificate is JSON in both cases; with a JSON trace the two share one
    table of float tokens.
    """
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    if certificate_path is not None and certificate is None:
        raise UsageError("a certificate path needs a certificate")
    if fmt == "json":
        _write_json_trace(trace, path, optimum, certificate, certificate_path)
        return
    if certificate_path is not None:
        with open(certificate_path, "w") as fh:
            _write_certificate(fh, certificate)
    cols = trace.columns
    d = cols.x.shape[1]
    ks, f_gaps, grad_norms, flags, energies, bounds = _row_fields(trace, optimum, certificate)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "f_gap", "grad_norm"]
            + [f"x{i}" for i in range(d)]
            + [f"y{i}" for i in range(d)]
            + ["monotone_violation", "energy", "bound"]
        )
        writer.writerows(
            [k, _fmt(f_gap), _fmt(grad_norm)]
            + [_fmt(v) for v in x]
            + [_fmt(v) for v in y]
            + [flag, _fmt(e_k), _fmt(b_k)]
            for k, f_gap, grad_norm, x, y, flag, e_k, b_k in zip(
                ks, f_gaps, grad_norms, cols.x.tolist(), cols.y.tolist(),
                flags, energies, bounds,
            )
        )


def _trace_column(records, key: str, path: str) -> np.ndarray:
    """One field over all records as a float array; ragged records, values
    that are not JSON numbers, and non-finite values are usage errors."""
    try:
        col = np.array([rec[key] for rec in records])
    except KeyError as exc:
        raise UsageError(f"trace {path!r} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed trace {path!r}: field {key!r}: {exc}") from exc
    if col.size and col.dtype.kind not in "iuf":
        raise UsageError(f"trace {path!r}: field {key!r} holds values that are not numbers")
    col = col.astype(float)
    if not np.all(np.isfinite(col)):
        raise UsageError(f"trace {path!r}: field {key!r} holds non-finite values")
    return col


def load_trace(path: str) -> Trace:
    """Re-ingest a JSON trace written by emit_trace (CSV is plot-only).

    Every record must carry k equal to its index, finite vectors of one
    dimension and a finite f, and there must be params.iters + 1 records.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read trace {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path!r} is not a JSON trace (CSV traces cannot be re-ingested)") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "accelcert-trace":
        raise UsageError(f"{path!r} is not an accelcert trace file")
    try:
        raw = payload["params"]
        params = RunParams(
            algo=raw["algo"], step=raw["step"], iters=raw["iters"], momentum_r=raw["momentum_r"]
        )
        records = payload["records"]
        problem_id = payload["problem_id"]
        ks = [rec["k"] for rec in records]
        with_z = [i for i, rec in enumerate(records) if rec["z"] is not None]
    except KeyError as exc:
        raise UsageError(f"trace {path!r} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed trace {path!r}: {exc}") from exc
    if len(records) != params.iters + 1:
        raise UsageError(
            f"trace {path!r} has {len(records)} records, params.iters + 1 = {params.iters + 1}"
        )
    bad_k = next((i for i, k in enumerate(ks) if type(k) is not int or k != i), None)
    if bad_k is not None:
        raise UsageError(f"trace {path!r}: record {bad_k} has k = {ks[bad_k]!r}")
    x, y, v, m = (_trace_column(records, key, path) for key in ("x", "y", "v", "map"))
    f = _trace_column(records, "f", path)
    z = _trace_column([records[i] for i in with_z], "z", path)
    if x.ndim != 2:
        raise UsageError(f"trace {path!r} has no records of vector iterates")
    if any(col.shape != x.shape for col in (y, v, m)) or (
        with_z and z.shape != (len(with_z), x.shape[1])
    ) or f.shape != (len(records),):
        raise UsageError(
            f"trace {path!r}: records need vectors of dimension {x.shape[1]} and a scalar f"
        )
    for col in (x, y, v, m, f):
        col.setflags(write=False)
    zs = dict(zip(with_z, z))
    trace = Trace(
        params=params,
        problem_id=problem_id,
        records=tuple(
            TraceRecord(k, xk, yk, vk, fk, mk, zs.get(k))
            for k, (xk, yk, vk, fk, mk) in enumerate(zip(x, y, v, f.tolist(), m))
        ),
    )
    # The records are row views of the validated arrays, so those arrays
    # are the trace's columns; filling the cached property's slot spares
    # the first certify from stacking the rows again.
    trace.__dict__["columns"] = TraceColumns(x=x, y=y, v=v, map=m, f=f)
    return trace


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="accelcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--problem", help="quad2d | quad-diag:<c1,c2,...> | lasso:<path>")
    p_run.add_argument("--algo", help="one of: " + ", ".join(ALGORITHMS))
    p_run.add_argument("--step", type=float, help="step size s, must satisfy 0 < s < 1/L")
    p_run.add_argument("--r", type=float, help="momentum parameter (r-family algorithms)")
    p_run.add_argument("--iters", type=int, help=f"iteration count (default {DEFAULT_ITERS})")
    p_run.add_argument("--x0", help="'ones' or comma-separated start point (default ones)")
    p_run.add_argument("--trace-out", help="trace output path (default trace.<format>)")
    p_run.add_argument("--certificate-out", help="certificate path (default certificate.json)")
    p_run.add_argument("--format", choices=FORMATS, help="trace format (default csv)")
    p_run.add_argument("--certify", action="store_const", const=True, default=None,
                       help="certify the run and gate the exit code on it")
    p_run.add_argument("--energy-form", choices=ENERGY_FORMS, dest="energy_form",
                       help="energy form for certification (default auto)")
    p_run.add_argument("--config", help="JSON config file; explicit flags override it")

    p_preset = sub.add_parser("preset", help="run a figure preset")
    p_preset.add_argument("name", help="fig1 | fig2")
    p_preset.add_argument("--outdir", default=".", help="directory for the trace files")
    p_preset.add_argument("--format", choices=FORMATS, default="csv")

    p_cert = sub.add_parser("certify", help="re-certify a stored JSON trace")
    p_cert.add_argument("--trace", required=True, help="JSON trace path")
    p_cert.add_argument("--problem", required=True, help="problem the trace was run on")
    p_cert.add_argument("--energy-form", choices=ENERGY_FORMS, dest="energy_form",
                        default="auto")
    p_cert.add_argument("--out", help="certificate output path (default: stdout)")
    return parser


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    trace, certificate = run_experiment(cfg)
    drop = trace.records[0].f_or_phi_at_x - trace.records[-1].f_or_phi_at_x
    print(
        f"run {cfg.algo} on {cfg.problem}: {cfg.iters} iterations, "
        f"f drop {drop:.6g} -> {cfg.trace_path}"
    )
    if certificate is not None:
        if not certificate.overall_pass:
            k = lyapunov.first_failing_k(certificate)
            print(f"certificate: FAIL at k={k} -> {cfg.certificate_path}", file=sys.stderr)
            return 2
        print(f"certificate: PASS (K={certificate.threshold_K}) -> {cfg.certificate_path}")
    return 0


def _cmd_preset(args) -> int:
    configs = preset(args.name)
    os.makedirs(args.outdir, exist_ok=True)
    for cfg in configs:
        path = os.path.join(args.outdir, f"{args.name}_{cfg.algo}.{args.format}")
        cfg = replace(cfg, trace_path=path, format=args.format)
        run_experiment(cfg)
        print(f"{args.name}: {cfg.algo} -> {path}")
    return 0


def _cmd_certify(args) -> int:
    trace = load_trace(args.trace)
    problem, optimum = resolve_problem(args.problem)
    if trace.params.algo in COMPOSITE_ALGOS and not isinstance(
        problem, problems.CompositeObjective
    ):
        problem = as_composite(problem)
    certificate = lyapunov.certify(trace, problem, optimum, form=args.energy_form)
    if args.out:
        with open(args.out, "w") as fh:
            _write_certificate(fh, certificate)
    else:
        _write_certificate(sys.stdout, certificate)
    if not certificate.overall_pass:
        k = lyapunov.first_failing_k(certificate)
        print(f"certificate: FAIL at k={k}", file=sys.stderr)
        return 2
    print(f"certificate: PASS (K={certificate.threshold_K})", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_certify(args)
    except AccelCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
