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

from . import lyapunov
from .algorithms import (
    R_FAMILY_ALGOS,
    ALGORITHMS,
    MONOTONE_ALGOS,
    RunParams,
    Trace,
    run,
)
from .errors import AccelCertError, ParameterError
from .lyapunov import CERTIFIABLE_ALGOS, ENERGY_FORMS
from .problems import json_floats, read_json, resolve_problem


class UsageError(AccelCertError):
    """Bad flags or configuration; maps to exit code 1."""


DEFAULT_ITERS = 200
DEFAULT_R = 2.0
FORMATS = ("csv", "json")


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


def _run_params(cfg: ExperimentConfig) -> RunParams:
    try:
        return RunParams(algo=cfg.algo, step=cfg.step, iters=cfg.iters, momentum_r=cfg.momentum_r)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def parse_config(source) -> ExperimentConfig:
    """Build a validated ExperimentConfig.

    ``source`` is either a list of command-line tokens for the ``run``
    subcommand, a path to a JSON config file, or a dict with the same keys
    as ExperimentConfig. All three go through one validator. Flags are laid
    over the keys of the --config file, if any. A file or dict may omit
    momentum_r or set it to null, which gives r = 2 to r-dependent
    algorithms; on the command line without --config, --r is mandatory for
    them.
    """
    if isinstance(source, (list, tuple)):
        return _config_from_args(_build_parser().parse_args(["run", *source]))
    if isinstance(source, (str, os.PathLike)):
        return _config_from_mapping(_read_config(source))
    if isinstance(source, dict):
        return _config_from_mapping(source)
    raise UsageError(f"cannot parse config from {type(source).__name__}")


def _read_config(path) -> dict:
    payload = read_json(path, "config", UsageError)
    if not isinstance(payload, dict):
        raise UsageError(f"config must be a JSON object, got {type(payload).__name__}")
    return payload


_NUMBER = (int, float)
_OPTIONAL_STR = (str, type(None))
#: The value types a config mapping may hold, per ExperimentConfig field.
#: The ``run`` flags have these names as their argparse dests.
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


def _config_from_mapping(payload: dict, *, default_r: bool = True) -> ExperimentConfig:
    """The one validator of ``run`` settings. With ``default_r``, an
    r-dependent algorithm without momentum_r gets r = 2."""
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
    if isinstance(x0, str) and x0 != "ones":
        try:
            x0 = [float(tok) for tok in x0.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad x0 {x0!r}: expected 'ones' or comma-separated floats") from exc
    if x0 != "ones":
        try:
            x0 = tuple(json_floats(x0, 1).tolist())
        except ValueError as exc:
            raise UsageError(
                f"config key 'x0' must be 'ones' or a list of numbers, got {x0!r}"
            ) from exc
    payload["x0"] = x0
    if default_r and payload["algo"] in R_FAMILY_ALGOS and payload.get("momentum_r") is None:
        payload["momentum_r"] = DEFAULT_R
    cfg = ExperimentConfig(**payload)
    _run_params(cfg)
    if cfg.format not in FORMATS:
        raise UsageError(f"unknown format {cfg.format!r}")
    if cfg.energy_form not in ENERGY_FORMS:
        raise UsageError(f"unknown energy form {cfg.energy_form!r}")
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


def _config_from_args(args) -> ExperimentConfig:
    payload = {} if args.config is None else _read_config(args.config)
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_TYPES and v is not None}
    return _config_from_mapping({**payload, **flags}, default_r=args.config is not None)


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


def run_experiment(cfg: ExperimentConfig):
    """Run one configured experiment; returns (trace, certificate or None).

    Writes the trace to cfg.trace_path and, when certifying, the
    certificate JSON to cfg.certificate_path.
    """
    problem, optimum = resolve_problem(cfg.problem)
    x0 = np.ones(problem.dim) if cfg.x0 == "ones" else cfg.x0
    trace = run(problem, _run_params(cfg), x0, problem_id=cfg.problem)

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


@np.errstate(over="ignore")  # a norm that overflows is written as inf
def _grad_norm(trace: Trace) -> np.ndarray:
    # np.linalg.norm of a vector is sqrt(m . m); one np.dot per row keeps
    # its rounding, which a reduction over axis 1 does not.
    return np.sqrt(list(map(np.dot, trace.map, trace.map)))


def _fmt(value: float) -> str:
    return format(value, ".17g")


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


def _certificate_floats(certificate) -> list[np.ndarray]:
    return [certificate.f_gap, certificate.bound, certificate.energy,
            certificate.decrease_margin]


def _json_head(payload: dict, rows_key: str) -> str:
    """json.dumps(payload) opened for a trailing list under ``rows_key``."""
    return json.dumps(payload, check_circular=False)[:-1] + f", {json.dumps(rows_key)}: ["


def _write_rows(fh, head: str, template: str, tokens: np.ndarray) -> None:
    """Write ``head``, each row of ``tokens`` filled into ``template`` with
    rows joined by ", ", and the closing "]}" and newline."""
    fh.write(head)
    for start in range(0, len(tokens), RENDER_CHUNK):
        rows = tokens[start:start + RENDER_CHUNK]
        text = ", ".join([template] * len(rows)) % tuple(rows.ravel().tolist())
        fh.write(", " + text if start else text)
    fh.write("]}\n")


def _write_certificate(fh, certificate, tokens=None) -> None:
    """Write json.dumps(certificate_to_dict(certificate)) and a newline.

    ``tokens`` are the tokens of the certificate's float arrays from a table
    shared with the trace; without them the certificate gets a table of its
    own.
    """
    if tokens is None:
        tokens = _float_tokens(*_certificate_floats(certificate))
    ks = np.array(list(map(str, range(len(certificate.f_gap)))), dtype=object)
    matrix = np.column_stack([ks, *lyapunov.row_layout(*tokens, "null")])
    head = _json_head(
        {"K": certificate.threshold_K, "pass": certificate.overall_pass}, "rows"
    )
    _write_rows(fh, head, _CERT_ROW, matrix)


def _record_template(d: int) -> str:
    """The % template of a JSON trace record; z is one token, a vector or null."""
    vec = "[" + ", ".join(["%s"] * d) + "]"
    return (
        '{"k": %s, "x": VEC, "y": VEC, "v": VEC, "z": %s, "f": %s, "map": VEC, '
        '"f_gap": %s, "grad_norm": %s, "monotone_violation": %s, "energy": %s, "bound": %s}'
    ).replace("VEC", vec)


def _write_json_trace(trace: Trace, path: str, optimum, certificate, certificate_path) -> None:
    """Write the trace as json.dumps writes its per-record dicts, with the
    certificate to ``certificate_path`` from the same token table. Each
    record's z is one token: the vector z_k on the records ``trace.z``
    holds, null on the rest."""
    n_records, d = trace.x.shape
    floats = [trace.x, trace.y, trace.v, trace.z, trace.f, trace.map,
              trace.f - optimum.f_star, _grad_norm(trace)]
    energy = bound = np.full(n_records, "null", dtype=object)
    if certificate is not None:
        floats += _certificate_floats(certificate)
    tokens = _float_tokens(*floats)
    x, y, v, z, f, m, f_gap, grad_norm = tokens[:8]
    if certificate is not None:
        cert_tokens = tokens[8:]
        _, bound, energy, _ = lyapunov.row_layout(*cert_tokens, "null")
        if certificate_path is not None:
            with open(certificate_path, "w") as fh:
                _write_certificate(fh, certificate, cert_tokens)

    z_text = np.array(
        ["[" + ", ".join(row) + "]" for row in z.tolist()] + ["null"] * (n_records - len(z)),
        dtype=object,
    )
    matrix = np.column_stack([
        np.array(list(map(str, range(n_records))), dtype=object),
        x, y, v, z_text, f, m, f_gap, grad_norm, _FLAGS[_violations(trace.f)], energy, bound,
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
        _write_rows(fh, head, _record_template(d), matrix)


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
    if certificate is not None and len(certificate.f_gap) != len(trace.f):
        raise UsageError("the certificate's rows do not match the trace's records")
    if fmt == "json":
        _write_json_trace(trace, path, optimum, certificate, certificate_path)
        return
    if certificate_path is not None:
        with open(certificate_path, "w") as fh:
            _write_certificate(fh, certificate)
    d = trace.x.shape[1]
    energies = bounds = [""] * len(trace.f)
    if certificate is not None:
        bound, energy = ([_fmt(v) for v in col.tolist()]
                         for col in (certificate.bound, certificate.energy))
        _, bounds, energies, _ = lyapunov.row_layout(
            certificate.f_gap, bound, energy, certificate.decrease_margin, ""
        )
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
            + [flag, e_k, b_k]
            for k, (f_gap, grad_norm, x, y, flag, e_k, b_k) in enumerate(zip(
                (trace.f - optimum.f_star).tolist(), _grad_norm(trace).tolist(),
                trace.x.tolist(), trace.y.tolist(), _violations(trace.f), energies, bounds,
            ))
        )


def _trace_column(records, key: str, path: str, ndim: int = 2) -> np.ndarray:
    """One field over ``records`` as a float array of ``ndim`` dimensions;
    ragged records, values that are not JSON numbers, and non-finite values
    are usage errors."""
    try:
        col = json_floats([rec[key] for rec in records], ndim)
    except KeyError as exc:
        raise UsageError(f"trace {path!r} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed trace {path!r}: field {key!r}: {exc}") from exc
    if not np.all(np.isfinite(col)):
        raise UsageError(f"trace {path!r}: field {key!r} holds non-finite values")
    return col


def load_trace(path: str) -> Trace:
    """Re-ingest a JSON trace written by emit_trace (CSV is plot-only).

    Every record must carry k equal to its index, finite vectors of one
    dimension and a finite f, and there must be params.iters + 1 records.
    problem_id must be a string. A z sits exactly where the scheme makes
    one: a monotone trace has a z on every record but the last, and any
    other trace has none. The validated arrays become the Trace's arrays.
    """
    payload = read_json(path, "JSON trace", UsageError)
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
        zs = [rec["z"] for rec in records]
    except KeyError as exc:
        raise UsageError(f"trace {path!r} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed trace {path!r}: {exc}") from exc
    if not isinstance(problem_id, str):
        raise UsageError(f"trace {path!r}: problem_id must be a string, got {problem_id!r}")
    if len(records) != params.iters + 1:
        raise UsageError(
            f"trace {path!r} has {len(records)} records, params.iters + 1 = {params.iters + 1}"
        )
    monotone = params.algo in MONOTONE_ALGOS
    bad_z = next((i for i, z in enumerate(zs) if (z is None) == (monotone and i < params.iters)),
                 None)
    if bad_z is not None:
        rule = "a z on every record but the last" if monotone else "no z"
        raise UsageError(
            f"trace {path!r}: record {bad_z} has {'no' if zs[bad_z] is None else 'a'} z, "
            f"but {params.algo} makes {rule}"
        )
    bad_k = next((i for i, k in enumerate(ks) if type(k) is not int or k != i), None)
    if bad_k is not None:
        raise UsageError(f"trace {path!r}: record {bad_k} has k = {ks[bad_k]!r}")
    x, y, v, m = (_trace_column(records, key, path) for key in ("x", "y", "v", "map"))
    f = _trace_column(records, "f", path, ndim=1)
    z = _trace_column(records[:-1], "z", path) if monotone else np.empty((0, x.shape[1]))
    if any(col.shape != x.shape for col in (y, v, m)) or z.shape[1:] != x.shape[1:]:
        raise UsageError(f"trace {path!r}: records need vectors of one dimension")
    return Trace(params=params, problem_id=problem_id, x=x, y=y, v=v, map=m, f=f, z=z)


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
    p_run.add_argument("--r", type=float, dest="momentum_r",
                       help="momentum parameter (r-family algorithms)")
    p_run.add_argument("--iters", type=int, help=f"iteration count (default {DEFAULT_ITERS})")
    p_run.add_argument("--x0", help="'ones' or comma-separated start point (default ones)")
    p_run.add_argument("--trace-out", dest="trace_path",
                       help="trace output path (default trace.<format>)")
    p_run.add_argument("--certificate-out", dest="certificate_path",
                       help="certificate path (default certificate.json)")
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
    drop = trace.f[0] - trace.f[-1]
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
    except (AccelCertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. the (iters+1, d) trace arrays
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
