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
import contextlib
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import lyapunov
from ._floatrepr import reprs
from .algorithms import (
    ALGORITHMS,
    SCHEMES,
    RunParams,
    Trace,
    run,
)
from .errors import AccelCertError, ParameterError
from .problems import comma_floats, floats, problem_file, read_json, resolve_problem


class UsageError(AccelCertError):
    """Bad flags or configuration; maps to exit code 1."""


DEFAULT_ITERS = 200
DEFAULT_R = 2.0
FORMATS = ("csv", "json")

#: The value types of the ExperimentConfig fields; RunParams checks the numbers.
_CONFIG_TYPES = {
    "problem": str,
    "algo": str,
    "x0": (str, list, tuple),
    "trace_path": (str, type(None)),
    "certificate_path": (str, type(None)),
    "format": str,
    "certify": bool,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one ``run``, checked here whatever their origin (flags,
    a --config file, a dict, direct, ``preset``, ``dataclasses.replace``) and
    before any problem is resolved: a broken rule raises UsageError. RunParams
    checks the numbers, a comma string or list x0 that ``problems.floats``
    admits becomes a tuple of floats, and certifying adds
    ``lyapunov.require_certifiable``. The paths hold what the caller gave, and
    ``output_paths()`` must name distinct files in existing directories, none
    of them the lasso file (``_check_files``)."""

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

    def __post_init__(self):
        for key, kind in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if not isinstance(value, kind):
                raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")
        if self.x0 != "ones":
            try:
                x0 = comma_floats(self.x0) if isinstance(self.x0, str) else self.x0
            except ValueError as exc:
                raise UsageError(f"x0 must be 'ones' or finite numbers: {self.x0!r}") from exc
            object.__setattr__(self, "x0", tuple(floats(x0, "x0", 1, UsageError).tolist()))
        if self.format not in FORMATS:
            raise UsageError(f"unknown format {self.format!r}")
        if self.certificate_path is not None and not self.certify:
            raise UsageError("a certificate path needs --certify")
        _check_files(self.output_paths(), [problem_file(self.problem)])
        try:
            params = self.params
            if self.certify:
                lyapunov.require_certifiable(params)
        except ParameterError as exc:
            raise UsageError(str(exc)) from exc

    @property
    def params(self) -> RunParams:
        return RunParams(self.algo, self.step, self.iters, self.momentum_r)

    def output_paths(self) -> tuple[str, str | None]:
        """The trace and certificate paths the run writes: the ones given,
        else trace.<format> and, when certifying, certificate.json."""
        trace_path = f"trace.{self.format}" if self.trace_path is None else self.trace_path
        if self.certify and self.certificate_path is None:
            return trace_path, "certificate.json"
        return trace_path, self.certificate_path


def _check_files(outputs, inputs) -> None:
    """Refuse, before any work is done, an output path that is empty, ends in
    a separator, is a directory or lies in a missing one, or whose realpath
    is that of a later output or of a file the call reads; None is no path."""
    outputs = [path for path in outputs if path is not None]
    paths = outputs + [path for path in inputs if path is not None]
    try:
        real = list(map(os.path.realpath, paths))
    except ValueError as exc:  # an embedded NUL byte
        raise UsageError(f"bad path: {exc}") from exc
    for i, path in enumerate(outputs):
        in_a_dir = os.path.isdir(os.path.dirname(real[i])) and not os.path.isdir(path)
        if not (os.path.basename(path) and in_a_dir):
            raise UsageError(f"output path {path!r} names no file in an existing directory")
        if real[i] in real[i + 1:]:
            other = paths[real.index(real[i], i + 1)]
            raise UsageError(f"output path {path!r} and path {other!r} name one file")


def parse_config(source) -> ExperimentConfig:
    """The ExperimentConfig of ``run`` command-line tokens, a JSON config
    file's path, or a dict with ExperimentConfig's keys. A path is read as
    ``run --config path`` reads it. A file or dict may omit momentum_r or set
    it to null, which gives r = 2 to r-dependent algorithms; on the command
    line without --config, --r is mandatory for them."""
    if isinstance(source, (str, os.PathLike)):
        source = [f"--config={os.fspath(source)}"]
    if isinstance(source, (list, tuple)):
        return _config_from_args(_build_parser().parse_args(["run", *source]))
    if isinstance(source, dict):
        return _config_from_mapping(source)
    raise UsageError(f"cannot parse config from {type(source).__name__}")


def _config_from_mapping(payload: dict, *, default_r: bool = True) -> ExperimentConfig:
    """The ExperimentConfig of a mapping's keys, all known and the required
    ones present. With ``default_r``, an r-dependent algorithm without
    momentum_r gets r = 2."""
    unknown = set(payload) - ExperimentConfig.__dataclass_fields__.keys()
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("problem", "algo", "step"):
        if key not in payload:
            raise UsageError(f"config is missing required key {key!r}")
    algo = payload["algo"]
    if (default_r and isinstance(algo, str) and algo in SCHEMES
            and SCHEMES[algo].momentum == "r" and payload.get("momentum_r") is None):
        payload = {**payload, "momentum_r": DEFAULT_R}
    return ExperimentConfig(**payload)


def _config_from_args(args) -> ExperimentConfig:
    """The ExperimentConfig of parsed ``run`` flags, laid over the keys of the
    --config file if there is one. That file is an input of the run, so no
    output path may name it."""
    fields = ExperimentConfig.__dataclass_fields__
    flags = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.config is None:
        return _config_from_mapping(flags, default_r=False)
    payload = read_json(args.config, "config", UsageError)
    if not isinstance(payload, dict):
        raise UsageError(f"config must be a JSON object, got {type(payload).__name__}")
    cfg = _config_from_mapping({**payload, **flags})
    _check_files(cfg.output_paths(), [args.config])
    return cfg


#: The runs of each figure preset, as (algo, step, iters, momentum_r).
_PRESETS = {"fig1": [(algo, 0.4, 200, 2.0) for algo in ("nag", "m-nag")],
            "fig2": [(algo, 0.01, 2000, None) for algo in ("gd", "nag-sc", "m-nag-sc")]}


def preset(name: str, outdir: str = ".", fmt: str = "csv") -> list[ExperimentConfig]:
    """The configs of a figure preset, each writing its trace in format ``fmt``
    to ``<outdir>/<name>_<algo>.<fmt>``; ``outdir`` must exist. fig1 runs nag
    and m-nag on quad2d at s=0.4, r=2 (oscillation vs monotone descent); fig2
    runs gd, nag-sc and m-nag-sc at s=0.01, long enough for the accelerated
    pair to cross small gap levels. All start at (1, 1), which the figures
    leave unspecified."""
    if name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    return [ExperimentConfig("quad2d", algo, step, iters, r, (1.0, 1.0),
                             os.path.join(outdir, f"{name}_{algo}.{fmt}"), format=fmt)
            for algo, step, iters, r in _PRESETS[name]]


def run_experiment(cfg: ExperimentConfig):
    """Run one configured experiment; returns (trace, certificate or None).

    Writes the trace and, when certifying, the certificate JSON to
    ``cfg.output_paths()``, which were checked when ``cfg`` was built.
    """
    trace_path, certificate_path = cfg.output_paths()
    problem, optimum = resolve_problem(cfg.problem)
    x0 = np.ones(problem.dim) if cfg.x0 == "ones" else cfg.x0
    trace = run(problem, cfg.params, x0, problem_id=cfg.problem)

    certificate = None
    if cfg.certify:
        certificate = lyapunov.certify(trace, problem, optimum)
    emit_trace(trace, cfg.format, trace_path, optimum=optimum, certificate=certificate,
               certificate_path=certificate_path)
    return trace, certificate


def _violations(f: np.ndarray) -> list[int]:
    """1 where f rose from the previous record, else 0 (record 0 is 0)."""
    return [0] + (f[1:] > f[:-1]).astype(int).tolist()


@np.errstate(over="ignore")  # a norm that overflows is written as inf
def _grad_norm(trace: Trace) -> np.ndarray:
    # np.linalg.norm of a vector is sqrt(m . m); row_dots keeps np.dot's
    # rounding, which a reduction over axis 1 does not.
    return np.sqrt(lyapunov.row_dots(trace.map))


# Writes. Every file emit_trace writes is rendered one way: its rows are
# built RENDER_CHUNK at a time, each distinct float64 bit pattern among a
# chunk's floats is spelled once into that chunk's tokens, and the token
# matrix is filled into a % row template. A certificate's four columns are
# spelled once, by themselves, and the certificate file is written from
# them; a JSON trace's chunks take energy and bound from them by row and
# spell their own floats. So the tokens alive at a time are one chunk's plus
# the certificate's O(n). JSON floats are spelled as json.dumps spells them,
# and the files give json.dumps's bytes over the per-record dict trees
# (certificate_to_dict for a certificate). A CSV trace is spelled as
# format(v, ".17g") with CRLF line ends, csv.writer's bytes since no field
# needs quoting; it writes only the certificate's energy and bound, and its
# JSON certificate is spelled after the trace is written.

#: Records (or certificate rows) rendered per write.
RENDER_CHUNK = 500

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLAGS = np.array(["0", "1"], dtype=object)

_CERT_ROW = '{"k": %s, "gap": %s, "bound": %s, "energy": %s, "decrease_margin": %s}'


def _json_token(value: float) -> str:
    """json.dumps's token of one float: its repr, or NaN, Infinity or -Infinity."""
    token = float.__repr__(value)
    return _NON_FINITE.get(token, token)


def _json_spelling(values: np.ndarray) -> list[str]:
    """json.dumps's tokens of floats: ``reprs`` spells the normal ones as repr
    does, and _json_token the rest (zeros, subnormals, inf and NaN)."""
    return reprs(values, _json_token)


def _csv_spelling(values: np.ndarray) -> list[str]:
    """format(v, ".17g") of floats, which spells non-finite ones nan, inf and -inf."""
    return [format(v, ".17g") for v in values.tolist()]


def _float_tokens(spelling, *columns) -> list[np.ndarray]:
    """Tokens of float arrays, as object arrays of the same shapes.

    ``spelling`` maps an array of floats to their tokens. It runs once over
    the distinct int64 bit patterns of all the columns, so -0.0 and 0.0
    keep their own tokens.
    """
    arrays = [np.asarray(col, dtype=float) for col in columns]
    bits = np.concatenate([a.ravel() for a in arrays]).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    tokens = np.array(spelling(distinct.view(np.float64)), dtype=object)
    parts = np.split(tokens[inverse.ravel()], np.cumsum([a.size for a in arrays])[:-1])
    return [part.reshape(a.shape) for part, a in zip(parts, arrays)]


def _certificate_tokens(certificate):
    """The JSON tokens of a certificate's gap, bound, energy and decrease
    margin laid out on its rows by lyapunov.row_layout."""
    tokens = _float_tokens(_json_spelling, certificate.f_gap, certificate.bound,
                           certificate.energy, certificate.decrease_margin)
    return lyapunov.row_layout(*tokens, "null")


def _int_tokens(n: int) -> np.ndarray:
    """The tokens of 0..n-1, the k column."""
    return np.array(list(map(str, range(n))), dtype=object)


def _json_head(payload: dict, rows_key: str) -> str:
    """json.dumps(payload) opened for a trailing list under ``rows_key``; a
    numpy scalar among the run's parameters is written as its Python value."""
    head = json.dumps(payload, check_circular=False, default=np.generic.item)
    return head[:-1] + f", {json.dumps(rows_key)}: ["


def _chunks(n_rows: int):
    """The row slices of RENDER_CHUNK rows (the last one shorter) that cover n_rows."""
    return (slice(start, start + RENDER_CHUNK) for start in range(0, n_rows, RENDER_CHUNK))


def _write_rows(fh, head: str, template: str, matrices, sep: str, tail: str) -> None:
    """Write ``head``, each row of each token matrix in ``matrices`` filled
    into ``template`` with rows joined by ``sep``, and ``tail``."""
    fh.write(head)
    for i, rows in enumerate(matrices):
        if i:
            fh.write(sep)
        fh.write(sep.join([template] * len(rows)) % tuple(rows.ravel().tolist()))
        del rows  # the next matrix is built without this one's tokens alive
    fh.write(tail)


def _write_certificate(fh, certificate, columns) -> None:
    """Write json.dumps(certificate_to_dict(certificate)) and a newline, its
    floats as ``columns``, the token columns _certificate_tokens lays out."""
    matrix = np.column_stack([_int_tokens(len(certificate.f_gap)), *columns])
    head = _json_head(
        {"K": certificate.threshold_K, "pass": certificate.overall_pass}, "rows"
    )
    _write_rows(fh, head, _CERT_ROW, (matrix[rows] for rows in _chunks(len(matrix))), ", ",
                "]}\n")


def _record_template(d: int) -> str:
    """The % template of a JSON trace record; z is one token, a vector or null."""
    vec = "[" + ", ".join(["%s"] * d) + "]"
    return (
        '{"k": %s, "x": VEC, "y": VEC, "v": VEC, "z": %s, "f": %s, "map": VEC, '
        '"f_gap": %s, "grad_norm": %s, "monotone_violation": %s, "energy": %s, "bound": %s}'
    ).replace("VEC", vec)


def emit_trace(
    trace: Trace, fmt: str, path: str, *, optimum, certificate=None, certificate_path=None
) -> None:
    """Write a trace to ``path``, then its certificate to ``certificate_path``.

    CSV columns: k, f_gap, grad_norm, x..., y..., monotone_violation,
    energy, bound (the last two blank unless a certificate is supplied),
    with numbers as format(v, ".17g") and CRLF line ends. JSON mirrors those
    fields and adds the full per-iteration state, with floats written as
    their repr so reloading is bit-faithful; each record's z is the vector
    z_k on the records ``trace.z`` holds, null on the rest. The certificate
    is JSON in both cases; a JSON trace takes its energy and bound tokens
    from the certificate's and spells its other floats a chunk at a time.
    """
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    if certificate_path is not None and certificate is None:
        raise UsageError("a certificate path needs a certificate")
    if certificate is not None and len(certificate.f_gap) != len(trace.f):
        raise UsageError("the certificate's rows do not match the trace's records")
    json_trace = fmt == "json"
    n_records, d = trace.x.shape
    f_gap, grad_norm = trace.f - optimum.f_star, _grad_norm(trace)
    ks, flags = _int_tokens(n_records), _FLAGS[_violations(trace.f)]
    energy = bound = np.full(n_records, "null" if json_trace else "", dtype=object)
    columns = None

    if json_trace:
        spelling = _json_spelling
        floats = [trace.x, trace.y, trace.v, trace.z, trace.f, trace.map, f_gap, grad_norm]
        if certificate is not None:
            _, bound, energy, _ = columns = _certificate_tokens(certificate)
        head = _json_head({"kind": "accelcert-trace", "problem_id": trace.problem_id,
                           "params": asdict(trace.params)}, "records")
        template, sep, tail = _record_template(d), ", ", "]}\n"
    else:
        spelling, floats = _csv_spelling, [f_gap, grad_norm, trace.x, trace.y]
        if certificate is not None:  # gap and decrease margin are not written
            _, bound, energy, _ = lyapunov.row_layout(
                (), *_float_tokens(_csv_spelling, certificate.bound, certificate.energy), (), "")
        names = ["k", "f_gap", "grad_norm", *(f"x{i}" for i in range(d)),
                 *(f"y{i}" for i in range(d)), "monotone_violation", "energy", "bound"]
        head = ",".join(names) + "\r\n"
        template, sep, tail = ",".join(["%s"] * len(names)), "\r\n", "\r\n"

    def matrix(rows):
        tokens = _float_tokens(spelling, *(a[rows] for a in floats))
        if json_trace:  # z is a vector on the records trace.z holds, null on the rest
            z_text = ["[" + ", ".join(row) + "]" for row in tokens[3].tolist()]
            tokens[3] = np.array(z_text + ["null"] * (len(tokens[0]) - len(z_text)), dtype=object)
        return np.column_stack([ks[rows], *tokens, flags[rows], energy[rows], bound[rows]])

    with open(path, "w", newline=None if json_trace else "") as fh:
        _write_rows(fh, head, template, (matrix(rows) for rows in _chunks(n_records)), sep, tail)
    if certificate_path is not None:
        with open(certificate_path, "w") as fh:
            _write_certificate(fh, certificate, columns or _certificate_tokens(certificate))


def load_trace(path: str) -> Trace:
    """Re-ingest a JSON trace written by emit_trace (CSV is plot-only).

    The file must be an accelcert trace with a params object and a list of
    record objects that carry k equal to their index, the records that hold
    a z before those that do not. Each float field over the records must
    pass ``problems.floats`` (f as a vector, the others as matrices), so
    ragged records and values that are not finite JSON numbers are usage
    errors. The parsed arrays become the Trace's arrays; a layout the Trace
    constructor refuses is a usage error too.
    """
    payload = read_json(path, "JSON trace", UsageError)
    if not isinstance(payload, dict) or payload.get("kind") != "accelcert-trace":
        raise UsageError(f"{path!r} is not an accelcert trace file")
    try:
        raw, records = payload["params"], payload["records"]
        if not isinstance(raw, dict):
            raise UsageError(f"malformed trace {path!r}: field 'params' is not an object")
        if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
            raise UsageError(f"malformed trace {path!r}: field 'records' is not a list of objects")
        params = RunParams(
            algo=raw["algo"], step=raw["step"], iters=raw["iters"], momentum_r=raw["momentum_r"]
        )
        problem_id = payload["problem_id"]
        columns = {key: [rec[key] for rec in records] for key in ("x", "y", "v", "map", "f")}
        ks = [rec["k"] for rec in records]
        zs = [rec["z"] for rec in records]
    except KeyError as exc:
        raise UsageError(f"trace {path!r} is missing key {exc}") from exc
    except ParameterError as exc:
        raise UsageError(f"malformed trace {path!r}: {exc}") from exc
    bad_k = next((i for i, k in enumerate(ks) if type(k) is not int or k != i), None)
    if bad_k is not None:
        raise UsageError(f"trace {path!r}: record {bad_k} has k = {ks[bad_k]!r}")
    n_z = sum(z is not None for z in zs)
    if None in zs[:n_z]:
        raise UsageError(f"trace {path!r}: record {zs.index(None)} has no z, but a later one has")
    if n_z:
        columns["z"] = zs[:n_z]
    arrays = {key: floats(column, f"malformed trace {path!r}: field {key!r}",
                          1 if key == "f" else 2, UsageError) for key, column in columns.items()}
    arrays.setdefault("z", np.empty((0, arrays["x"].shape[1])))
    try:
        return Trace(params=params, problem_id=problem_id, **arrays)
    except ParameterError as exc:
        raise UsageError(f"trace {path!r}: {exc}") from exc


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
    needs_r = [algo for algo, row in SCHEMES.items() if row.momentum == "r"]
    p_run.add_argument("--r", type=float, dest="momentum_r",
                       help="momentum parameter r >= 2, needed by " + ", ".join(needs_r))
    p_run.add_argument("--iters", type=int, help=f"iteration count (default {DEFAULT_ITERS})")
    p_run.add_argument("--x0", help="'ones' or comma-separated start point (default ones)")
    p_run.add_argument("--trace-out", dest="trace_path",
                       help="trace output path (default trace.<format>)")
    p_run.add_argument("--certificate-out", dest="certificate_path",
                       help="certificate path (default certificate.json)")
    p_run.add_argument("--format", choices=FORMATS, help="trace format (default csv)")
    p_run.add_argument("--certify", action="store_const", const=True, default=None,
                       help="certify the run and gate the exit code on it")
    p_run.add_argument("--config", help="JSON config file; explicit flags override it")

    p_preset = sub.add_parser("preset", help="run a figure preset")
    p_preset.add_argument("name", choices=_PRESETS)
    p_preset.add_argument("--outdir", default=".", help="directory for the trace files")
    p_preset.add_argument("--format", choices=FORMATS, default="csv")

    p_cert = sub.add_parser("certify", help="re-certify a stored JSON trace")
    p_cert.add_argument("--trace", required=True, help="JSON trace path")
    p_cert.add_argument("--problem", required=True, help="problem the trace was run on")
    p_cert.add_argument("--out", help="certificate output path (default: stdout)")
    return parser


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    trace, certificate = run_experiment(cfg)
    trace_path, certificate_path = cfg.output_paths()
    drop = trace.f[0] - trace.f[-1]
    print(
        f"run {cfg.algo} on {cfg.problem}: {cfg.iters} iterations, "
        f"f drop {drop:.6g} -> {trace_path}"
    )
    if certificate is not None:
        if not certificate.overall_pass:
            k = lyapunov.first_failing_k(certificate)
            print(f"certificate: FAIL at k={k} -> {certificate_path}", file=sys.stderr)
            return 2
        print(f"certificate: PASS (K={certificate.threshold_K}) -> {certificate_path}")
    return 0


def _cmd_preset(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    for cfg in preset(args.name, args.outdir, args.format):
        run_experiment(cfg)
        print(f"{args.name}: {cfg.algo} -> {cfg.trace_path}")
    return 0


def _cmd_certify(args) -> int:
    _check_files([args.out], [args.trace, problem_file(args.problem)])
    trace = load_trace(args.trace)
    problem, optimum = resolve_problem(args.problem)
    certificate = lyapunov.certify(trace, problem, optimum)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        _write_certificate(fh, certificate, _certificate_tokens(certificate))
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
