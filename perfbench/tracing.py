"""The traced in-process run that gives the per-layer metrics.

Spans are recorded from the benchmark's side, at the calls that cross into
a layer: the entry points in ``BOUNDARIES`` are replaced, for the duration
of a traced cycle, by wrappers that record name, start, end, parent span
and call id. Helpers a layer calls internally are not wrapped, so the
tracer's own cost stays at a few spans per call (plus one per proximal
step of the composite schemes). The package itself is not modified. Oracle
evaluations are counted (not timed) through a ``SmoothOracle`` rebuilt with
``dataclasses.replace`` around counting ``value``/``gradient`` callables,
so their time shows in the layer that calls them, usually ``algorithms``.

Only the workload's own calls are traced; a layer those calls do not reach
has no figures on that workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import statistics
import sys
import time
import traceback

import numpy as np

from workloads import KKT_TOL

LAYERS = ("problems", "_core", "proximal", "algorithms", "lyapunov", "harness")

#: Layer entry points that get a span, as ``<layer>.<attribute>``. Each is
#: wrapped wherever the package refers to it (its own module included,
#: since ``harness`` calls e.g. ``lyapunov.certify`` through the module).
#: ``harness._config_from_args`` is the config step ``main`` runs for
#: ``run``; its span is named ``harness.parse_config``.
BOUNDARIES = (
    "harness.main",
    "harness._config_from_args",
    "problems.resolve_problem",
    "_core.ista_solve",
    "algorithms.run",
    "proximal.soft_threshold",
    "lyapunov.certify",
    "lyapunov.certificate_to_dict",
    "harness.emit_trace",
    "harness.load_trace",
)
SPAN_NAMES = {"harness._config_from_args": "harness.parse_config"}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "call", "label", "units", "counts")

    def __init__(self, name, parent, call):
        self.name, self.parent, self.call = name, parent, call
        self.t0 = self.t1 = 0.0
        self.label = None
        self.units = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span recorder; ``call`` tags the spans of one CLI-equivalent call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = -1
        self.resolved = None
        #: Deep size in bytes and record count of the first trace seen.
        self.trace_size = None
        self._stack: list[int] = []

    def count(self, kind: str) -> None:
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span.counts is None:
                span.counts = {}
            span.counts[kind] = span.counts.get(kind, 0) + 1

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.call)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                result = annotate(self, span, args, result)
            return result

        return traced


def deep_size(trace) -> int:
    """Bytes held by a Trace's records, counting each shared object once."""
    seen = set()
    total = 0

    def add(obj):
        nonlocal total
        if obj is None or id(obj) in seen:
            return
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray) and obj.base is not None:
            total += obj.nbytes  # a view: its data lives in the base array

    add(trace.records)
    for rec in trace.records:
        add(rec)
        for f in dataclasses.fields(rec):
            add(getattr(rec, f.name))
    return total


def _note_trace(tracer, trace):
    if tracer.trace_size is None:
        tracer.trace_size = (deep_size(trace), len(trace.records))


def _counting(tracer, problem):
    """The same problem with an oracle whose evaluations the tracer counts."""
    from accelcert import problems

    oracle = problems.smooth_part(problem)

    def value(x):
        tracer.count("value")
        return oracle.value(x)

    def gradient(x):
        tracer.count("grad")
        return oracle.gradient(x)

    counted = dataclasses.replace(oracle, value=value, gradient=gradient)
    if isinstance(problem, problems.CompositeObjective):
        return dataclasses.replace(problem, smooth=counted)
    return counted


def _on_resolve(tracer, span, args, result):
    problem, optimum = result
    tracer.resolved = (_counting(tracer, problem), optimum)
    return tracer.resolved


def _on_run(tracer, span, args, trace):
    from accelcert.algorithms import MONOTONE_ALGOS

    params = args[1]
    span.label, span.units = params.algo, params.iters
    if params.algo in MONOTONE_ALGOS:
        recs = trace.records
        accepted = sum(np.array_equal(recs[k + 1].x, recs[k].z) for k in range(params.iters))
        span.counts = dict(span.counts or {}, accepted=accepted, attempted=params.iters)
    _note_trace(tracer, trace)
    return trace


def _on_load(tracer, span, args, trace):
    span.units = len(trace.records)
    _note_trace(tracer, trace)
    return trace


def _units(fn):
    def annotate(tracer, span, args, result):
        span.units = fn(args, result)
        return result
    return annotate


def _on_emit(tracer, span, args, result):
    span.label, span.units = args[1], len(args[0].records)
    return result


ANNOTATE = {
    "problems.resolve_problem": _on_resolve,
    "algorithms.run": _on_run,
    "harness.emit_trace": _on_emit,
    "harness.load_trace": _on_load,
    "lyapunov.certify": _units(lambda args, cert: len(cert.rows)),
    "lyapunov.certificate_to_dict": _units(lambda args, payload: len(payload["rows"])),
    "_core.ista_solve": _units(lambda args, x: int(args[5])),
}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the BOUNDARIES entry points, and json.dump, through ``tracer``."""
    import accelcert

    modules = {layer: importlib.import_module(f"accelcert.{layer}") for layer in LAYERS}
    namespaces = [accelcert, *modules.values()]
    patched = []
    for entry in BOUNDARIES:
        layer, attr = entry.split(".")
        fn = getattr(modules[layer], attr)
        wrapper = tracer.wrap(SPAN_NAMES.get(entry, entry), fn, ANNOTATE.get(entry))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    patched.append((ns, key, fn))
                    setattr(ns, key, wrapper)
    # Certificate writes are a json.dump inside harness; a span on it lets
    # them be told apart from the trace write in emit_trace.
    patched.append((json, "dump", json.dump))
    json.dump = tracer.wrap("json.dump", json.dump)
    try:
        yield
    finally:
        for ns, key, fn in reversed(patched):
            setattr(ns, key, fn)


def _per_unit(spans, name, label=None, scale=1e6):
    chosen = [s for s in spans if s.name == name and (label is None or s.label == label)]
    units = sum(s.units for s in chosen)
    return scale * sum(s.duration for s in chosen) / units if units else None


def _median_us(spans, name):
    durations = [s.duration for s in spans if s.name == name]
    return 1e6 * statistics.median(durations) if durations else None


def unit_metrics(spans) -> dict:
    """Per-unit layer costs and counts found in ``spans`` (layers not reached omitted)."""
    from accelcert.algorithms import ALGORITHMS

    out = {
        "_core.ista_us_per_iter": _per_unit(spans, "_core.ista_solve"),
        "proximal.prox_eval_us": _median_us(spans, "proximal.soft_threshold"),
        "lyapunov.certify_us_per_row": _per_unit(spans, "lyapunov.certify"),
        "harness.emit_json_us_per_record": _per_unit(spans, "harness.emit_trace", "json"),
        "harness.emit_csv_us_per_record": _per_unit(spans, "harness.emit_trace", "csv"),
        "harness.load_trace_us_per_record": _per_unit(spans, "harness.load_trace"),
        "harness.parse_config_us": _median_us(spans, "harness.parse_config"),
    }
    for algo in ALGORITHMS:
        out[f"algorithms.run_us_per_iter.{algo}"] = _per_unit(spans, "algorithms.run", algo)

    rows = sum(s.units for s in spans if s.name == "lyapunov.certificate_to_dict")
    if rows:
        # A json.dump outside emit_trace is a certificate write.
        write = sum(
            s.duration for s in spans
            if s.name == "lyapunov.certificate_to_dict"
            or (s.name == "json.dump"
                and (s.parent < 0 or spans[s.parent].name != "harness.emit_trace"))
        )
        out["harness.cert_write_us_per_row"] = 1e6 * write / rows

    runs = [s for s in spans if s.name == "algorithms.run"]
    iters = sum(s.units for s in runs)
    if iters:
        total = {k: sum((s.counts or {}).get(k, 0) for s in runs)
                 for k in ("grad", "value", "accepted", "attempted")}
        out["algorithms.grad_evals_per_iter"] = total["grad"] / iters
        out["algorithms.value_evals_per_iter"] = total["value"] / iters
        if total["attempted"]:
            out["algorithms.accept_frac"] = total["accepted"] / total["attempted"]
    return {k: v for k, v in out.items() if v is not None}


def trace_file_us_per_record(spans) -> float:
    """Time in emit_trace and load_trace per trace record: the trace file I/O."""
    chosen = [s for s in spans if s.name in ("harness.emit_trace", "harness.load_trace")]
    return 1e6 * sum(s.duration for s in chosen) / sum(s.units for s in chosen)


def self_times(spans) -> dict:
    """Per-layer self time: span duration minus that of its child layer spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0 and s.name != "json.dump":
            child[s.parent] += s.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        if s.name != "json.dump":
            out[s.name.split(".")[0]] += s.duration - child[i]
    return out


def _call_main(argv) -> tuple[int, str]:
    """``harness.main(argv)`` with its output captured; returns (exit code, stderr)."""
    from accelcert import harness

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = harness.main(argv)
        except Exception:  # a crash is one failed call, reported with its traceback
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def inprocess(workload, seconds: float, record):
    """Alternate untraced and traced in-process cycles of the workload's calls.

    Each call is ``harness.main(argv)``, the CLI minus interpreter start and
    import. ``record(call, code, stderr)`` checks one call's outputs; traced
    calls also check the KKT residual of the optimum they resolved. Returns
    the per-call times of both passes and the tracer.
    """
    untraced, traced = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        for call in workload.next_cycle():
            t0 = time.perf_counter()
            code, err = _call_main(call.argv)
            untraced.append(time.perf_counter() - t0)
            record(call, code, err)
        with instrumented(tracer):
            for call in workload.next_cycle():
                tracer.call += 1
                t0 = time.perf_counter()
                code, err = _call_main(call.argv)
                traced.append(time.perf_counter() - t0)
                if tracer.resolved is not None:
                    x_star = tracer.resolved[1].x_star
                    call.checks.append(lambda x=x_star: _check_kkt(workload, x))
                record(call, code, err)
        if time.perf_counter() >= deadline:
            return untraced, traced, tracer


def _check_kkt(workload, x_star):
    resid = workload.kkt(np.asarray(x_star))
    return None if resid <= KKT_TOL else f"pinned optimum has KKT residual {resid:.3g}"
