"""End-to-end and per-layer benchmark of the accelcert CLI.

    python3 perfbench/run.py --workload quad-cert --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.json B.json

The program is the package under ``src/`` of the checkout this script sits
in; it is run from source, one ``accelcert`` CLI call at a time, each in a
fresh interpreter that the benchmark waits for (a closed loop with one
client). Whole cycles of calls (each cycle visits every scheme of the
workload once) are made until the calls have taken ``--seconds``, and
every call's outputs are checked. See ``workloads.py`` for the four
workloads.

With ``--trace 0`` the result line carries the end-to-end metrics:

- ``setup_s``: median time for a fresh interpreter to ``import accelcert``
  and ``resolve_problem`` the workload's problem (the lasso optimum pin
  included), as each CLI call times the two steps and reports them;
- ``e2e_s``: median wall time of one CLI call, spawn to exit;
- ``peak_rss_mb``: median peak RSS of one call, from ``os.wait4``.

Failed calls over attempted calls (``fail_frac``) are the ``failed`` and
``attempted`` fields of the result line. With ``--trace 1`` it carries the
per-layer metrics that every workload's own calls produce: the ``import
accelcert`` time of fresh interpreters, the interpreter overhead of a CLI
call (its wall time minus the time its ``main`` reports), and from a traced
in-process run (``tracing.py``) the resolve time, the untraced in-process
call time, trace file I/O time and bytes per record, trace memory per
record, and the self times of ``problems`` and ``harness`` per call.
Figures of layers that only some workloads reach (per-scheme step costs,
oracle and acceptance counts, certify and certificate-write costs, the
reference solve, the proximal map, the other span self times, the tracing
overhead) are stored under ``details.layer`` of the result file. Names and
units of the result line come from BENCHMARK.json. Timings are wall times;
on a shared host they move with the host's speed. Each run also writes a
result file (default ``.perfbench/results/``) holding the result line, the
environment and details such as the e2e tail percentile; ``--compare``
prints the metrics and layer details of two such files side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Metric names and units, in the order the result line lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Marks the stderr line on which a CLI call reports its own timings.
REPORT_MARK = "@perfbench-report"
#: One CLI call, as the ``accelcert`` entry point makes it, that also
#: reports on stderr how long ``import accelcert``, the call's
#: ``resolve_problem`` and ``main`` took. The one timed wrapper costs about
#: a microsecond; it lets every call give a set-up sample, so set-up is not
#: paid a second time in separate interpreters.
CLI_CODE = f"""
import json, sys, time
t0 = time.perf_counter()
import accelcert
import_s = time.perf_counter() - t0
from accelcert import harness
resolve, resolve_s = harness.resolve_problem, []
def timed_resolve(name):
    r0 = time.perf_counter()
    try:
        return resolve(name)
    finally:
        resolve_s.append(time.perf_counter() - r0)
harness.resolve_problem = timed_resolve
t1 = time.perf_counter()
code = harness.main()
report = {{"import_s": import_s, "resolve_s": resolve_s, "main_s": time.perf_counter() - t1}}
sys.stderr.write(f"\\n{REPORT_MARK} {{json.dumps(report)}}\\n")
sys.exit(code)
"""
#: A fresh interpreter's ``import accelcert`` and the environment it sees.
PACKAGE_CODE = """
import json, time
t0 = time.perf_counter()
import accelcert
import_s = time.perf_counter() - t0
import platform, numpy
from accelcert import _core
print(json.dumps({"import_s": import_s, "file": accelcert.__file__,
                  "backend": _core.backend_name(), "numpy": numpy.__version__,
                  "python": platform.python_version()}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, workdir) -> tuple[int, float, float, str, str]:
    """Run ``python args`` to exit; returns (exit code, wall s, peak RSS MB, stdout, stderr)."""
    paths = [os.path.join(workdir, name) for name in ("stdout.txt", "stderr.txt")]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, fd, path, flags, 0o644) for fd, path in zip((1, 2), paths)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(),
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    out, err = (Path(path).read_text() for path in paths)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0, out, err


def cli_call(call, workdir, tally) -> tuple[float, float, dict | None]:
    """One checked CLI call; returns (wall s, peak RSS MB, the call's own report or None)."""
    code, wall, peak, _, stderr = spawn(["-c", CLI_CODE, *call.argv], workdir)
    lines = stderr.strip().splitlines()
    reports = [line for line in lines if line.startswith(REPORT_MARK)]
    tally.record(call, code, "\n".join(line for line in lines if not line.startswith(REPORT_MARK)))
    return wall, peak, json.loads(reports[-1].split(" ", 1)[1]) if reports else None


def package_info(workdir) -> dict:
    """Import accelcert in a fresh interpreter; fails if it is not the checkout's."""
    code, _, _, out, err = spawn(["-c", PACKAGE_CODE], workdir)
    if code != 0:
        last = err.strip().splitlines()[-1:]
        raise BenchError(f"cannot import accelcert from {SRC}: {''.join(last)}")
    info = json.loads(out.strip().splitlines()[-1])
    if not Path(info["file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"accelcert was imported from {info['file']}, not from {SRC}")
    return info


def environment(info: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": info["python"],
        "numpy": info["numpy"],
        "backend": info["backend"],
        "ACCELCERT_PURE_PYTHON": "ACCELCERT_PURE_PYTHON" in os.environ,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Tally:
    """Attempted and failed calls, with the first failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def record(self, call, code, stderr="") -> None:
        self.attempted += 1
        problems = call.verify(code)
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                tail = stderr.strip().splitlines()[-1:]
                self.messages.append(f"{' '.join(call.argv[:5])}: {'; '.join(problems + tail)}")


def measure(workload, seconds, workdir, tally):
    """Whole cycles of CLI calls until they have taken ``seconds``.

    Returns per-call wall s, peak RSS MB and set-up s (``import accelcert``
    plus ``resolve_problem``, as each call reports them).
    """
    walls, rss, setups = [], [], []
    while sum(walls) < seconds:
        for call in workload.next_cycle():
            wall, peak, report = cli_call(call, workdir, tally)
            walls.append(wall)
            rss.append(peak)
            if report and report["resolve_s"]:
                setups.append(report["import_s"] + report["resolve_s"][0])
    return walls, rss, setups


def tail_percentile(values):
    """Highest integer percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        idx = max(0, -(-p * n // 100) - 1)
        if n - idx - 1 >= 10:
            return {"percentile": p, "value": ordered[idx], "samples": n, "beyond": n - idx - 1}
    return None


def file_bytes_per_record(workdir, fmt, iters):
    """Median size of the workload's trace files of format ``fmt``, per record."""
    sizes = [os.path.getsize(os.path.join(workdir, f)) for f in os.listdir(workdir)
             if f.endswith(f"trace.{fmt}")]
    return statistics.median(sizes) / (iters + 1) if sizes else None


def traced_metrics(workload, seconds, workdir, tally, first_import_s) -> tuple[dict, dict]:
    """Per-layer metrics of the workload's own calls; returns (metrics, details).

    One cycle of CLI calls, each reporting its import time and how long its
    ``main`` took, gives ``import.accelcert_s`` (with ``first_import_s``)
    and ``cli.overhead_s``; the rest comes from the traced in-process run.
    Figures of layers that only some workloads reach go to ``details``.
    """
    imports, overheads = [first_import_s], []
    for call in workload.next_cycle():
        wall, _, report = cli_call(call, workdir, tally)
        if report is not None:
            imports.append(report["import_s"])
            overheads.append(wall - report["main_s"])
    if not overheads:
        raise BenchError("no CLI call reported its timings")

    sys.path.insert(0, str(SRC))
    import tracing

    untraced, traced, tracer = tracing.inprocess(workload, seconds, tally.record)
    if tracer.resolved is None:
        raise BenchError("no traced call resolved a problem")
    spans = tracer.spans
    calls = len(traced)
    optimum = tracer.resolved[1]
    self_s = {layer: t / calls for layer, t in tracing.self_times(spans).items()}
    resolve = [s.duration for s in spans if s.name == "problems.resolve_problem"]
    trace_bytes, records = tracer.trace_size
    metrics = {
        "import.accelcert_s": statistics.median(imports),
        "problems.resolve_s": statistics.median(resolve),
        "harness.main_s": statistics.median(untraced),
        "harness.trace_file_us_per_record": tracing.trace_file_us_per_record(spans),
        "harness.trace_bytes_per_record": file_bytes_per_record(
            workdir, workload.trace_format, workload.iters),
        "algorithms.trace_bytes_per_record": trace_bytes / records,
        "span.problems.self_s": self_s["problems"],
        "span.harness.self_s": self_s["harness"],
        "cli.overhead_s": statistics.median(overheads),
    }

    layer = tracing.unit_metrics(spans)
    params = optimum.solver_params or {}
    layer["problems.ref_iters"] = int(params.get("iterations", 0))
    layer["problems.kkt_residual"] = workload.kkt(optimum.x_star)
    for kind in ("json", "csv"):
        size = file_bytes_per_record(workdir, kind, workload.iters)
        if size is not None:
            layer[f"harness.{kind}_bytes_per_record"] = size
    for name, t in self_s.items():
        layer[f"span.{name}.self_s"] = t
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    details = {
        "inprocess_untraced_s": statistics.median(untraced),
        "inprocess_traced_s": statistics.median(traced),
        "inprocess_calls": calls,
        "spans": len(spans),
        "resolve_share": sum(resolve) / sum(traced),
        "layer": layer,
    }
    return metrics, details


def bench(args) -> dict:
    if not (SRC / "accelcert" / "__init__.py").is_file():
        raise BenchError(f"no accelcert package under {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, args.seed, workdir, args.iters)
        info = package_info(workdir)
        env = environment(info)
        tally = Tally()
        for call in workload.setup_calls:
            cli_call(call, workdir, tally)
        spawn(["-c", CLI_CODE, "--help"], workdir)  # warm the bytecode cache
        if args.trace:
            metrics, details = traced_metrics(workload, args.seconds, workdir, tally,
                                              info["import_s"])
            units = PER_LAYER
        else:
            walls, rss, setups = measure(workload, args.seconds, workdir, tally)
            if not setups:
                raise BenchError("no CLI call reported its set-up time")
            metrics = {"setup_s": statistics.median(setups),
                       "e2e_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss)}
            details = {"cli_calls": len(walls), "e2e_tail": tail_percentile(walls),
                       "e2e_samples_s": walls, "rss_samples_mb": rss,
                       "setup_samples_s": setups}
            units = END_TO_END
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(sorted(missing))}")
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        details["fail_frac"] = tally.failed / tally.attempted
        details["failures"] = tally.messages
        return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "iters": workload.iters, "env": env,
                "details": details, "result": result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(record) -> None:
    d = record["details"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"fail_frac {d['fail_frac']:.3g} "
          f"({record['result']['failed']}/{record['result']['attempted']})")
    for msg in d["failures"]:
        print(f"  failed: {msg}")
    if "e2e_tail" in d:
        tail = d["e2e_tail"]
        if tail:
            print(f"e2e_s p{tail['percentile']} = {tail['value']:.4f} s "
                  f"({tail['samples']} samples, {tail['beyond']} beyond; not gated)")
        else:
            print(f"e2e_s tail: no percentile has 10 samples beyond it "
                  f"({d['cli_calls']} samples)")
    else:
        print(f"{d['inprocess_calls']} traced in-process calls, {d['spans']} spans; "
              f"resolve share of traced time {d['resolve_share']:.1%}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in d.get("layer", {}).items():
        print(f"  (details) {name:30s} {value:.6g}")


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def _values(record) -> dict:
    """Every metric of a result file: the result line's, then the layer details."""
    values = {name: (m["value"], m["unit"]) for name, m in record["result"]["metrics"].items()}
    for name, value in record["details"].get("layer", {}).items():
        values.setdefault(name, (value, "details"))
    return values


def compare(path_a: str, path_b: str) -> None:
    """Print each metric of two result files side by side with B/A and A/B."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in sorted(set(a["env"]) | set(b["env"])):
        if a["env"].get(key) != b["env"].get(key):
            print(f"warning: environment differs in {key}: "
                  f"{a['env'].get(key)!r} vs {b['env'].get(key)!r}")
    for key in ("workload", "iters", "trace"):
        if a[key] != b[key]:
            print(f"warning: {key} differs: {a[key]!r} vs {b[key]!r}")
    ma, mb = _values(a), _values(b)
    print(f"{'metric':40s} {'unit':10s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'A/B':>8s}")
    for name in list(ma) + [k for k in mb if k not in ma]:
        va, unit = ma.get(name, (None, None))
        vb, unit_b = mb.get(name, (None, None))
        both = va is not None and vb is not None
        print(f"{name:40s} {unit or unit_b:10s} {_fmt(va):>12s} {_fmt(vb):>12s} "
              f"{_fmt(vb / va if both and va else None):>8s} "
              f"{_fmt(va / vb if both and vb else None):>8s}")
    for label, rec in (("A", a), ("B", b)):
        print(f"{label}: {rec['workload']} seed {rec['seed']} trace {rec['trace']}, failed "
              f"{rec['result']['failed']}/{rec['result']['attempted']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iters", type=int, help="override the workload's n (self-test)")
    parser.add_argument("--out", help="result file (default .perfbench/results/...)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print two result files side by side and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else (
        OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(f"result file: {out}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
