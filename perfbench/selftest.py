"""Self-test of the benchmark at tiny n.

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default, including the two that
BENCHMARK.json does not list) it runs one untraced and one traced benchmark
run with n = 20 and checks that the result line names every metric of
BENCHMARK.json with its unit, that every value is a positive number, and
that no call failed (fail_frac = 0). It then checks that ``--compare``
prints every metric of two result files, and that the benchmark exits
non-zero without a result line in a directory holding only BENCHMARK.json
and the benchmark. Exits 1 on the first failed check. Takes about two
minutes, most of it the lasso reference solve, which does not shrink with
n.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / HERE.name / RUN.name), *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def check_result(proc, expected: dict, what: str) -> None:
    expect(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
           f"{what}: fail_frac must be 0, got {result['failed']}/{result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == expected, f"{what}: metrics {sorted(set(got) ^ set(expected))} differ")
    for name, m in result["metrics"].items():
        value = m["value"]
        expect(isinstance(value, (int, float)) and not isinstance(value, bool)
               and math.isfinite(value) and value > 0,
               f"{what}: {name} must be a positive number, got {value!r}")


def main(names) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    names = names or list(workloads.NAMES)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = tmp / f"{name}-{trace}.json"
                proc = bench("--workload", name, "--seed", "0", "--seconds", "0.1",
                             "--iters", "20", "--trace", str(trace), "--out", str(out))
                check_result(proc, units[key], f"{name} --trace {trace}")
                print(f"ok: {name} --trace {trace}")

        first = names[0]
        proc = bench("--compare", str(tmp / f"{first}-0.json"), str(tmp / f"{first}-1.json"))
        expect(proc.returncode == 0, f"--compare exited {proc.returncode}: {proc.stderr[-400:]}")
        for metric in [*units["end_to_end"], *units["per_layer"]]:
            expect(metric in proc.stdout, f"--compare does not print {metric}")
        print("ok: --compare")

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", first, "--seed", "0", "--seconds", "1", "--trace", "0",
                     root=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "a checkout without the program must fail without a result line")
        print("ok: fails without the program")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
