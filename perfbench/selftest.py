"""Self-test of the benchmark: a tiny run of every workload in both modes.

    python3 perfbench/selftest.py

Checks, for each workload and for --trace 0 and 1, that the run exits with
code 0, that its result line names exactly the metrics of BENCHMARK.json
with their units and finite values, that every metric is also printed with
its unit in the readable lines, and that nothing failed (failed_ratio 0).
On sessions_short the traced run must read the paper's modexp counts
A 1, B 3, C 2 and verify 2. Last, a copy of BENCHMARK.json and the
benchmark without the library must exit non-zero and print no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_COUNTS = {"A": 1, "B": 3, "C": 2, "verify": 2}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stderr}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in declared]:
        problems.append(f"{where}: result metrics differ from BENCHMARK.json")
    readable = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            readable[parts[0]] = (parts[1], parts[2])
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append(f"{where}: {m['name']} = {got}")
        if readable.get(m["name"], (None, None))[1] != m["unit"]:
            problems.append(f"{where}: {m['name']} is not printed with its unit")
    if not trace and float(readable.get("failed_ratio", ("nan",))[0]) != 0:
        problems.append(f"{where}: failed_ratio is not 0")
    if trace and workload == "sessions_short":
        for party, want in EXPECTED_COUNTS.items():
            got = float(readable.get(f"group_math.modexp_count.{party}", ("nan",))[0])
            if got != want:
                problems.append(f"{where}: modexp count {party} = {got}, expected {want}")
    return problems


def check_without_library() -> list[str]:
    with tempfile.TemporaryDirectory(prefix="isolated-", dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "sessions_short", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], Path(tmp))
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the library: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload:<16} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_without_library()
    print(f"{'no library':<16}           {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
