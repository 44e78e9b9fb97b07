"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the smallest budgets
(``--tiny``), untraced and traced, and checks that each run prints, as
its last line, a result with exactly the keys correct/attempted/failed/
metrics, and every end-to-end (untraced) or per-layer (traced) metric
of BENCHMARK.json with its unit; that every name uses only
``[A-Za-z0-9_.-]``; and that the benchmark fails, without a result,
in a directory holding only BENCHMARK.json and its own files.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]] + [*declared[0], *declared[1]]
    failures += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        failures.append("BENCHMARK.json metrics differ from workloads.END_TO_END/PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                failures.append(f"{where}: not correct or nothing attempted")
            metrics = result.get("metrics", {})
            if set(metrics) != set(declared[trace]):
                failures.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(declared[trace]))}")
            for name, metric in metrics.items():
                value = metric.get("value")
                if metric.get("unit") != declared[trace].get(name):
                    failures.append(f"{where}: {name} unit {metric.get('unit')!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{where}: {name} value {value!r}")
                elif trace == 0 and value == 0:
                    failures.append(f"{where}: end-to-end {name} is 0")
            print(f"ok  {where}" if not failures else f"... {where}", flush=True)

    # Without the program's source the benchmark must fail, and print no result.
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        failures.append("the benchmark did not fail without the program's source")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
