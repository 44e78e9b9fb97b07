"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 1 2 3 4 5 --out perfbench/results/set1.json
    python3 perfbench/steady.py --seeds 1 2 3 4 5 --out set2.json --compare set1.json

For each workload and end-to-end metric: the median and quartiles of
the per-run values (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, against the metric's bound in
BENCHMARK.json.  With ``--compare``, also how far each median moved
from the earlier set's, in the metric's worse direction.  Where a
workload scales its times by the host's speed, the unscaled times'
spreads are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    summary = next((json.loads(line[len("# summary "):]) for line in lines
                    if line.startswith("# summary ")), {})
    return {"seed": seed, "elapsed_s": elapsed, "result": result, "summary": summary}


def describe(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def render(report: dict, metrics: dict, compare: str | None) -> str:
    """The report as a markdown table per workload."""
    lines = [f"# Steadiness: seeds {report['seeds']}, {report['seconds']} s runs", ""]
    if compare:
        lines += [f"Medians compared with `{Path(compare).name}`; "
                  "'moved' is the change in the metric's worse direction.", ""]
    for workload, entry in report["workloads"].items():
        walls = ", ".join(f"{w:.0f}" for w in entry["run_wall_s"])
        lines += [f"## {workload}", "", f"Run wall times (s): {walls}", "",
                  "| metric | median | q1 | q3 | spread | bound |"
                  + (" moved |" if compare else ""),
                  "|---|---:|---:|---:|---:|---:|" + ("---:|" if compare else "")]
        for name, row in entry["metrics"].items():
            moved = f" {row['worse_than_earlier']:+.3f} |" if compare else ""
            lines.append(f"| {name} ({metrics[name]['unit']}) | {row['median']:.6g} | "
                         f"{row['q1']:.6g} | {row['q3']:.6g} | {row['spread']:.3f} | "
                         f"{row['bound']} |{moved}")
        for name, row in entry.get("unscaled", {}).items():
            lines.append(f"| {name}, unscaled wall time | {row['median']:.6g} | {row['q1']:.6g} "
                         f"| {row['q3']:.6g} | {row['spread']:.3f} | not bounded |"
                         + (" |" if compare else ""))
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None

    report: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        rows = {}
        print(f"{workload}: run wall {[round(r['elapsed_s'], 1) for r in runs]}")
        for name, metric in metrics.items():
            row = describe([r["result"]["metrics"][name]["value"] for r in runs])
            row["bound"] = metric["bound"]
            row["spread_ok"] = row["spread"] <= metric["bound"]
            if earlier is not None:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                worse = ((row["median"] - before) if metric["better"] == "lower"
                         else (before - row["median"])) / before
                row["worse_than_earlier"] = worse
                row["median_ok"] = worse <= metric["bound"]
            ok &= row["spread_ok"] and row.get("median_ok", True)
            rows[name] = row
            flag = "" if row["spread"] <= metric["bound"] / 3 else "  <-- above bound/3"
            moved = (f"  moved {row['worse_than_earlier']:+.3f}"
                     if "worse_than_earlier" in row else "")
            print(f"  {name:18s} median {row['median']:12.4f}  q1 {row['q1']:12.4f}  "
                  f"q3 {row['q3']:12.4f}  spread {row['spread']:.4f} / bound "
                  f"{metric['bound']}{moved}{flag}")
        raw = {}
        if all("raw" in r["summary"] for r in runs):
            for name in runs[0]["summary"]["raw"]:
                raw[name] = describe([r["summary"]["raw"][name] for r in runs])
                print(f"  unscaled {name:9s} median {raw[name]['median']:12.4f}  "
                      f"spread {raw[name]['spread']:.4f}")
        report["workloads"][workload] = {
            "metrics": rows,
            "unscaled": raw,
            "run_wall_s": [r["elapsed_s"] for r in runs],
            "summaries": [r["summary"] for r in runs],
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    out.with_suffix(".md").write_text(render(report, metrics, args.compare))
    print("accepted" if ok else "NOT accepted")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
