"""Traced-run report: per-layer self time, top spans, tracing overhead.

    python3 perfbench/report.py --seed 7 --out perfbench/results/trace_report

For each workload, runs the benchmark untraced and traced on the same
seed and writes ``<out>.json`` and ``<out>.md``: each layer's self time
per operation (unscaled wall time) and its share of the timed spans,
the five span names with the most self time, and the tracing overhead
(traced minus untraced ``op_s``, host-scaled where the workload scales
its times).  On
observe_http it also splits the observe round trip into transport,
scheduler queue and server run time.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from steady import ROOT, run_once

SELF_SUFFIX = ".self_s"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    lines = [f"# Traced-run report (seed {args.seed}, {args.seconds} s runs)", ""]
    for workload in args.workloads:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        e2e = {k: v["value"] for k, v in plain["result"]["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        overhead_s = layers["trace.op_s"] - e2e["op_s"]
        self_s = {k[: -len(SELF_SUFFIX)]: v for k, v in layers.items()
                  if k.endswith(SELF_SUFFIX) and v > 0}
        entry = {
            "untraced_op_s": e2e["op_s"],
            "traced_op_s": layers["trace.op_s"],
            "tracing_overhead_s": overhead_s,
            "tracing_overhead_share": overhead_s / e2e["op_s"],
            "op_span_s": traced["summary"]["op_span_s"],
            "self_s_per_op": self_s,
            "top_spans": traced["summary"].get("top_spans", []),
            "spans_file": traced["summary"].get("spans_file"),
            "ops": traced["summary"].get("ops"),
            "per_layer": layers,
            "end_to_end": e2e,
        }
        span_s = traced["summary"]["op_span_s"]
        lines += [
            f"## {workload}", "",
            f"- `op_s` per operation: untraced {e2e['op_s'] * 1000:.2f} ms, traced "
            f"{layers['trace.op_s'] * 1000:.2f} ms; tracing overhead "
            f"{overhead_s * 1000:+.2f} ms ({entry['tracing_overhead_share']:+.1%})",
            f"- spans: `{entry['spans_file']}` ({layers['trace.spans_per_op']:.1f} per operation, "
            f"{entry['ops']} operations)",
            f"- unscaled span time per operation, which the layers' self times share: "
            f"{span_s * 1000:.2f} ms",
            "", "| layer | self time per op (ms) | share of span time |", "|---|---:|---:|",
        ]
        for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
            lines.append(f"| {layer} | {seconds * 1000:.3f} | {seconds / span_s:.1%} |")
        lines += ["", "| top span | calls | total (s) | self (s) |", "|---|---:|---:|---:|"]
        for row in entry["top_spans"]:
            lines.append(f"| {row['name']} | {row['calls']} | {row['total_s']:.3f} | {row['self_s']:.3f} |")
        if workload == "observe_http":
            split = {k: layers[k] for k in ("http.transport_ms", "scheduler.queue_ms",
                                            "scheduler.run_ms")}
            accounted = sum(split.values())
            traced_p50 = traced["summary"]["observe_p50_ms"]
            entry["round_trip_split_ms"] = split
            plain_p50 = plain["summary"]["observe_p50_ms"]
            entry["untraced_observe_p50_ms"] = plain_p50
            entry["traced_observe_p50_ms"] = traced_p50
            means = traced["summary"]["round_trip_mean_ms"]
            entry["round_trip_mean_ms"] = means
            lines += [
                "", "Observe round trip (means, traced run; they add up exactly):", "",
                *(f"- {k}: {v:.3f} ms" for k, v in means.items()),
                f"- sum {sum(means.values()):.3f} ms = the traced mean round trip "
                f"(`trace.op_s`); the untraced mean (`op_s`) is "
                f"{e2e['op_s'] * 1000:.3f} ms, so the tracing overhead is "
                f"{overhead_s * 1000:+.3f} ms",
                "", "Observe round trip (medians, traced run; medians do not add up):", "",
                *(f"- {k}: {v:.3f} ms" for k, v in split.items()),
                f"- sum {accounted:.3f} ms against the untraced observe p50 "
                f"{plain_p50:.3f} ms (traced p50 {traced_p50:.3f} ms, so the "
                f"tracing overhead on the p50 is {traced_p50 - plain_p50:+.3f} ms)",
            ]
        lines.append("")
        report["workloads"][workload] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    out.with_suffix(".md").write_text("\n".join(lines))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
