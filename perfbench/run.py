"""LOCAT end-to-end benchmark: cold tuning, drift retunes, HTTP observes.

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Prints a header line, a summary line, and, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.bench_work/spans/``.  When an output check
fails it prints a result with ``"correct": false`` and exits 1; without
the program's source (``src/repro``) it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import BLAS_ENV  # noqa: E402

# Before numpy loads: BLAS pools size themselves at import.
os.environ.update(BLAS_ENV)


def main(argv: list[str] | None = None) -> int:
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest budgets, for the self-test only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import header
    from tracer import Tracer, install_model_layers
    from workloads import CheckFailed, Context, layer_metrics, measured_spans, top_spans

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_model_layers(tracer)
    ctx = Context(src=src, work=work, seed=args.seed, seconds=args.seconds,
                  tiny=args.tiny, tracer=tracer)
    print("# header " + json.dumps(header(root, args.workload, args.seed, args.seconds,
                                          bool(args.trace), work)), flush=True)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        names = END_TO_END
        values = outcome.metrics
    else:
        names = PER_LAYER
        spans = measured_spans(outcome, tracer)
        values = layer_metrics(outcome, tracer, spans)
        outcome.summary["ops"] = outcome.layer_inputs["ops"]
        outcome.summary["top_spans"] = top_spans(spans)
        # Unscaled wall time of the timed operations' spans per operation:
        # the layers' self times add up to it.
        outcome.summary["op_span_s"] = sum(
            span["end"] - span["start"] for span in spans
            if span["process"] == "bench"
            and (span["name"] == "bench.op" or span["name"].startswith("client."))
        ) / max(int(outcome.layer_inputs["ops"]), 1)
        spans_path = root / ".bench_work" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(str(spans_path), extra=outcome.foreign)
        outcome.summary["spans_file"] = str(spans_path.relative_to(root))
    print("# summary " + json.dumps(outcome.summary), flush=True)
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
