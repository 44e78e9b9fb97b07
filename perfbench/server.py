"""Launch ``repro serve`` for the observe_http workload.

Runs the program's own ``serve`` command in this process, after
installing the tracer's wrappers when ``--trace 1`` asks for them.  On
SIGTERM the service shuts down cleanly, as ``serve`` does on Ctrl-C, and
this launcher writes its peak RSS (and, when traced, its spans and
counters) to ``--stats``.

    python3 perfbench/server.py --src SRC --store DIR --stats FILE --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BLAS_ENV, peak_rss_mb  # noqa: E402

os.environ.update(BLAS_ENV)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.cli import main as repro_main

    # SIGTERM, not SIGINT: a parent started in the background may pass
    # SIGINT down ignored, and Python then never installs its handler.
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = None
    if args.trace:
        from tracer import Tracer, install_model_layers, install_service_layers

        tracer = Tracer(process="server", log_counts=True)
        install_model_layers(tracer)
        install_service_layers(tracer)
    try:
        # Two tuning threads: one per core of the machine the
        # benchmark is sized for, matching its two client connections.
        return repro_main([
            "serve", "--port", "0", "--store", args.store, "--tuning-threads", "2",
        ])
    finally:
        stats = {"peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            stats["trace"] = tracer.dump()
        Path(args.stats).write_text(json.dumps(stats))


if __name__ == "__main__":
    raise SystemExit(main())
