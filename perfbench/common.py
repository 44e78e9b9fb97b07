"""Statistics, the result header and process facts shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Percentiles a tail is chosen from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Environment variables pinning BLAS/OpenMP pools to one thread; with
#: one thread per core OpenBLAS oversubscribes a small machine and a
#: tuning session burns twice the CPU for the same wall time.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values) -> dict | None:
    """The highest percentile of the ladder with at least ten samples
    beyond it (``pct``, ``value``, ``beyond``), or None if none has."""
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= 10:
            return {"pct": pct, "value": nearest_rank(values, pct), "beyond": beyond}
    return None


def median(values, default: float = 0.0) -> float:
    return float(statistics.median(values)) if values else default


def mean(values, default: float = 0.0) -> float:
    return float(statistics.fmean(values)) if values else default


def geomean(values) -> float:
    return float(math.exp(statistics.fmean(math.log(v) for v in values)))


#: Wall time of one ``HostSpeed`` probe on the reference host (the
#: 2-vCPU x86 VM in its usual state).  The CPU-bound workloads report
#: their times scaled to a host on which the probe takes this long.
PROBE_REF_S = 0.015


class HostSpeed:
    """How fast the host runs now, from a fixed probe timed between
    operations.

    The probe is a Python loop plus small numpy factorisations and
    kernels, about the mix of the tuner's hot paths, and shares no code
    with the program.  ``factor`` is the median probe time over
    ``PROBE_REF_S``: above 1 the host ran slower than the reference.
    Within a run the host alternates between fast and slow phases of a
    few seconds, which a probe cannot follow; between runs it drifts
    by up to 2x over minutes, which the median probe of a run follows
    (correlation 0.92 with the same sessions' mean time over 18 runs).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((30, 30))
        self._spd = self._a @ self._a.T + 30.0 * np.eye(30)
        self._x = rng.standard_normal((200, 8))
        self.samples: list[float] = []

    def sample(self) -> None:
        np, a, x = self._np, self._a, self._x
        start = time.perf_counter()
        total = 0.0
        for i in range(20000):
            total += (i % 7) * 0.5
        for _ in range(60):
            lower = np.linalg.cholesky(self._spd)
            np.linalg.solve(lower, a[:, 0])
            np.exp(-((x[:, None, :] - x[None, :20, :]) ** 2).sum(-1))
        self.samples.append(time.perf_counter() - start)

    @property
    def factor(self) -> float:
        return median(self.samples) / PROBE_REF_S


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unavailable"
    return lines[1]


def header(root: Path, workload: str, seed: int, seconds: int, trace: bool,
           store_dir: Path | None) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "store_fs": filesystem_type(store_dir) if store_dir is not None else None,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": sys.argv[1:],
    }
