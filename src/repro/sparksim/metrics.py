"""Execution metrics returned by the simulator.

Mirrors what the Spark history server exposes and what the paper measures:
per-query latency (QCSA's input), JVM GC time (Figure 19), shuffle volumes
(section 5.11's sensitivity explanation), and failure/retry accounting.

The per-stage and per-query records are ``NamedTuple``s: a run builds one
:class:`StageMetrics` per stage (201 for a TPC-DS run).  The engine
computes every stage of a run as array columns and builds the records
with ``tuple.__new__`` over the zipped columns, which skips even the
NamedTuple's Python-level ``__new__`` (a frozen dataclass would set every
field through ``object.__setattr__``).  They are immutable value objects;
their field order and defaults are part of the contract, and their
floats are plain Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class StageMetrics(NamedTuple):
    """Timing breakdown of one simulated stage."""

    kind: str
    duration_s: float
    compute_s: float
    io_s: float
    shuffle_s: float
    gc_s: float
    overhead_s: float
    waves: int
    partitions: int
    shuffle_bytes_gb: float
    spilled: bool
    broadcast: bool


class QueryMetrics(NamedTuple):
    """Timing of one simulated query, with its stage breakdown."""

    name: str
    duration_s: float
    gc_s: float
    shuffle_bytes_gb: float
    stages: tuple[StageMetrics, ...]
    failed: bool = False
    retries: int = 0

    @property
    def stage_count(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class ApplicationMetrics:
    """Timing of one simulated application run."""

    application: str
    datasize_gb: float
    duration_s: float
    gc_s: float
    queries: tuple[QueryMetrics, ...]

    @property
    def query_durations(self) -> dict[str, float]:
        return {q.name: q.duration_s for q in self.queries}

    @property
    def failed_queries(self) -> list[str]:
        return [q.name for q in self.queries if q.failed]

    def duration_of(self, names: list[str] | None = None) -> float:
        """Total duration of the named queries (all queries when None)."""
        if names is None:
            return self.duration_s
        wanted = set(names)
        return sum(q.duration_s for q in self.queries if q.name in wanted)
