"""Executor memory, garbage collection, spill, and OOM model.

Spark's unified memory manager gives each task a slice of
``executor.memory * memory.fraction``; ``memory.storageFraction`` carves
out a region immune to eviction (shrinking what execution can claim), and
``memory.offHeap.*`` moves shuffle/aggregation buffers off the JVM heap.

The paper attributes most of LOCAT's speedup to reduced JVM GC time
(section 5.8, Figure 19): badly sized heaps spend a large and
superlinearly growing share of CPU in GC, and undersized task memory
causes spills or OOM (section 1 and section 5.12).  This module models
exactly those effects.

The budget depends on the configuration alone, so the engine computes it
once per run with :func:`task_memory_budget` and hands it to one
:func:`evaluate_task_memory` call over the working sets of every reduce
phase of the run.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.sparksim.configspace import ParamValue

#: Per-GB in-memory expansion of shuffled bytes: deserialized row objects
#: (3-5x the compact on-wire form), hash tables / sort runs built over
#: them, and concurrently open spill and fetch buffers.  Spark practice
#: is that a task comfortably needs an order of magnitude more execution
#: memory than the raw bytes of its shuffle partition.
WORKING_SET_EXPANSION = 8.0

#: Above this heap-pressure level a task cannot proceed even by spilling
#: (e.g. a single hash-map bucket no longer fits) and the executor dies.
#: Executor death is rare under the Table-2 ranges but devastating when
#: it happens (stage retries, lost shuffle files) — this rare-but-huge
#: tail gives shuffle-heavy queries their large CVs in Figure 8 while
#: keeping the *average* random-configuration run within a small factor
#: of a tuned run.
OOM_PRESSURE = 3.5


class TaskMemoryBudget(NamedTuple):
    """Memory available to a single task, split by region."""

    heap_gb: float  # on-heap execution memory per task
    offheap_gb: float  # off-heap execution memory per task (0 unless enabled)

    @property
    def total_gb(self) -> float:
        return self.heap_gb + self.offheap_gb


def task_memory_budget(config: Mapping[str, ParamValue]) -> TaskMemoryBudget:
    """Per-task execution memory implied by the configuration.

    Follows Spark's unified memory manager arithmetic: usable heap is
    ``(executor.memory - 300 MB) * memory.fraction``, of which the storage
    region (``memory.storageFraction``) is protected from eviction, and
    the remainder is shared by ``executor.cores`` concurrent tasks.
    """
    heap_gb = max(float(config["executor.memory"]) - 0.3, 0.1)
    unified_gb = heap_gb * float(config["memory.fraction"])
    execution_gb = unified_gb * (1.0 - 0.6 * float(config["memory.storageFraction"]))
    cores = max(int(config["executor.cores"]), 1)
    heap_per_task = execution_gb / cores

    offheap_per_task = 0.0
    if config["memory.offHeap.enabled"]:
        offheap_per_task = float(config["memory.offHeap.size"]) / 1024.0 / cores

    return TaskMemoryBudget(heap_gb=heap_per_task, offheap_gb=offheap_per_task)


class MemoryOutcome(NamedTuple):
    """Result of pushing task working sets through the memory model.

    Every field has the shape of the working sets it was computed from.
    """

    gc_fraction: np.ndarray  # fraction of task compute time spent in JVM GC
    spill_gb: np.ndarray  # per-task bytes spilled to disk (0 if it fit)
    oom: np.ndarray  # the task working set exceeded even spillable limits
    heap_pressure: np.ndarray  # working set / heap budget, after off-heap relief


def _powers(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` elementwise, with libm's ``pow`` (as Python's
    ``**`` on floats).

    numpy's ``power`` may take a vectorized path that differs from libm in
    the last bit (on about 5% of inputs for ``1.3`` and 0.08% for ``2``),
    and the engine's floats are pinned bit for bit.
    """
    return np.fromiter(map(math.pow, base.tolist(), repeat(exponent)), float, base.size)


def evaluate_task_memory(working_set_gb, budget: TaskMemoryBudget) -> MemoryOutcome:
    """GC, spill, and OOM outcome for tasks of ``working_set_gb`` (a scalar
    or an array, one task per element) under ``budget`` (from
    :func:`task_memory_budget`).

    Off-heap memory absorbs up to ~60% of the working set (shuffle and
    aggregation buffers can live off-heap; object headers and code cannot),
    reducing heap pressure — this is why ``memory.offHeap.size`` climbs
    into the top-5 important parameters at 1 TB (Table 3).
    """
    working_set = np.asarray(working_set_gb, dtype=float)
    if np.count_nonzero(working_set < 0):
        raise ValueError("working_set_gb must be non-negative")

    heap_set_gb = working_set
    if budget.offheap_gb > 0:
        absorbed = np.minimum(working_set * 0.6, budget.offheap_gb)
        heap_set_gb = working_set - absorbed

    pressure = heap_set_gb / max(budget.heap_gb, 1e-6)

    # JVM GC: a healthy heap spends a small constant share in GC; as the
    # live set approaches the heap size, collections become frequent and
    # full, growing the share superlinearly.  Past the heap size the task
    # thrashes between collections and evictions, so the share climbs
    # steeply — this fat tail is what makes shuffle-heavy queries reach
    # CVs above 3 in Figure 8 while map-only queries stay near the noise
    # floor.
    flat = pressure.ravel()
    gc_fraction = 0.02 + 0.08 * _powers(np.minimum(flat, 1.0), 2.0)
    over = flat > 1.0
    if np.count_nonzero(over):
        gc_fraction[over] += 0.35 * _powers(np.minimum(flat[over] - 1.0, 1.0), 1.3)
        over = flat > 2.0
        if np.count_nonzero(over):
            gc_fraction[over] += 2.0 * _powers(np.minimum(flat[over] - 2.0, 2.0), 2.0)
            gc_fraction = np.minimum(gc_fraction, 5.0)  # below pressure 2 it stays under 0.45

    return MemoryOutcome(
        gc_fraction=gc_fraction.reshape(pressure.shape),
        spill_gb=np.maximum(heap_set_gb - 1.2 * budget.heap_gb, 0.0),
        oom=pressure > OOM_PRESSURE,
        heap_pressure=pressure,
    )
