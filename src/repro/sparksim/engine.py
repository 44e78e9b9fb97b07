"""Analytic execution engine: (application, configuration, datasize) -> metrics.

Each query runs stage by stage.  A stage has a map phase (read its input,
apply map-side operators, write shuffle output if any) and, for shuffle
stages, a reduce phase whose parallelism is ``sql.shuffle.partitions``.
Task-wave arithmetic converts per-task times into stage times; the memory
model converts per-task working sets into GC time, spill IO, and OOM
retries; the shuffle model converts shuffle volumes into disk/network
time modulated by compression.

The model deliberately makes the paper's observations emergent rather
than hard-coded:

* selection queries are dominated by cluster-level scan IO, so they react
  weakly to configuration (section 5.11);
* shuffle-heavy queries react strongly to ``sql.shuffle.partitions``,
  executor memory/cores/instances, and ``shuffle.compress`` (Table 3);
* GC time grows superlinearly with datasize under a fixed configuration
  (Figure 19), which is what DAGP exploits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.configspace import ConfigSpace, Configuration
from repro.sparksim.memorymodel import (
    WORKING_SET_EXPANSION,
    evaluate_task_memory,
)
from repro.sparksim.metrics import ApplicationMetrics, QueryMetrics, StageMetrics
from repro.sparksim.query import Application, Query, Stage, StageKind
from repro.sparksim.shuffle import broadcast_cost_s, shuffle_cost
from repro.stats.sampling import ensure_rng

#: CPU seconds to process one GB at unit cpu_weight on a core_speed=1 core.
CPU_SECONDS_PER_GB = 18.0

#: HDFS block size driving scan parallelism.
BLOCK_GB = 0.128

#: Fixed scheduling cost per task (serialization, dispatch).
TASK_LAUNCH_S = 0.004


class SparkSQLSimulator:
    """Simulates Spark SQL application runs on a :class:`ClusterSpec`.

    ``noise`` is the lognormal sigma of per-query measurement noise; the
    paper's Figure 8 shows insensitive queries still have CV around 0.2,
    which a ~4% run-to-run jitter plus residual configuration effects
    reproduces.
    """

    def __init__(self, cluster: ClusterSpec, noise: float = 0.04):
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.cluster = cluster
        self.noise = noise
        self.space = ConfigSpace.for_cluster(cluster)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        app: Application,
        config: Configuration,
        datasize_gb: float,
        rng: int | tuple[int, ...] | np.random.Generator | None = None,
    ) -> ApplicationMetrics:
        """Execute every query of ``app`` and return application metrics."""
        if datasize_gb <= 0:
            raise ValueError("datasize_gb must be positive")
        gen = ensure_rng(rng)
        config = self.space.repair(config)
        fixed = self._config_constants(config)
        queries = tuple(
            self._run_query(q, config, datasize_gb, gen, *fixed) for q in app.queries
        )
        return ApplicationMetrics(
            application=app.name,
            datasize_gb=float(datasize_gb),
            duration_s=sum(q.duration_s for q in queries),
            gc_s=sum(q.gc_s for q in queries),
            queries=queries,
        )

    def run_query(
        self,
        query: Query,
        config: Configuration,
        datasize_gb: float,
        rng: int | tuple[int, ...] | np.random.Generator | None = None,
    ) -> QueryMetrics:
        """Execute a single query (convenience wrapper)."""
        gen = ensure_rng(rng)
        config = self.space.repair(config)
        return self._run_query(query, config, datasize_gb, gen, *self._config_constants(config))

    def execution_slots(self, config: Configuration) -> int:
        """Concurrent task slots: executors x cores, capped by the cluster."""
        slots = int(config["executor.instances"]) * int(config["executor.cores"])
        return max(1, min(slots, self.cluster.total_cores))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _config_constants(self, config: Configuration) -> tuple[int, float, float]:
        """What a run computes from the configuration alone, once per run:
        execution slots, the default-deviation CPU penalty and the
        per-query driver overhead."""
        return (
            self.execution_slots(config),
            self._default_deviation_penalty(config),
            self._driver_overhead_s(config),
        )

    def _run_query(
        self,
        query: Query,
        config: Configuration,
        datasize_gb: float,
        rng: np.random.Generator,
        slots: int,
        penalty: float,
        driver_s: float,
    ) -> QueryMetrics:
        stages = tuple(
            self._run_stage(s, query, config, datasize_gb, slots, penalty) for s in query.stages
        )
        duration = sum(s.duration_s for s in stages) + driver_s
        gc_total = sum(s.gc_s for s in stages)
        retries = sum(1 for s in stages if s.spilled and s.gc_s > s.compute_s)
        failed = any(math.isinf(s.duration_s) for s in stages)
        if self.noise > 0:
            duration *= float(np.exp(rng.normal(0.0, self.noise)))
        return QueryMetrics(
            name=query.name,
            duration_s=duration,
            gc_s=gc_total,
            shuffle_bytes_gb=sum(s.shuffle_bytes_gb for s in stages),
            stages=stages,
            failed=failed,
            retries=retries,
        )

    def _driver_overhead_s(self, config: Configuration) -> float:
        """Per-query driver cost: planning plus result collection."""
        cores = max(int(config["driver.cores"]), 1)
        memory = max(float(config["driver.memory"]), 1.0)
        return 0.25 + 0.5 / cores + 0.3 / memory

    def _scan_partitions(self, input_gb: float, config: Configuration) -> int:
        blocks = max(1, int(math.ceil(input_gb / BLOCK_GB)))
        return max(blocks, int(config["default.parallelism"]) // 4)

    @staticmethod
    def _default_deviation_penalty(config: Configuration) -> float:
        """Cost of straying from the well-chosen defaults of secondary knobs.

        Spark's defaults for buffer sizes, batch sizes, and thresholds are
        interior sweet spots; both directions of deviation cost a few
        percent (too small: call overhead; too large: cache misses and
        memory churn).  The penalties are symmetric around the default, so
        rank correlation with execution time is ~0 and CPS rightly
        classifies these parameters as unimportant — but a tuner that
        randomizes them walks away with a multiplicatively worse plan.
        This is the mechanism behind the paper's section 5.6 observation
        that tuning *all* parameters underperforms tuning the important
        ones (Figure 15).
        """
        factor = 1.0
        factor *= 1.0 + 0.08 * abs(math.log2(float(config["sql.inMemoryColumnarStorage.batchSize"]) / 10000.0))
        factor *= 1.0 + 0.05 * abs(math.log2(float(config["kryoserializer.buffer.max"]) / 64.0))
        factor *= 1.0 + 0.03 * abs(math.log2(float(config["broadcast.blockSize"]) / 4.0))
        factor *= 1.0 + 0.03 * abs(math.log2(float(config["shuffle.file.buffer"]) / 32.0))
        factor *= 1.0 + 0.03 * abs(math.log2(float(config["io.compression.zstd.bufferSize"]) / 32.0))
        factor *= 1.0 + 0.03 * abs(math.log2(float(config["shuffle.sort.bypassMergeThreshold"]) / 200.0))
        factor *= 1.0 + 0.02 * abs(float(config["locality.wait"]) - 3.0)
        factor *= 1.0 + 0.02 * abs(math.log2(float(config["kryoserializer.buffer"]) / 64.0))
        return factor

    def _cpu_factor(self, stage: Stage, config: Configuration, penalty: float) -> float:
        """Multiplicative CPU modifiers from SQL-level switches, on top of
        the run's :meth:`_default_deviation_penalty`."""
        factor = penalty
        if stage.fields > int(config["sql.codegen.maxFields"]):
            factor *= 1.25  # whole-stage codegen disabled for wide plans
        if config["sql.inMemoryColumnarStorage.compressed"]:
            factor *= 1.02
        if stage.kind is StageKind.SHUFFLE_AGG:
            if config["sql.codegen.aggregate.map.twolevel.enable"]:
                factor *= 0.97
            if config["sql.retainGroupColumns"]:
                factor *= 1.005
        if stage.kind is StageKind.SORT and config["sql.sort.enableRadixSort"]:
            factor *= 0.97
        return factor

    def _task_overhead_s(self, config: Configuration, skew: float) -> float:
        """Scheduling cost per task: launch, revive polling, locality wait."""
        revive = float(config["scheduler.revive.interval"])
        locality = float(config["locality.wait"])
        return TASK_LAUNCH_S + 0.002 * revive + 0.02 * locality * skew

    def _run_stage(
        self,
        stage: Stage,
        query: Query,
        config: Configuration,
        datasize_gb: float,
        slots: int,
        penalty: float,
    ) -> StageMetrics:
        cluster = self.cluster
        core_speed = cluster.node.core_speed
        cpu_factor = self._cpu_factor(stage, config, penalty)
        task_overhead = self._task_overhead_s(config, stage.skew)

        input_gb = stage.input_fraction * datasize_gb
        shuffle_gb = stage.shuffle_fraction * datasize_gb

        # -------------------------- broadcast short-circuit ------------
        threshold_mb = float(config["sql.autoBroadcastJoinThreshold"]) / 1024.0
        is_join = stage.kind in (StageKind.SHUFFLE_JOIN, StageKind.BROADCAST_JOIN)
        broadcastable = is_join and 0.0 < stage.small_side_mb <= threshold_mb
        if broadcastable:
            return self._run_broadcast_stage(
                stage, config, input_gb, slots, core_speed, cpu_factor, task_overhead
            )

        # ------------------------------- map phase ---------------------
        if config["sql.inMemoryColumnarStorage.partitionPruning"] and query.category == "selection":
            input_gb *= 0.95  # pruning skips unneeded cached partitions
        map_partitions = self._scan_partitions(max(input_gb, BLOCK_GB), config)
        map_cpu_weight = stage.cpu_weight * (0.4 if shuffle_gb > 0 else 1.0)
        per_task_gb = input_gb / map_partitions
        map_task_s = per_task_gb * map_cpu_weight * CPU_SECONDS_PER_GB * cpu_factor / core_speed
        map_waves = math.ceil(map_partitions / slots)
        compute_s = map_waves * map_task_s
        overhead_s = map_partitions * task_overhead / slots
        io_s = input_gb * 1024.0 / cluster.aggregate_disk_mb_per_s
        if config["rdd.compress"]:
            io_s *= 0.98  # cached partitions are smaller, re-reads cheaper
        mm_threshold = float(config["storage.memoryMapThreshold"])
        io_s *= 1.0 + 0.01 * (1.0 / max(mm_threshold, 0.5))

        gc_s = compute_s * 0.02  # map tasks stream, little heap pressure
        shuffle_s = 0.0
        spilled = False

        # ------------------------------ reduce phase -------------------
        if shuffle_gb > 0:
            reduce_partitions = int(config["sql.shuffle.partitions"])
            if stage.kind is StageKind.SORT:
                reduce_partitions = max(reduce_partitions, int(config["default.parallelism"]))
            per_reduce_gb = shuffle_gb / reduce_partitions

            working_set_gb = per_reduce_gb * WORKING_SET_EXPANSION
            if config["sql.inMemoryColumnarStorage.compressed"]:
                working_set_gb *= 0.88
            # Memory trouble strikes the largest partition first: with key
            # skew the straggler partition holds several times the average
            # volume, and it is the one that thrashes GC or dies with OOM.
            straggler_set_gb = working_set_gb * (1.0 + 3.0 * stage.skew)
            outcome = evaluate_task_memory(straggler_set_gb, config)

            reduce_weight = stage.cpu_weight
            if stage.kind is StageKind.SHUFFLE_JOIN and not config["sql.join.preferSortMergeJoin"]:
                # Shuffle-hash join: slightly faster when memory is ample,
                # slightly worse when the build side must spill.
                reduce_weight *= 0.97 if outcome.heap_pressure < 0.8 else 1.04
            reduce_task_s = per_reduce_gb * reduce_weight * CPU_SECONDS_PER_GB * cpu_factor / core_speed
            reduce_waves = math.ceil(reduce_partitions / slots)
            # A skewed shuffle leaves one straggler partition several times
            # the average size; it extends the last wave.
            straggler_s = stage.skew * 3.0 * reduce_task_s
            reduce_compute_s = reduce_waves * reduce_task_s + straggler_s

            cost = shuffle_cost(shuffle_gb, config, cluster, spill=outcome.spill_gb > 0)
            active = max(slots * core_speed, 1.0)
            shuffle_s = cost.write_s + cost.fetch_s
            compute_s += reduce_compute_s + cost.compress_core_s / active

            spill_total_gb = outcome.spill_gb * reduce_partitions
            if spill_total_gb > 0:
                spilled = True
                ratio = 0.45 if config["shuffle.spill.compress"] else 1.0
                # Spill writes are small and random (write amplification)
                # and everything spilled is read back at least once.
                shuffle_s += 4.0 * spill_total_gb * ratio * 1024.0 / cluster.aggregate_disk_mb_per_s

            gc_s += reduce_compute_s * outcome.gc_fraction
            overhead_s += reduce_partitions * task_overhead / slots
            if outcome.oom:
                # Executor death: lost shuffle files force the stage (and
                # parts of its parents) to re-execute, typically several
                # times before the task set completes.
                penalty = 6.0
                compute_s *= penalty
                shuffle_s *= penalty
                gc_s *= penalty

        duration = compute_s + io_s + shuffle_s + gc_s + overhead_s
        return StageMetrics(
            kind=stage.kind.value,
            duration_s=duration,
            compute_s=compute_s,
            io_s=io_s,
            shuffle_s=shuffle_s,
            gc_s=gc_s,
            overhead_s=overhead_s,
            waves=map_waves,
            partitions=map_partitions,
            shuffle_bytes_gb=shuffle_gb,
            spilled=spilled,
            broadcast=False,
        )

    def _run_broadcast_stage(
        self,
        stage: Stage,
        config: Configuration,
        input_gb: float,
        slots: int,
        core_speed: float,
        cpu_factor: float,
        task_overhead: float,
    ) -> StageMetrics:
        """Map-side broadcast join: no shuffle, probe is streamed."""
        cluster = self.cluster
        partitions = self._scan_partitions(max(input_gb, BLOCK_GB), config)
        per_task_gb = input_gb / partitions
        task_s = per_task_gb * stage.cpu_weight * 1.1 * CPU_SECONDS_PER_GB * cpu_factor / core_speed
        waves = math.ceil(partitions / slots)
        compute_s = waves * task_s
        io_s = input_gb * 1024.0 / cluster.aggregate_disk_mb_per_s
        bcast_s = broadcast_cost_s(stage.small_side_mb, config, cluster)
        overhead_s = partitions * task_overhead / slots + bcast_s
        gc_s = compute_s * 0.025
        return StageMetrics(
            kind=stage.kind.value,
            duration_s=compute_s + io_s + gc_s + overhead_s,
            compute_s=compute_s,
            io_s=io_s,
            shuffle_s=0.0,
            gc_s=gc_s,
            overhead_s=overhead_s,
            waves=waves,
            partitions=partitions,
            shuffle_bytes_gb=0.0,
            spilled=False,
            broadcast=True,
        )
