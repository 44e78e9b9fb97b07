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

A run first folds everything that depends on the configuration and the
cluster alone into one :class:`_RunPlan` (memory budget, shuffle rates,
thresholds, switches), then walks the stages reading only the plan.  Every
hoisted expression keeps its operands and their order, so the floats are
the ones a per-stage evaluation would give.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.configspace import ConfigSpace, Configuration
from repro.sparksim.memorymodel import (
    WORKING_SET_EXPANSION,
    TaskMemoryBudget,
    evaluate_task_memory,
    task_memory_budget,
)
from repro.sparksim.metrics import ApplicationMetrics, QueryMetrics, StageMetrics
from repro.sparksim.query import Application, Query, Stage, StageKind
from repro.sparksim.shuffle import ShuffleRates, broadcast_cost_s, shuffle_cost, shuffle_rates
from repro.stats.sampling import ensure_rng

#: CPU seconds to process one GB at unit cpu_weight on a core_speed=1 core.
CPU_SECONDS_PER_GB = 18.0

#: HDFS block size driving scan parallelism.
BLOCK_GB = 0.128

#: Fixed scheduling cost per task (serialization, dispatch).
TASK_LAUNCH_S = 0.004

_JOIN_KINDS = (StageKind.SHUFFLE_JOIN, StageKind.BROADCAST_JOIN)


class _RunPlan(NamedTuple):
    """What one run computes from the configuration and the cluster alone."""

    slots: int  # concurrent task slots
    active_cores: float  # slots x core speed, at least 1
    core_speed: float
    disk_mb_per_s: float  # aggregate, before write efficiency
    penalty: float  # default-deviation CPU penalty
    driver_s: float  # per-query driver overhead
    budget: TaskMemoryBudget
    rates: ShuffleRates
    broadcast_threshold_mb: float
    min_scan_partitions: int  # default.parallelism // 4
    shuffle_partitions: int
    sort_partitions: int  # shuffle partitions, at least default.parallelism
    io_factor: float  # memory-map multiplier on scan IO
    task_overhead_s: float  # launch + revive polling
    locality_s_per_skew: float  # locality wait per unit of skew
    max_fields: int
    columnar_compressed: bool
    twolevel_agg: bool
    retain_group_columns: bool
    radix_sort: bool
    partition_pruning: bool
    rdd_compress: bool
    sort_merge_join: bool


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
        queries = self._run_queries(app.queries, config, datasize_gb, rng)
        duration = gc_total = 0
        for q in queries:
            duration += q.duration_s
            gc_total += q.gc_s
        return ApplicationMetrics(
            application=app.name,
            datasize_gb=float(datasize_gb),
            duration_s=duration,
            gc_s=gc_total,
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
        return self._run_queries((query,), config, datasize_gb, rng)[0]

    def execution_slots(self, config: Configuration) -> int:
        """Concurrent task slots: executors x cores, capped by the cluster."""
        slots = int(config["executor.instances"]) * int(config["executor.cores"])
        return max(1, min(slots, self.cluster.total_cores))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan(self, config: Configuration) -> _RunPlan:
        """Everything a run needs from the configuration and the cluster."""
        cluster = self.cluster
        slots = self.execution_slots(config)
        core_speed = cluster.node.core_speed
        shuffle_partitions = int(config["sql.shuffle.partitions"])
        parallelism = int(config["default.parallelism"])
        return _RunPlan(
            slots=slots,
            active_cores=max(slots * core_speed, 1.0),
            core_speed=core_speed,
            disk_mb_per_s=cluster.aggregate_disk_mb_per_s,
            penalty=self._default_deviation_penalty(config),
            driver_s=self._driver_overhead_s(config),
            budget=task_memory_budget(config),
            rates=shuffle_rates(config, cluster),
            broadcast_threshold_mb=float(config["sql.autoBroadcastJoinThreshold"]) / 1024.0,
            min_scan_partitions=parallelism // 4,
            shuffle_partitions=shuffle_partitions,
            sort_partitions=max(shuffle_partitions, parallelism),
            io_factor=1.0 + 0.01 * (1.0 / max(float(config["storage.memoryMapThreshold"]), 0.5)),
            task_overhead_s=TASK_LAUNCH_S + 0.002 * float(config["scheduler.revive.interval"]),
            locality_s_per_skew=0.02 * float(config["locality.wait"]),
            max_fields=int(config["sql.codegen.maxFields"]),
            columnar_compressed=bool(config["sql.inMemoryColumnarStorage.compressed"]),
            twolevel_agg=bool(config["sql.codegen.aggregate.map.twolevel.enable"]),
            retain_group_columns=bool(config["sql.retainGroupColumns"]),
            radix_sort=bool(config["sql.sort.enableRadixSort"]),
            partition_pruning=bool(config["sql.inMemoryColumnarStorage.partitionPruning"]),
            rdd_compress=bool(config["rdd.compress"]),
            sort_merge_join=bool(config["sql.join.preferSortMergeJoin"]),
        )

    def _run_queries(
        self,
        queries: tuple[Query, ...],
        config: Configuration,
        datasize_gb: float,
        rng: int | tuple[int, ...] | np.random.Generator | None,
    ) -> tuple[QueryMetrics, ...]:
        """Run ``queries`` in order under one plan and one noise draw.

        Per-query totals are summed stage by stage from ``0``, the
        additions ``sum()`` makes on Python 3.11 (3.12's ``sum()``
        compensates, so an explicit loop also keeps the floats the same
        across interpreter versions).  One ``normal`` draw of
        ``len(queries)`` values consumes the stream exactly as one scalar
        draw per query would.
        """
        gen = ensure_rng(rng)
        config = self.space.repair(config)
        plan = self._plan(config)
        noise = None
        if self.noise > 0:
            noise = np.exp(gen.normal(0.0, self.noise, size=len(queries))).tolist()
        results = []
        for i, query in enumerate(queries):
            stages = []
            duration = gc_total = shuffle_gb = retries = 0
            failed = False
            for stage in query.stages:
                metrics = self._run_stage(stage, query, config, datasize_gb, plan)
                stages.append(metrics)
                duration += metrics.duration_s
                gc_total += metrics.gc_s
                shuffle_gb += metrics.shuffle_bytes_gb
                if metrics.spilled and metrics.gc_s > metrics.compute_s:
                    retries += 1
                if math.isinf(metrics.duration_s):
                    failed = True
            duration += plan.driver_s
            if noise is not None:
                duration *= noise[i]
            results.append(
                QueryMetrics(query.name, duration, gc_total, shuffle_gb, tuple(stages), failed, retries)
            )
        return tuple(results)

    def _driver_overhead_s(self, config: Configuration) -> float:
        """Per-query driver cost: planning plus result collection."""
        cores = max(int(config["driver.cores"]), 1)
        memory = max(float(config["driver.memory"]), 1.0)
        return 0.25 + 0.5 / cores + 0.3 / memory

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

    @staticmethod
    def _cpu_factor(stage: Stage, plan: _RunPlan) -> float:
        """Multiplicative CPU modifiers from SQL-level switches, on top of
        the run's :meth:`_default_deviation_penalty`."""
        factor = plan.penalty
        if stage.fields > plan.max_fields:
            factor *= 1.25  # whole-stage codegen disabled for wide plans
        if plan.columnar_compressed:
            factor *= 1.02
        if stage.kind is StageKind.SHUFFLE_AGG:
            if plan.twolevel_agg:
                factor *= 0.97
            if plan.retain_group_columns:
                factor *= 1.005
        if stage.kind is StageKind.SORT and plan.radix_sort:
            factor *= 0.97
        return factor

    @staticmethod
    def _scan_partitions(input_gb: float, plan: _RunPlan) -> int:
        blocks = max(1, int(math.ceil(input_gb / BLOCK_GB)))
        return max(blocks, plan.min_scan_partitions)

    def _run_stage(
        self,
        stage: Stage,
        query: Query,
        config: Configuration,
        datasize_gb: float,
        plan: _RunPlan,
    ) -> StageMetrics:
        slots = plan.slots
        core_speed = plan.core_speed
        cpu_factor = self._cpu_factor(stage, plan)
        # Scheduling cost per task: launch, revive polling, locality wait.
        task_overhead = plan.task_overhead_s + plan.locality_s_per_skew * stage.skew

        input_gb = stage.input_fraction * datasize_gb
        shuffle_gb = stage.shuffle_fraction * datasize_gb

        # -------------------------- broadcast short-circuit ------------
        if stage.kind in _JOIN_KINDS and 0.0 < stage.small_side_mb <= plan.broadcast_threshold_mb:
            return self._run_broadcast_stage(
                stage, config, input_gb, plan, cpu_factor, task_overhead
            )

        # ------------------------------- map phase ---------------------
        if plan.partition_pruning and query.category == "selection":
            input_gb *= 0.95  # pruning skips unneeded cached partitions
        map_partitions = self._scan_partitions(max(input_gb, BLOCK_GB), plan)
        map_cpu_weight = stage.cpu_weight * (0.4 if shuffle_gb > 0 else 1.0)
        per_task_gb = input_gb / map_partitions
        map_task_s = per_task_gb * map_cpu_weight * CPU_SECONDS_PER_GB * cpu_factor / core_speed
        map_waves = math.ceil(map_partitions / slots)
        compute_s = map_waves * map_task_s
        overhead_s = map_partitions * task_overhead / slots
        io_s = input_gb * 1024.0 / plan.disk_mb_per_s
        if plan.rdd_compress:
            io_s *= 0.98  # cached partitions are smaller, re-reads cheaper
        io_s *= plan.io_factor

        gc_s = compute_s * 0.02  # map tasks stream, little heap pressure
        shuffle_s = 0.0
        spilled = False

        # ------------------------------ reduce phase -------------------
        if shuffle_gb > 0:
            if stage.kind is StageKind.SORT:
                reduce_partitions = plan.sort_partitions
            else:
                reduce_partitions = plan.shuffle_partitions
            per_reduce_gb = shuffle_gb / reduce_partitions

            working_set_gb = per_reduce_gb * WORKING_SET_EXPANSION
            if plan.columnar_compressed:
                working_set_gb *= 0.88
            # Memory trouble strikes the largest partition first: with key
            # skew the straggler partition holds several times the average
            # volume, and it is the one that thrashes GC or dies with OOM.
            straggler_set_gb = working_set_gb * (1.0 + 3.0 * stage.skew)
            outcome = evaluate_task_memory(straggler_set_gb, plan.budget)

            reduce_weight = stage.cpu_weight
            if stage.kind is StageKind.SHUFFLE_JOIN and not plan.sort_merge_join:
                # Shuffle-hash join: slightly faster when memory is ample,
                # slightly worse when the build side must spill.
                reduce_weight *= 0.97 if outcome.heap_pressure < 0.8 else 1.04
            reduce_task_s = per_reduce_gb * reduce_weight * CPU_SECONDS_PER_GB * cpu_factor / core_speed
            reduce_waves = math.ceil(reduce_partitions / slots)
            # A skewed shuffle leaves one straggler partition several times
            # the average size; it extends the last wave.
            straggler_s = stage.skew * 3.0 * reduce_task_s
            reduce_compute_s = reduce_waves * reduce_task_s + straggler_s

            cost = shuffle_cost(shuffle_gb, plan.rates, spill=outcome.spill_gb > 0)
            shuffle_s = cost.write_s + cost.fetch_s
            compute_s += reduce_compute_s + cost.compress_core_s / plan.active_cores

            spill_total_gb = outcome.spill_gb * reduce_partitions
            if spill_total_gb > 0:
                spilled = True
                ratio = 0.45 if plan.rates.spill_compress else 1.0
                # Spill writes are small and random (write amplification)
                # and everything spilled is read back at least once.
                shuffle_s += 4.0 * spill_total_gb * ratio * 1024.0 / plan.disk_mb_per_s

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
        # Positional, in field order: keyword arguments would more than
        # double the cost of building the record.
        return StageMetrics(
            stage.kind.value,
            duration,
            compute_s,
            io_s,
            shuffle_s,
            gc_s,
            overhead_s,
            map_waves,
            map_partitions,
            shuffle_gb,
            spilled,
            False,
        )

    def _run_broadcast_stage(
        self,
        stage: Stage,
        config: Configuration,
        input_gb: float,
        plan: _RunPlan,
        cpu_factor: float,
        task_overhead: float,
    ) -> StageMetrics:
        """Map-side broadcast join: no shuffle, probe is streamed."""
        slots = plan.slots
        partitions = self._scan_partitions(max(input_gb, BLOCK_GB), plan)
        per_task_gb = input_gb / partitions
        task_s = per_task_gb * stage.cpu_weight * 1.1 * CPU_SECONDS_PER_GB * cpu_factor / plan.core_speed
        waves = math.ceil(partitions / slots)
        compute_s = waves * task_s
        io_s = input_gb * 1024.0 / plan.disk_mb_per_s
        bcast_s = broadcast_cost_s(stage.small_side_mb, config, self.cluster)
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
