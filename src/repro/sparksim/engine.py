"""Analytic execution engine: (application, configuration, datasize) -> metrics.

A query is a chain of stages.  A stage has a map phase (read its input,
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

A run evaluates every stage of every query at once, as numpy column
arithmetic:

1. A configuration is repaired unless the simulator's space (or one with
   equal bounds and caps) produced it.
2. Everything that depends on the configuration and the cluster alone is
   folded into one :class:`_RunPlan` (memory budget, shuffle rates,
   thresholds, switches).  The latest configuration's repair and plan
   are kept, so a run of the same object again skips steps 1 and 2.
3. What a run needs from the queries (stage classes, data fractions, CPU
   weights, fields, skew, the shuffle, broadcast-candidate and
   selection stages, query boundaries) sits in a :class:`_StageTable`,
   built at the first run of a query tuple and cached by the identity of
   its ``Query`` objects: a rebuilt RQA subset hits its table, and a
   skew-shifted copy with the same names gets its own.
4. The map phase, broadcast short-circuit, reduce phase, memory model,
   shuffle cost and OOM penalty are array operations over the table's
   columns and index subsets.  Per-query totals are summed in stage
   order from ``0`` and the :class:`StageMetrics` records are built from
   the columns.  This noise-free part of the latest run is kept, so a
   run with the same plan object, stage table and datasize (the replays
   of one candidate) skips step 4.
5. Each run draws its own noise, scales the per-query totals, sums the
   run total and builds its :class:`QueryMetrics` records.

Every expression keeps the operands and the order of the per-stage
formula it replaced, so each record holds the floats a stage-by-stage
evaluation gives (IEEE-754 ``+ - * /`` round the same per element).  Two
numpy operations do not round as Python does and are not used: ``**``
(the memory model raises Python floats with libm, see
:func:`~repro.sparksim.memorymodel.evaluate_task_memory`) and the
pairwise sums of ``np.sum`` and ``reduceat`` (the totals accumulate
sequentially).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.configspace import ConfigSpace, Configuration, ParamValue
from repro.sparksim.memorymodel import (
    WORKING_SET_EXPANSION,
    TaskMemoryBudget,
    evaluate_task_memory,
    task_memory_budget,
)
from repro.sparksim.metrics import ApplicationMetrics, QueryMetrics, StageMetrics
from repro.sparksim.query import Application, Query, StageKind
from repro.sparksim.shuffle import ShuffleRates, broadcast_cost_s, shuffle_cost, shuffle_rates
from repro.stats.sampling import ensure_rng

#: CPU seconds to process one GB at unit cpu_weight on a core_speed=1 core.
CPU_SECONDS_PER_GB = 18.0

#: HDFS block size driving scan parallelism.
BLOCK_GB = 0.128

#: Fixed scheduling cost per task (serialization, dispatch).
TASK_LAUNCH_S = 0.004

_JOIN_KINDS = (StageKind.SHUFFLE_JOIN, StageKind.BROADCAST_JOIN)

#: Distinct query tuples whose stage tables one simulator keeps; past
#: this the cache starts over (a session uses the application and a few
#: RQA subsets).
_TABLE_CACHE_SIZE = 32


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


class _StageTable(NamedTuple):
    """The stage columns of one query tuple, in run order.

    Everything here depends on the queries alone.  Stage subsets are
    index arrays, so a run touches only the stages a phase applies to.
    """

    queries: tuple[Query, ...]  # held, so the identity key stays valid
    names: list[str]  # query names
    kinds: list[str]  # StageKind values
    input_fraction: np.ndarray
    shuffle_fraction: np.ndarray
    cpu_weight: np.ndarray
    map_weight: np.ndarray  # cpu_weight, x0.4 on a shuffle stage's map side
    fields: np.ndarray
    max_fields: int
    skew: np.ndarray
    spread: np.ndarray  # 1 + 3 skew: the straggler partition's share of the average
    cpu_class: np.ndarray  # 0 other, 1 aggregation, 2 sort (index into a run's CPU factors)
    sort: np.ndarray  # bool
    shuffle_join: np.ndarray  # bool
    selection: np.ndarray  # indices of the stages of selection queries
    # A stage shuffles when its fraction is positive: fraction x datasize
    # stays positive for every datasize a run accepts (> 0), short of
    # underflow below 1e-300 GB.
    shuffles: np.ndarray  # indices of stages that shuffle
    candidates: np.ndarray  # indices of join stages with a build side: broadcast candidates
    candidate_mb: np.ndarray  # their build-side sizes
    counts: list[int]  # stages per query
    starts: np.ndarray  # index of each query's first stage
    width: int  # 1 + the most stages of a query
    positions: np.ndarray  # each stage's slot in a zero-led (queries x width) layout

    @classmethod
    def build(cls, queries: tuple[Query, ...]) -> "_StageTable":
        stages = [stage for query in queries for stage in query.stages]
        counts = [len(query.stages) for query in queries]
        width = 1 + max(counts)
        positions, selection = [], []
        for row, query in enumerate(queries):
            positions.extend(range(row * width + 1, row * width + 1 + counts[row]))
            selection.extend([query.category == "selection"] * counts[row])

        def column(values, dtype=float):
            return np.array(list(values), dtype=dtype)

        kinds = [stage.kind for stage in stages]
        cpu_class = column(
            (1 if kind is StageKind.SHUFFLE_AGG else 2 if kind is StageKind.SORT else 0 for kind in kinds),
            np.int64,
        )
        shuffle_fraction = column(stage.shuffle_fraction for stage in stages)
        cpu_weight = column(stage.cpu_weight for stage in stages)
        skew = column(stage.skew for stage in stages)
        small_side_mb = column(stage.small_side_mb for stage in stages)
        candidates = np.flatnonzero(column((kind in _JOIN_KINDS for kind in kinds), bool) & (small_side_mb > 0.0))
        return cls(
            queries=queries,
            names=[query.name for query in queries],
            kinds=[kind.value for kind in kinds],
            input_fraction=column(stage.input_fraction for stage in stages),
            shuffle_fraction=shuffle_fraction,
            cpu_weight=cpu_weight,
            map_weight=np.where(shuffle_fraction > 0, cpu_weight * 0.4, cpu_weight),
            fields=column((stage.fields for stage in stages), np.int64),
            max_fields=max(stage.fields for stage in stages),
            skew=skew,
            spread=1.0 + 3.0 * skew,
            cpu_class=cpu_class,
            sort=column((kind is StageKind.SORT for kind in kinds), bool),
            shuffle_join=column((kind is StageKind.SHUFFLE_JOIN for kind in kinds), bool),
            selection=np.flatnonzero(column(selection, bool)),
            shuffles=np.flatnonzero(shuffle_fraction > 0),
            candidates=candidates,
            candidate_mb=small_side_mb[candidates],
            counts=counts,
            starts=np.cumsum([0] + counts[:-1]),
            width=width,
            positions=np.array(positions, dtype=np.int64),
        )


class _StagesRun(NamedTuple):
    """The noise-free part of one run, keyed by its plan, stage table and
    datasize: all a run returns but its noise, its duration and its
    ``QueryMetrics`` tuples."""

    plan: _RunPlan
    table: _StageTable
    datasize_gb: float
    query_s: np.ndarray  # per-query totals after the driver overhead, before noise
    run_gc: float
    query_gc: list[float]
    query_shuffle_gb: list[float]
    stages: list[tuple[StageMetrics, ...]]  # per query
    failed: list[bool]
    retries: list[int]


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
        self._tables: dict[tuple[int, ...], _StageTable] = {}
        self._last_table: _StageTable | None = None
        # (configuration given, its repair, its plan) of the latest run: a
        # replay race or a production stream runs one configuration many
        # times in a row.
        self._last_plan: tuple[Configuration, Configuration, _RunPlan] | None = None
        # The noise-free part of the latest run: the replays of one
        # candidate differ only in their noise draw.
        self._last_stages: _StagesRun | None = None

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
        queries, duration, gc_total = self._run_queries(app.queries, config, datasize_gb, rng)
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
        return self._run_queries((query,), config, datasize_gb, rng)[0][0]

    def execution_slots(self, config: Mapping[str, ParamValue]) -> int:
        """Concurrent task slots: executors x cores, capped by the cluster."""
        slots = int(config["executor.instances"]) * int(config["executor.cores"])
        return max(1, min(slots, self.cluster.total_cores))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan(self, config: Configuration) -> _RunPlan:
        """Everything a run needs from the configuration and the cluster."""
        values = config.as_dict()  # a dict: each read below skips Mapping.__getitem__
        cluster = self.cluster
        slots = self.execution_slots(values)
        core_speed = cluster.node.core_speed
        shuffle_partitions = int(values["sql.shuffle.partitions"])
        parallelism = int(values["default.parallelism"])
        return _RunPlan(
            slots=slots,
            active_cores=max(slots * core_speed, 1.0),
            core_speed=core_speed,
            disk_mb_per_s=cluster.aggregate_disk_mb_per_s,
            penalty=self._default_deviation_penalty(values),
            driver_s=self._driver_overhead_s(values),
            budget=task_memory_budget(values),
            rates=shuffle_rates(values, cluster),
            broadcast_threshold_mb=float(values["sql.autoBroadcastJoinThreshold"]) / 1024.0,
            min_scan_partitions=parallelism // 4,
            shuffle_partitions=shuffle_partitions,
            sort_partitions=max(shuffle_partitions, parallelism),
            io_factor=1.0 + 0.01 * (1.0 / max(float(values["storage.memoryMapThreshold"]), 0.5)),
            task_overhead_s=TASK_LAUNCH_S + 0.002 * float(values["scheduler.revive.interval"]),
            locality_s_per_skew=0.02 * float(values["locality.wait"]),
            max_fields=int(values["sql.codegen.maxFields"]),
            columnar_compressed=bool(values["sql.inMemoryColumnarStorage.compressed"]),
            twolevel_agg=bool(values["sql.codegen.aggregate.map.twolevel.enable"]),
            retain_group_columns=bool(values["sql.retainGroupColumns"]),
            radix_sort=bool(values["sql.sort.enableRadixSort"]),
            partition_pruning=bool(values["sql.inMemoryColumnarStorage.partitionPruning"]),
            rdd_compress=bool(values["rdd.compress"]),
            sort_merge_join=bool(values["sql.join.preferSortMergeJoin"]),
        )

    def _stage_table(self, queries: tuple[Query, ...]) -> _StageTable:
        """The stage table of ``queries``, built at their first run.

        Keyed by the identity of the ``Query`` objects: an RQA rebuilt by
        ``Application.subset`` holds the same objects and hits, while a
        skew-shifted copy (same names, new objects) gets its own table.
        """
        last = self._last_table  # one read: another thread may replace it
        if last is not None and last.queries is queries:
            return last
        key = tuple(map(id, queries))
        table = self._tables.get(key)
        if table is None:
            if len(self._tables) >= _TABLE_CACHE_SIZE:
                self._tables.clear()
            table = self._tables[key] = _StageTable.build(queries)
        self._last_table = table
        return table

    def __getstate__(self) -> dict:
        # Object ids mean nothing in another process: ship no tables.
        state = self.__dict__.copy()
        state["_tables"] = {}
        state["_last_table"] = None
        state["_last_plan"] = None
        state["_last_stages"] = None
        return state

    def _run_queries(
        self,
        queries: tuple[Query, ...],
        config: Configuration,
        datasize_gb: float,
        rng: int | tuple[int, ...] | np.random.Generator | None,
    ) -> tuple[tuple[QueryMetrics, ...], float, float]:
        """Run ``queries`` in order under one plan and one noise draw; return
        their records and the total duration and GC time of the run.

        A configuration this simulator's space (or one with equal bounds
        and caps) produced is already repaired, and repair is idempotent,
        so only other configurations are repaired here; the latest
        configuration's repair and plan are reused when the next run
        passes the same object.  The noise-free part of the latest run
        (:meth:`_stages_run`) is reused when the next run has the same
        plan object, the same stage table and the same datasize: a
        candidate's replays then pay one stage evaluation between them.
        One ``normal`` draw of ``len(queries)`` values consumes the
        stream exactly as one scalar draw per query would, and the run
        total is summed query by query from ``0``.
        """
        if datasize_gb <= 0:
            raise ValueError("datasize_gb must be positive")
        gen = ensure_rng(rng)
        last = self._last_plan  # one read: another thread may replace it
        if last is not None and last[0] is config:
            _, config, plan = last
        else:
            given = config
            if not self.space.is_repaired(config):
                config = self.space.repair(config)
            plan = self._plan(config)
            self._last_plan = (given, config, plan)
        table = self._stage_table(queries)
        run = self._last_stages  # one read: another thread may replace it
        # Exact: a repeat run passes the very datasize value again, and a
        # different value must evaluate its own stages.
        # repro: allow[float-eq]
        if run is None or run.plan is not plan or run.table is not table or run.datasize_gb != datasize_gb:
            run = self._last_stages = self._stages_run(table, plan, config, datasize_gb)

        query_s = run.query_s
        if self.noise > 0:
            query_s = query_s * np.exp(gen.normal(0.0, self.noise, size=len(queries)))
        # Query totals are positive or +0.0, so accumulating from the first
        # query gives the sum from 0.
        run_s = np.add.accumulate(query_s)[-1].item()
        # tuple.__new__ over zipped columns: calling a NamedTuple class
        # runs its Python-level __new__ once per record, twice the cost.
        records = tuple(map(tuple.__new__, repeat(QueryMetrics), zip(
            table.names, query_s.tolist(), run.query_gc, run.query_shuffle_gb,
            run.stages, run.failed, run.retries,
        )))
        return records, run_s, run.run_gc

    def _stages_run(
        self,
        table: _StageTable,
        plan: _RunPlan,
        config: Configuration,
        datasize_gb: float,
    ) -> _StagesRun:
        """Every stage of ``table`` under ``plan`` and the per-query totals
        before noise.

        Totals are summed query by query, and stage by stage within a
        query, from ``0``: the additions ``sum()`` makes on Python 3.11
        (3.12's ``sum()`` compensates; ``np.sum`` and ``reduceat`` sum
        pairwise).  ``np.add.accumulate`` is sequential by definition;
        per query it runs over a layout where each query's stages follow
        a zero and are padded with zeros.
        """
        (duration, compute, io, shuffle, gc, overhead, waves, partitions, shuffle_gb, spilled,
         broadcast) = self._evaluate_stages(table, plan, config, datasize_gb)

        n_queries = len(table.counts)
        layout = np.zeros((3, n_queries * table.width))
        layout[0, table.positions] = duration
        layout[1, table.positions] = gc
        layout[2, table.positions] = shuffle_gb
        query_s, query_gc, query_shuffle_gb = np.add.accumulate(
            layout.reshape(3, n_queries, table.width), axis=2
        )[:, :, -1]
        query_s += plan.driver_s

        retried = spilled & (gc > compute)
        failed = np.isinf(duration)
        if np.count_nonzero(retried) or np.count_nonzero(failed):
            retries, failed = np.add.reduceat(np.array((retried, failed), dtype=np.int64), table.starts, axis=1)
            retries, failed = retries.tolist(), (failed > 0).tolist()
        else:
            retries, failed = [0] * n_queries, [False] * n_queries
        is_broadcast = [False] * len(table.kinds)
        for index in broadcast.tolist():
            is_broadcast[index] = True

        stages = map(tuple.__new__, repeat(StageMetrics), zip(
            table.kinds, duration.tolist(), compute.tolist(), io.tolist(), shuffle.tolist(),
            gc.tolist(), overhead.tolist(), waves.tolist(), partitions.tolist(),
            shuffle_gb.tolist(), spilled.tolist(), is_broadcast,
        ))
        return _StagesRun(
            plan=plan,
            table=table,
            datasize_gb=datasize_gb,
            query_s=query_s,
            run_gc=np.add.accumulate(query_gc)[-1].item(),
            query_gc=query_gc.tolist(),
            query_shuffle_gb=query_shuffle_gb.tolist(),
            stages=[tuple(islice(stages, count)) for count in table.counts],
            failed=failed,
            retries=retries,
        )

    def _driver_overhead_s(self, config: Mapping[str, ParamValue]) -> float:
        """Per-query driver cost: planning plus result collection."""
        cores = max(int(config["driver.cores"]), 1)
        memory = max(float(config["driver.memory"]), 1.0)
        return 0.25 + 0.5 / cores + 0.3 / memory

    @staticmethod
    def _default_deviation_penalty(config: Mapping[str, ParamValue]) -> float:
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
    def _cpu_factors(plan: _RunPlan) -> np.ndarray:
        """Multiplicative CPU modifiers from SQL-level switches, on top of
        the run's default-deviation penalty: one per (codegen off for a
        wide plan, stage class), indexed ``3 * wide + cpu_class``."""
        factors = []
        for wide in (False, True):
            factor = plan.penalty
            if wide:
                factor *= 1.25  # whole-stage codegen disabled for wide plans
            if plan.columnar_compressed:
                factor *= 1.02
            agg = sort = factor
            if plan.twolevel_agg:
                agg *= 0.97
            if plan.retain_group_columns:
                agg *= 1.005
            if plan.radix_sort:
                sort *= 0.97
            factors += [factor, agg, sort]
        return np.array(factors)

    def _evaluate_stages(
        self,
        table: _StageTable,
        plan: _RunPlan,
        config: Configuration,
        datasize_gb: float,
    ) -> tuple[np.ndarray, ...]:
        """Every stage of ``table`` under ``plan``: the columns of
        :class:`StageMetrics` from ``duration_s`` to ``shuffle_bytes_gb``,
        then ``spilled`` and the indices of the broadcast stages."""
        slots = plan.slots
        core_speed = plan.core_speed
        cpu_class = table.cpu_class
        if table.max_fields > plan.max_fields:
            cpu_class = np.where(table.fields > plan.max_fields, cpu_class + 3, cpu_class)
        cpu_factor = self._cpu_factors(plan)[cpu_class]
        # Scheduling cost per task: launch, revive polling, locality wait.
        task_overhead = plan.task_overhead_s + plan.locality_s_per_skew * table.skew

        input_gb = table.input_fraction * datasize_gb
        shuffle_gb = table.shuffle_fraction * datasize_gb

        # A join whose build side fits the threshold is a map-side
        # broadcast join: no shuffle, the probe side is streamed.
        fits = table.candidate_mb <= plan.broadcast_threshold_mb
        broadcast = table.candidates[fits]
        reduce = table.shuffles
        if broadcast.size:
            staged = np.ones(len(table.kinds), dtype=bool)
            staged[broadcast] = False
            reduce = reduce[staged[reduce]]

        # ------------------------------- map phase ---------------------
        if plan.partition_pruning:
            # Pruning skips unneeded cached partitions.
            prune = table.selection if not broadcast.size else table.selection[staged[table.selection]]
            input_gb[prune] *= 0.95
        partitions = np.ceil(np.maximum(input_gb, BLOCK_GB) / BLOCK_GB)  # at least 1
        partitions = np.maximum(partitions, plan.min_scan_partitions).astype(np.int64)
        task_s = input_gb / partitions * table.map_weight * CPU_SECONDS_PER_GB * cpu_factor / core_speed
        waves = np.ceil(partitions / slots).astype(np.int64)
        compute_s = waves * task_s
        overhead_s = partitions * task_overhead / slots
        io_s = input_gb * 1024.0 / plan.disk_mb_per_s
        if plan.rdd_compress:
            io_s = io_s * 0.98  # cached partitions are smaller, re-reads cheaper
        io_s *= plan.io_factor
        gc_s = compute_s * 0.02  # map tasks stream, little heap pressure
        shuffle_s = np.zeros(len(table.kinds))
        spilled = np.zeros(len(table.kinds), dtype=bool)

        if broadcast.size:
            # Broadcast stages rework their map side: the probe side is
            # streamed at 1.1x the stage's weight and the build side is
            # shipped to every worker.
            b_input_gb = input_gb[broadcast]
            b_task_s = (
                b_input_gb / partitions[broadcast] * table.cpu_weight[broadcast] * 1.1
                * CPU_SECONDS_PER_GB * cpu_factor[broadcast] / core_speed
            )
            compute_s[broadcast] = b_compute_s = waves[broadcast] * b_task_s
            io_s[broadcast] = b_input_gb * 1024.0 / plan.disk_mb_per_s
            overhead_s[broadcast] += broadcast_cost_s(table.candidate_mb[fits], config, self.cluster)
            gc_s[broadcast] = b_compute_s * 0.025

        # ------------------------------ reduce phase -------------------
        if reduce.size:
            reduce_gb = shuffle_gb[reduce]
            reduce_partitions = np.where(table.sort[reduce], plan.sort_partitions, plan.shuffle_partitions)
            per_reduce_gb = reduce_gb / reduce_partitions

            working_set_gb = per_reduce_gb * WORKING_SET_EXPANSION
            if plan.columnar_compressed:
                working_set_gb = working_set_gb * 0.88
            # Memory trouble strikes the largest partition first: with key
            # skew the straggler partition holds several times the average
            # volume, and it is the one that thrashes GC or dies with OOM.
            outcome = evaluate_task_memory(working_set_gb * table.spread[reduce], plan.budget)

            reduce_weight = table.cpu_weight[reduce]
            if not plan.sort_merge_join:
                # Shuffle-hash join: slightly faster when memory is ample,
                # slightly worse when the build side must spill.
                hash_weight = reduce_weight * np.where(outcome.heap_pressure < 0.8, 0.97, 1.04)
                reduce_weight = np.where(table.shuffle_join[reduce], hash_weight, reduce_weight)
            reduce_task_s = per_reduce_gb * reduce_weight * CPU_SECONDS_PER_GB * cpu_factor[reduce] / core_speed
            # A skewed shuffle leaves one straggler partition several times
            # the average size; it extends the last wave.
            straggler_s = table.skew[reduce] * 3.0 * reduce_task_s
            reduce_compute_s = np.ceil(reduce_partitions / slots) * reduce_task_s + straggler_s

            cost = shuffle_cost(reduce_gb, plan.rates, spill=outcome.spill_gb > 0)
            r_compute_s = compute_s[reduce] + (reduce_compute_s + cost.compress_core_s / plan.active_cores)
            r_shuffle_s = cost.write_s + cost.fetch_s
            spill_total_gb = outcome.spill_gb * reduce_partitions
            r_spilled = spill_total_gb > 0
            if np.count_nonzero(r_spilled):
                ratio = 0.45 if plan.rates.spill_compress else 1.0
                # Spill writes are small and random (write amplification)
                # and everything spilled is read back at least once.
                spill_s = 4.0 * spill_total_gb * ratio * 1024.0 / plan.disk_mb_per_s
                r_shuffle_s = np.where(r_spilled, r_shuffle_s + spill_s, r_shuffle_s)
                spilled[reduce] = r_spilled
            r_gc_s = gc_s[reduce] + reduce_compute_s * outcome.gc_fraction
            overhead_s[reduce] += reduce_partitions * task_overhead[reduce] / slots
            if np.count_nonzero(outcome.oom):
                # Executor death: lost shuffle files force the stage (and
                # parts of its parents) to re-execute, typically several
                # times before the task set completes.  (x * 1.0 is x.)
                penalty = np.where(outcome.oom, 6.0, 1.0)
                r_compute_s *= penalty
                r_shuffle_s *= penalty
                r_gc_s *= penalty
            compute_s[reduce] = r_compute_s
            shuffle_s[reduce] = r_shuffle_s
            gc_s[reduce] = r_gc_s

        duration_s = compute_s + io_s + shuffle_s + gc_s + overhead_s
        shuffle_gb[broadcast] = 0.0
        return (
            duration_s, compute_s, io_s, shuffle_s, gc_s, overhead_s, waves, partitions,
            shuffle_gb, spilled, broadcast,
        )
