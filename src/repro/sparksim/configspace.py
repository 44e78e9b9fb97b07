"""The 38-parameter Spark / Spark SQL configuration space of Table 2.

Each :class:`Parameter` carries the paper's default and both value ranges
(Range A for the ARM cluster, Range B for the x86 cluster).  A
:class:`ConfigSpace` binds the table to one cluster, and provides:

* uniform and Latin-hypercube sampling of valid configurations,
* encoding to / decoding from the unit hypercube (what BO searches),
* validation and repair of the resource constraints from section 5.12
  (executor memory sum within the YARN container, cluster-wide totals).

Parameter names drop the ``spark.`` prefix, matching Table 3 in the paper.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.stats.sampling import ensure_rng

ParamValue = Union[int, float, bool]


@dataclass(frozen=True)
class Parameter:
    """One row of Table 2.

    ``kind`` is ``"int"``, ``"float"``, or ``"bool"``; ``resource`` marks
    the starred rows whose ranges derive from cluster resources; ``unit``
    is informational (MB, KB, GB, seconds, ...).
    """

    name: str
    description: str
    kind: str
    default: ParamValue
    range_a: tuple[float, float] | None
    range_b: tuple[float, float] | None
    unit: str = ""
    resource: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "bool"):
            raise ValueError(f"bad kind {self.kind!r} for {self.name}")
        if self.kind == "bool" and (self.range_a is not None or self.range_b is not None):
            raise ValueError(f"boolean parameter {self.name} must not define ranges")
        if self.kind != "bool":
            for rng in (self.range_a, self.range_b):
                if rng is None or rng[0] > rng[1]:
                    raise ValueError(f"bad range for {self.name}: {rng}")

    def bounds(self, cluster_name: str) -> tuple[float, float]:
        """Value range on the given cluster (``"arm"`` -> A, else B)."""
        if self.kind == "bool":
            return (0.0, 1.0)
        rng = self.range_a if cluster_name == "arm" else self.range_b
        assert rng is not None  # guarded in __post_init__
        return rng


def _p(
    name: str,
    description: str,
    kind: str,
    default: ParamValue,
    range_a: tuple[float, float] | None = None,
    range_b: tuple[float, float] | None = None,
    unit: str = "",
    resource: bool = False,
) -> Parameter:
    return Parameter(name, description, kind, default, range_a, range_b, unit, resource)


#: All 38 parameters of Table 2 (27 numeric + 11 boolean rows; the paper's
#: prose says "28 numeric and 10 non-numeric" but its own table lists 27/11).
PARAMETERS: tuple[Parameter, ...] = (
    _p("broadcast.blockSize", "Size of each broadcast block piece", "int", 4, (1, 16), (1, 16), "MB"),
    _p("default.parallelism", "Max partitions in a parent RDD for shuffles", "int", 200, (100, 1000), (100, 1000)),
    _p("driver.cores", "Cores used by the driver process", "int", 1, (1, 8), (1, 16), resource=True),
    _p("driver.memory", "Memory used by the driver process", "int", 4, (4, 32), (4, 48), "GB", resource=True),
    _p("executor.cores", "CPU cores per executor process", "int", 1, (1, 8), (1, 16), resource=True),
    _p("executor.instances", "Total executor processes for the job", "int", 2, (48, 384), (9, 112)),
    _p("executor.memory", "Heap memory per executor process", "int", 4, (4, 32), (4, 48), "GB", resource=True),
    _p("executor.memoryOverhead", "Additional off-JVM memory per executor", "int", 384, (0, 32768), (0, 49152), "MB", resource=True),
    _p("io.compression.zstd.bufferSize", "Buffer size used in Zstd compression", "int", 32, (16, 96), (16, 96), "KB"),
    _p("io.compression.zstd.level", "Zstd compression level", "int", 1, (1, 5), (1, 5)),
    _p("kryoserializer.buffer", "Initial Kryo serialization buffer", "int", 64, (32, 128), (32, 128), "KB"),
    _p("kryoserializer.buffer.max", "Max Kryo serialization buffer", "int", 64, (32, 128), (32, 128), "MB"),
    _p("locality.wait", "Wait before launching a task less-locally", "int", 3, (1, 6), (1, 6), "s"),
    _p("memory.fraction", "Fraction of heap for execution and storage", "float", 0.6, (0.5, 0.9), (0.5, 0.9)),
    _p("memory.storageFraction", "Storage memory immune to eviction", "float", 0.5, (0.5, 0.9), (0.5, 0.9)),
    _p("memory.offHeap.size", "Memory usable for off-heap allocation", "int", 0, (0, 32768), (0, 49152), "MB", resource=True),
    _p("reducer.maxSizeInFlight", "Max simultaneous fetch per reduce task", "int", 48, (24, 144), (24, 144), "MB"),
    _p("scheduler.revive.interval", "Scheduler worker-resource revive interval", "int", 1, (1, 5), (1, 5), "s"),
    _p("shuffle.file.buffer", "In-memory buffer per shuffle output stream", "int", 32, (16, 96), (16, 96), "KB"),
    _p("shuffle.io.numConnectionsPerPeer", "Reused connections between hosts", "int", 1, (1, 5), (1, 5)),
    _p("shuffle.sort.bypassMergeThreshold", "Partition count to skip map-side sort", "int", 200, (100, 400), (100, 400)),
    _p("sql.autoBroadcastJoinThreshold", "Max size of a broadcast-joined table", "int", 1024, (1024, 8192), (1024, 8192), "KB"),
    _p("sql.cartesianProductExec.buffer.in.memory.threshold", "Rows of Cartesian cache", "int", 4096, (1024, 8192), (1024, 8192)),
    _p("sql.codegen.maxFields", "Max fields before whole-stage codegen activates", "int", 100, (50, 200), (50, 200)),
    _p("sql.inMemoryColumnarStorage.batchSize", "Batch size for column caching", "int", 10000, (5000, 20000), (5000, 20000)),
    _p("sql.shuffle.partitions", "Partitions when shuffling for joins/aggregations", "int", 200, (100, 1000), (100, 1000)),
    _p("storage.memoryMapThreshold", "Memory-map size when reading a block", "int", 1, (1, 10), (1, 10), "MB"),
    _p("broadcast.compress", "Compress broadcast variables", "bool", True),
    _p("memory.offHeap.enabled", "Use off-heap memory for certain operations", "bool", True),
    _p("rdd.compress", "Compress serialized RDD partitions", "bool", True),
    _p("shuffle.compress", "Compress map output files", "bool", True),
    _p("shuffle.spill.compress", "Compress data spilled during shuffles", "bool", True),
    _p("sql.codegen.aggregate.map.twolevel.enable", "Two-level aggregate hash map", "bool", True),
    _p("sql.inMemoryColumnarStorage.compressed", "Compress each cached column", "bool", True),
    _p("sql.inMemoryColumnarStorage.partitionPruning", "Prune partitions in memory", "bool", True),
    _p("sql.join.preferSortMergeJoin", "Prefer sort-merge join over shuffle hash join", "bool", True),
    _p("sql.retainGroupColumns", "Retain group columns", "bool", True),
    _p("sql.sort.enableRadixSort", "Use radix sort", "bool", True),
)

PARAMETER_INDEX: dict[str, int] = {p.name: i for i, p in enumerate(PARAMETERS)}


class Configuration(Mapping):
    """An immutable assignment of values to all 38 parameters.

    Behaves as a mapping from parameter name to value.  Construct via
    :meth:`ConfigSpace.default`, :meth:`ConfigSpace.sample`, or
    :meth:`ConfigSpace.make` (which fills unspecified parameters with
    defaults).
    """

    __slots__ = ("_values", "_repaired_by")

    def __init__(self, values: Mapping[str, ParamValue]):
        missing = [p.name for p in PARAMETERS if p.name not in values]
        if missing:
            raise ValueError(f"configuration missing parameters: {missing[:3]}...")
        unknown = [k for k in values if k not in PARAMETER_INDEX]
        if unknown:
            raise ValueError(f"unknown parameters: {unknown}")
        self._values = {p.name: self._coerce(p, values[p.name]) for p in PARAMETERS}
        # The repair key of the space whose repair() returned this object
        # (see ConfigSpace.is_repaired); None for any other construction.
        self._repaired_by: tuple | None = None

    @staticmethod
    def _coerce(param: Parameter, value: ParamValue) -> ParamValue:
        if param.kind == "bool":
            return bool(value)
        if param.kind == "int":
            return int(round(float(value)))
        return float(value)

    def __getitem__(self, name: str) -> ParamValue:
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._values.items())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        interesting = ("executor.instances", "executor.cores", "executor.memory", "sql.shuffle.partitions")
        head = ", ".join(f"{k}={self._values[k]}" for k in interesting)
        return f"Configuration({head}, ...)"

    def replace(self, **updates: ParamValue) -> "Configuration":
        """A copy with the given parameters updated."""
        merged = dict(self._values)
        for key, val in updates.items():
            if key not in PARAMETER_INDEX:
                raise ValueError(f"unknown parameter {key!r}")
            merged[key] = val
        return Configuration(merged)

    def as_dict(self) -> dict[str, ParamValue]:
        return dict(self._values)


class ConfigSpace:
    """The Table-2 parameter space bound to one cluster.

    ``cluster_name`` selects Range A (``"arm"``) or Range B (anything
    else, matching the paper's x86 column).  The space optionally enforces
    the resource constraints of section 5.12 via :meth:`repair`.
    """

    def __init__(self, cluster_name: str = "x86", container_memory_gb: float | None = None,
                 total_cores: int | None = None, total_memory_gb: float | None = None):
        self.cluster_name = cluster_name
        self.parameters = PARAMETERS
        self._bounds = np.array([p.bounds(cluster_name) for p in PARAMETERS], dtype=float)
        self._lo = self._bounds[:, 0]
        self._span = self._bounds[:, 1] - self._bounds[:, 0]
        self._names = [p.name for p in PARAMETERS]
        kinds = np.array([p.kind for p in PARAMETERS])
        # Per kind: the parameters' positions and names, in table order.
        self._kind_index = {
            kind: (np.flatnonzero(kinds == kind), [p.name for p in PARAMETERS if p.kind == kind])
            for kind in ("bool", "int", "float")
        }
        # Optional resource caps used by repair(); when absent only range
        # clipping is applied.
        self.container_memory_gb = container_memory_gb
        self.total_cores = total_cores
        self.total_memory_gb = total_memory_gb
        # Everything repair() reads from the space: spaces with equal keys
        # repair every configuration alike.
        self._repair_key = (self._bounds.tobytes(), container_memory_gb, total_cores, total_memory_gb)

    @classmethod
    def for_cluster(cls, cluster) -> "ConfigSpace":
        """Build a space with resource caps taken from a ClusterSpec."""
        return cls(
            cluster_name=cluster.name,
            container_memory_gb=cluster.container_memory_gb,
            total_cores=cluster.total_cores,
            total_memory_gb=cluster.total_memory_gb,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def bounds(self, name: str) -> tuple[float, float]:
        return self.parameters[PARAMETER_INDEX[name]].bounds(self.cluster_name)

    def boolean_names(self) -> list[str]:
        return [p.name for p in self.parameters if p.kind == "bool"]

    # ------------------------------------------------------------------
    # Construction and sampling
    # ------------------------------------------------------------------
    def default(self) -> Configuration:
        """The Spark-recommended defaults from Table 2, clipped to range."""
        values: dict[str, ParamValue] = {}
        for param in self.parameters:
            if param.kind == "bool":
                values[param.name] = param.default
            else:
                lo, hi = param.bounds(self.cluster_name)
                values[param.name] = min(max(float(param.default), lo), hi)
        return self.repair(Configuration(values))

    def make(self, **overrides: ParamValue) -> Configuration:
        """Defaults with specific parameters overridden, then repaired."""
        return self.repair(self.default().replace(**overrides))

    def sample(self, rng: int | np.random.Generator | None = None) -> Configuration:
        """One uniformly random valid configuration."""
        gen = ensure_rng(rng)
        return self.decode(gen.random(self.dim))

    # ------------------------------------------------------------------
    # Unit-cube encoding (what optimizers search)
    # ------------------------------------------------------------------
    def encode(self, config: Configuration) -> np.ndarray:
        """Map a configuration to a point in [0, 1]^dim.

        A parameter whose range is a single value encodes as 0.5.
        """
        values = np.array([float(config[name]) for name in self._names])
        out = np.full(self.dim, 0.5)
        np.divide(values - self._lo, self._span, out=out, where=self._span != 0)
        return np.clip(out, 0.0, 1.0)

    def decode(self, point: np.ndarray) -> Configuration:
        """Map a unit-cube point back to a valid (repaired) configuration.

        Integers round half to even (``np.rint``, as Python's ``round``);
        a boolean is set from 0.5 up.
        """
        arr = np.clip(np.asarray(point, dtype=float), 0.0, 1.0)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {arr.shape}")
        raw = self._lo + arr * self._span
        idx, names = self._kind_index["bool"]
        values: dict[str, ParamValue] = dict(zip(names, (arr[idx] >= 0.5).tolist()))
        idx, names = self._kind_index["int"]
        values.update(zip(names, np.rint(raw[idx]).astype(np.int64).tolist()))
        idx, names = self._kind_index["float"]
        values.update(zip(names, raw[idx].tolist()))
        # The values are already of their parameters' types, so they are
        # repaired as they are and validated once, by one Configuration.
        return self._repair_values(values)

    # ------------------------------------------------------------------
    # Validation and repair (paper section 5.12)
    # ------------------------------------------------------------------
    def violations(self, config: Configuration) -> list[str]:
        """Human-readable list of constraint violations (empty = valid)."""
        problems = []
        for i, param in enumerate(self.parameters):
            if param.kind == "bool":
                continue
            lo, hi = self._bounds[i]
            value = float(config[param.name])
            if not lo <= value <= hi:
                problems.append(f"{param.name}={value} outside [{lo}, {hi}]")
        per_exec_gb = self._per_executor_memory_gb(config)
        if self.container_memory_gb is not None and per_exec_gb > self.container_memory_gb + 1e-9:
            problems.append(
                f"executor memory sum {per_exec_gb:.1f} GB exceeds container "
                f"{self.container_memory_gb} GB"
            )
        if self.total_cores is not None:
            cores = config["executor.instances"] * config["executor.cores"]
            if cores > self.total_cores:
                problems.append(f"executor cores total {cores} exceeds cluster {self.total_cores}")
        if self.total_memory_gb is not None:
            mem = config["executor.instances"] * per_exec_gb
            if mem > self.total_memory_gb + 1e-9:
                problems.append(
                    f"executor memory total {mem:.0f} GB exceeds cluster {self.total_memory_gb:.0f} GB"
                )
        return problems

    def is_valid(self, config: Configuration) -> bool:
        return not self.violations(config)

    def is_repaired(self, config: Configuration) -> bool:
        """Whether ``config`` came out of :meth:`repair` of a space with this
        space's bounds and resource caps.

        :meth:`repair` is idempotent, so such a configuration needs no
        second repair.  Any other configuration, including one a space
        with different caps repaired, answers False.
        """
        return config._repaired_by == self._repair_key

    @staticmethod
    def _per_executor_memory_gb(config: Configuration) -> float:
        """Heap + overhead + off-heap, in GB (section 5.12 sum constraint)."""
        overhead_gb = float(config["executor.memoryOverhead"]) / 1024.0
        offheap_gb = float(config["memory.offHeap.size"]) / 1024.0
        return float(config["executor.memory"]) + overhead_gb + offheap_gb

    def repair(self, config: Configuration) -> Configuration:
        """Return the nearest valid configuration.

        Repairs in the order the paper constrains: clip every numeric
        parameter to its range, shrink overhead/off-heap (then heap) until
        the per-executor sum fits the container, then shrink
        ``executor.instances`` until cluster totals fit.
        """
        return self._repair_values(config.as_dict())

    def _repair_values(self, values: dict[str, ParamValue]) -> Configuration:
        """:meth:`repair` of the configuration holding ``values``, a dict
        of all parameters it repairs in place."""
        for i, param in enumerate(self.parameters):
            if param.kind == "bool":
                continue
            lo, hi = self._bounds[i]
            value = float(values[param.name])
            clipped = min(max(value, lo), hi)
            values[param.name] = int(round(clipped)) if param.kind == "int" else clipped

        if self.container_memory_gb is not None:
            heap = float(values["executor.memory"])
            overhead_gb = float(values["executor.memoryOverhead"]) / 1024.0
            offheap_gb = float(values["memory.offHeap.size"]) / 1024.0
            excess = heap + overhead_gb + offheap_gb - self.container_memory_gb
            if excess > 0:
                # Shed off-heap first, then overhead, then heap: this keeps
                # the parameters BO cares most about (heap) intact longest.
                shed = min(offheap_gb, excess)
                offheap_gb -= shed
                excess -= shed
                if excess > 0:
                    shed = min(overhead_gb, excess)
                    overhead_gb -= shed
                    excess -= shed
                if excess > 0:
                    heap_lo = self.bounds("executor.memory")[0]
                    heap = max(heap_lo, heap - excess)
                values["executor.memory"] = int(round(heap))
                values["executor.memoryOverhead"] = int(round(overhead_gb * 1024.0))
                values["memory.offHeap.size"] = int(round(offheap_gb * 1024.0))

        if self.total_cores is not None or self.total_memory_gb is not None:
            lo = int(self.bounds("executor.instances")[0])
            # Executor shape must allow at least the range minimum of
            # instances: shrink cores, then per-executor memory, to fit.
            if self.total_cores is not None:
                max_cores = max(1, self.total_cores // lo)
                values["executor.cores"] = min(int(values["executor.cores"]), max_cores)
            if self.total_memory_gb is not None:
                per_exec_cap = self.total_memory_gb / lo
                heap = float(values["executor.memory"])
                overhead_gb = float(values["executor.memoryOverhead"]) / 1024.0
                offheap_gb = float(values["memory.offHeap.size"]) / 1024.0
                excess = heap + overhead_gb + offheap_gb - per_exec_cap
                if excess > 0:
                    shed = min(offheap_gb, excess)
                    offheap_gb -= shed
                    excess -= shed
                    if excess > 0:
                        shed = min(overhead_gb, excess)
                        overhead_gb -= shed
                        excess -= shed
                    if excess > 0:
                        heap_lo = self.bounds("executor.memory")[0]
                        heap = max(heap_lo, heap - excess)
                    values["executor.memory"] = int(heap)  # round down: stay under the cap
                    values["executor.memoryOverhead"] = int(overhead_gb * 1024.0)
                    values["memory.offHeap.size"] = int(offheap_gb * 1024.0)

            instances = int(values["executor.instances"])
            cores = int(values["executor.cores"])
            per_exec_gb = (
                float(values["executor.memory"])
                + float(values["executor.memoryOverhead"]) / 1024.0
                + float(values["memory.offHeap.size"]) / 1024.0
            )
            cap = instances
            if self.total_cores is not None and cores > 0:
                cap = min(cap, self.total_cores // cores)
            if self.total_memory_gb is not None and per_exec_gb > 0:
                cap = min(cap, int(self.total_memory_gb / per_exec_gb + 1e-9))
            values["executor.instances"] = max(lo, min(instances, cap))

        repaired = Configuration(values)
        repaired._repaired_by = self._repair_key
        return repaired

    # ------------------------------------------------------------------
    # Subspaces (used by IICP: tune only selected parameters)
    # ------------------------------------------------------------------
    def encode_subset(self, config: Configuration, names: Iterable[str]) -> np.ndarray:
        """Unit-cube encoding restricted to ``names`` (order preserved)."""
        full = self.encode(config)
        idx = [PARAMETER_INDEX[n] for n in names]
        return full[idx]

    def decode_subset(
        self,
        point: np.ndarray,
        names: list[str],
        base: Configuration | None = None,
    ) -> Configuration:
        """Decode a point over ``names`` on top of ``base`` (default config)."""
        base_cfg = base if base is not None else self.default()
        full = self.encode(base_cfg)
        arr = np.clip(np.asarray(point, dtype=float), 0.0, 1.0)
        if arr.shape != (len(names),):
            raise ValueError(f"expected shape ({len(names)},), got {arr.shape}")
        for name, value in zip(names, arr):
            full[PARAMETER_INDEX[name]] = value
        return self.decode(full)


def normalized_distance(space: ConfigSpace, a: Configuration, b: Configuration) -> float:
    """Euclidean distance between two configurations in the unit cube."""
    return float(np.linalg.norm(space.encode(a) - space.encode(b)) / math.sqrt(space.dim))
