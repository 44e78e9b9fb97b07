"""Shuffle and compression cost model.

Spark shuffles write map output to local disk and fetch it over the
network into reduce tasks.  Compression (Zstd in Spark 2.4 with
``spark.io.compression.zstd.*``) trades CPU for bytes moved; fetch
parallelism (``reducer.maxSizeInFlight``, ``shuffle.io.numConnectionsPerPeer``)
and buffering (``shuffle.file.buffer``) shave constant factors.

All functions are pure so they can be unit-tested and property-tested in
isolation from the engine.  Everything a shuffle's cost needs from the
configuration and the cluster is folded into one :class:`ShuffleRates`
by :func:`shuffle_rates`, which the engine calls once per run.
:func:`shuffle_cost` and :func:`broadcast_cost_s` take a scalar or an
array of volumes, so the engine prices every shuffle (or broadcast) of a
run in one call.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.configspace import Configuration, ParamValue


class ShuffleCost(NamedTuple):
    """Cluster-level cost of shuffles of ``raw_gb`` bytes, one per element.

    ``compress_core_s`` is in *core-seconds*: the engine divides it by the
    number of active execution slots to get wall time.
    """

    write_s: np.ndarray
    fetch_s: np.ndarray
    compress_core_s: np.ndarray
    wire_gb: np.ndarray  # bytes actually moved after compression


def compression_ratio(level: int) -> float:
    """Fraction of the raw size remaining after Zstd at ``level``.

    Zstd on columnar shuffle data typically achieves 2.5-4x; higher levels
    compress slightly better with steeply growing CPU cost.
    """
    level = max(1, min(int(level), 5))
    return 0.40 - 0.025 * (level - 1)


def compression_cpu_s_per_gb(level: int, buffer_kb: float) -> float:
    """CPU seconds to compress one GB at ``level`` with ``buffer_kb`` buffers.

    CPU cost grows superlinearly in level; a too-small streaming buffer
    adds call overhead, a large one amortises it (diminishing returns).
    """
    level = max(1, min(int(level), 5))
    base = 1.2 * (1.0 + 0.5 * (level - 1) ** 1.3)
    buffer_penalty = 1.0 + 8.0 / max(float(buffer_kb), 8.0)
    return base * buffer_penalty / 10.0


def fetch_efficiency(max_in_flight_mb: float, connections_per_peer: int) -> float:
    """Network utilisation achieved by reducers, in (0, 1].

    Small in-flight windows leave the pipe idle between requests; extra
    connections per peer help until they saturate (diminishing returns).
    """
    window = min(max(float(max_in_flight_mb), 1.0), 512.0)
    window_eff = window / (window + 24.0)
    conn = min(max(int(connections_per_peer), 1), 16)
    conn_eff = 1.0 - 0.12 / (conn + 1.0)
    return min(1.0, (0.55 + 0.45 * window_eff) * conn_eff)


def write_efficiency(file_buffer_kb: float) -> float:
    """Disk-write utilisation of map tasks given the shuffle file buffer."""
    buf = min(max(float(file_buffer_kb), 4.0), 1024.0)
    return min(1.0, 0.75 + 0.25 * buf / (buf + 32.0))


class ShuffleRates(NamedTuple):
    """What a shuffle's cost takes from the configuration and the cluster."""

    compress: bool  # shuffle.compress
    ratio: float  # compression_ratio at the configured Zstd level
    cpu_s_per_gb: float  # compression_cpu_s_per_gb at that level and buffer
    disk_mb_per_s: float  # cluster disk bandwidth after write_efficiency
    net_mb_per_s: float  # cluster network bandwidth after fetch_efficiency
    spill_compress: bool  # shuffle.spill.compress


def shuffle_rates(config: Mapping[str, ParamValue], cluster: ClusterSpec) -> ShuffleRates:
    """The :class:`ShuffleRates` of ``config`` on ``cluster``."""
    level = int(config["io.compression.zstd.level"])
    return ShuffleRates(
        compress=bool(config["shuffle.compress"]),
        ratio=compression_ratio(level),
        cpu_s_per_gb=compression_cpu_s_per_gb(level, float(config["io.compression.zstd.bufferSize"])),
        disk_mb_per_s=cluster.aggregate_disk_mb_per_s * write_efficiency(config["shuffle.file.buffer"]),
        net_mb_per_s=cluster.aggregate_network_mb_per_s * fetch_efficiency(
            config["reducer.maxSizeInFlight"], config["shuffle.io.numConnectionsPerPeer"]
        ),
        spill_compress=bool(config["shuffle.spill.compress"]),
    )


def shuffle_cost(raw_gb, rates: ShuffleRates, spill=False) -> ShuffleCost:
    """Cluster-level time to write and fetch shuffles of ``raw_gb`` (a
    scalar or an array).

    Where ``spill`` is set (a flag, or an array of flags matching
    ``raw_gb``) the data crossed the disk twice (spill during the map
    side), governed by ``shuffle.spill.compress``.  A zero volume costs
    nothing.
    """
    raw = np.asarray(raw_gb, dtype=float)
    if np.count_nonzero(raw < 0):
        raise ValueError("raw_gb must be non-negative")

    if rates.compress:
        wire_gb = raw * rates.ratio
        compress_cpu = raw * rates.cpu_s_per_gb
    else:
        wire_gb = raw
        compress_cpu = np.zeros_like(raw)

    write_s = wire_gb * 1024.0 / rates.disk_mb_per_s
    fetch_s = wire_gb * 1024.0 / rates.net_mb_per_s

    spill = np.asarray(spill, dtype=bool)
    if np.count_nonzero(spill):
        spill_gb = raw * rates.ratio if rates.spill_compress else raw
        write_s = np.where(spill, write_s + spill_gb * 1024.0 / rates.disk_mb_per_s, write_s)
        if rates.spill_compress:
            compress_cpu = np.where(spill, compress_cpu + raw * rates.cpu_s_per_gb, compress_cpu)

    return ShuffleCost(write_s=write_s, fetch_s=fetch_s, compress_core_s=compress_cpu, wire_gb=wire_gb)


def broadcast_cost_s(small_side_mb, config: Configuration, cluster: ClusterSpec):
    """Time to broadcast build-side tables of ``small_side_mb`` (a scalar or
    an array) to all workers; an empty side costs nothing.

    Torrent broadcast splits the table into ``broadcast.blockSize`` pieces;
    tiny pieces add per-block overhead, compression shrinks the payload.
    """
    small = np.asarray(small_side_mb, dtype=float)
    payload_mb = small
    if config["broadcast.compress"]:
        payload_mb = payload_mb * compression_ratio(int(config["io.compression.zstd.level"]))
    block_mb = max(float(config["broadcast.blockSize"]), 0.5)
    blocks = np.maximum(1, (payload_mb / block_mb).astype(np.int64) + 1)
    per_block_overhead_s = 0.002
    transfer_s = payload_mb * cluster.worker_count / cluster.aggregate_network_mb_per_s
    return np.where(small > 0, transfer_s + blocks * per_block_overhead_s, 0.0)
