"""Tests for the shuffle/compression cost model."""

import numpy as np
import pytest

from repro.sparksim.cluster import x86_cluster
from repro.sparksim.configspace import ConfigSpace
from repro.sparksim.shuffle import (
    broadcast_cost_s,
    compression_cpu_s_per_gb,
    compression_ratio,
    fetch_efficiency,
    shuffle_cost,
    shuffle_rates,
    write_efficiency,
)


@pytest.fixture()
def config():
    return ConfigSpace("x86").default()


@pytest.fixture()
def cluster():
    return x86_cluster()


class TestCompression:
    def test_ratio_below_one(self):
        for level in range(1, 6):
            assert 0 < compression_ratio(level) < 1

    def test_higher_level_compresses_better(self):
        assert compression_ratio(5) < compression_ratio(1)

    def test_higher_level_costs_more_cpu(self):
        assert compression_cpu_s_per_gb(5, 32) > compression_cpu_s_per_gb(1, 32)

    def test_small_buffer_costs_more(self):
        assert compression_cpu_s_per_gb(1, 8) > compression_cpu_s_per_gb(1, 96)

    def test_level_clamped(self):
        assert compression_ratio(99) == compression_ratio(5)
        assert compression_ratio(-3) == compression_ratio(1)


class TestEfficiencies:
    def test_fetch_efficiency_bounded(self):
        for window in (1, 24, 48, 144, 512):
            for conns in (1, 3, 5):
                assert 0 < fetch_efficiency(window, conns) <= 1

    def test_larger_window_is_better(self):
        assert fetch_efficiency(144, 1) > fetch_efficiency(24, 1)

    def test_more_connections_is_better(self):
        assert fetch_efficiency(48, 5) > fetch_efficiency(48, 1)

    def test_write_efficiency_monotone(self):
        assert write_efficiency(96) > write_efficiency(16)


class TestShuffleCost:
    def test_zero_bytes_is_free(self, config, cluster):
        cost = shuffle_cost(0.0, shuffle_rates(config, cluster))
        assert cost.write_s == cost.fetch_s == cost.compress_core_s == 0.0

    def test_negative_rejected(self, config, cluster):
        with pytest.raises(ValueError):
            shuffle_cost(-1.0, shuffle_rates(config, cluster))

    def test_compression_shrinks_wire_bytes(self, config, cluster):
        on = shuffle_cost(10.0, shuffle_rates(config.replace(**{"shuffle.compress": True}), cluster))
        off = shuffle_cost(10.0, shuffle_rates(config.replace(**{"shuffle.compress": False}), cluster))
        assert on.wire_gb < off.wire_gb
        assert on.compress_core_s > 0
        assert off.compress_core_s == 0

    def test_compression_reduces_io_time(self, config, cluster):
        on = shuffle_cost(50.0, shuffle_rates(config.replace(**{"shuffle.compress": True}), cluster))
        off = shuffle_cost(50.0, shuffle_rates(config.replace(**{"shuffle.compress": False}), cluster))
        assert on.write_s + on.fetch_s < off.write_s + off.fetch_s

    def test_cost_scales_with_volume(self, config, cluster):
        small = shuffle_cost(1.0, shuffle_rates(config, cluster))
        large = shuffle_cost(10.0, shuffle_rates(config, cluster))
        assert large.fetch_s == pytest.approx(10 * small.fetch_s)

    def test_spill_adds_disk_traffic(self, config, cluster):
        plain = shuffle_cost(10.0, shuffle_rates(config, cluster), spill=False)
        spilled = shuffle_cost(10.0, shuffle_rates(config, cluster), spill=True)
        assert spilled.write_s > plain.write_s


class TestBroadcast:
    def test_zero_side_is_free(self, config, cluster):
        assert broadcast_cost_s(0.0, config, cluster) == 0.0

    def test_cost_grows_with_size(self, config, cluster):
        assert broadcast_cost_s(100.0, config, cluster) > broadcast_cost_s(1.0, config, cluster)

    def test_compression_helps_large_payloads(self, config, cluster):
        on = broadcast_cost_s(500.0, config.replace(**{"broadcast.compress": True}), cluster)
        off = broadcast_cost_s(500.0, config.replace(**{"broadcast.compress": False}), cluster)
        assert on < off

    def test_tiny_blocks_add_overhead(self, config, cluster):
        small_blocks = broadcast_cost_s(64.0, config.replace(**{"broadcast.blockSize": 1}), cluster)
        big_blocks = broadcast_cost_s(64.0, config.replace(**{"broadcast.blockSize": 16}), cluster)
        assert small_blocks > big_blocks


class TestArrayCosts:
    """One call over an array of volumes gives, element by element, the
    floats of the scalar formulas."""

    @staticmethod
    def _shuffle_loop(raw_gb, rates, spill):
        if raw_gb == 0:
            return 0.0, 0.0, 0.0, 0.0
        wire_gb, compress_cpu = raw_gb, 0.0
        if rates.compress:
            wire_gb, compress_cpu = raw_gb * rates.ratio, raw_gb * rates.cpu_s_per_gb
        write_s = wire_gb * 1024.0 / rates.disk_mb_per_s
        fetch_s = wire_gb * 1024.0 / rates.net_mb_per_s
        if spill:
            write_s += raw_gb * (rates.ratio if rates.spill_compress else 1.0) * 1024.0 / rates.disk_mb_per_s
            if rates.spill_compress:
                compress_cpu += raw_gb * rates.cpu_s_per_gb
        return write_s, fetch_s, compress_cpu, wire_gb

    @staticmethod
    def _broadcast_loop(small_side_mb, config, cluster):
        if small_side_mb <= 0:
            return 0.0
        payload_mb = small_side_mb
        if config["broadcast.compress"]:
            payload_mb *= compression_ratio(int(config["io.compression.zstd.level"]))
        blocks = max(1, int(payload_mb / max(float(config["broadcast.blockSize"]), 0.5)) + 1)
        return payload_mb * cluster.worker_count / cluster.aggregate_network_mb_per_s + blocks * 0.002

    @pytest.mark.parametrize("switches", [(True, True), (True, False), (False, True), (False, False)])
    def test_shuffle_matches_scalar_loop(self, config, cluster, switches):
        compress, spill_compress = switches
        rates = shuffle_rates(
            config.replace(**{"shuffle.compress": compress, "shuffle.spill.compress": spill_compress}),
            cluster,
        )
        rng = np.random.default_rng(3)
        raw = np.concatenate([[0.0], rng.random(500) * 300.0])
        spill = rng.random(raw.size) < 0.5
        cost = shuffle_cost(raw, rates, spill=spill)
        for i, (gb, spilled) in enumerate(zip(raw.tolist(), spill.tolist())):
            want = self._shuffle_loop(gb, rates, spilled)
            got = tuple(float(field[i]) for field in cost)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("compress", [True, False])
    def test_broadcast_matches_scalar_loop(self, config, cluster, compress):
        config = config.replace(**{"broadcast.compress": compress, "broadcast.blockSize": 3})
        small = np.concatenate([[0.0, 1.0, 3.0], np.random.default_rng(4).random(300) * 64.0])
        got = broadcast_cost_s(small, config, cluster)
        for i, mb in enumerate(small.tolist()):
            assert float(got[i]).hex() == self._broadcast_loop(mb, config, cluster).hex()
