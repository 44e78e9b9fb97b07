"""Tests for repro.sparksim.configspace — the Table 2 parameter space."""

import numpy as np
import pytest

from repro.sparksim.cluster import arm_cluster, x86_cluster
from repro.sparksim.configspace import (
    PARAMETERS,
    ConfigSpace,
    Configuration,
    normalized_distance,
)


class TestParameterTable:
    def test_has_38_parameters(self):
        assert len(PARAMETERS) == 38

    def test_numeric_boolean_split_matches_table2(self):
        numeric = [p for p in PARAMETERS if p.kind != "bool"]
        booleans = [p for p in PARAMETERS if p.kind == "bool"]
        assert len(numeric) == 27
        assert len(booleans) == 11

    def test_six_starred_resource_parameters(self):
        starred = [p.name for p in PARAMETERS if p.resource]
        assert set(starred) == {
            "driver.cores",
            "driver.memory",
            "executor.cores",
            "executor.memory",
            "executor.memoryOverhead",
            "memory.offHeap.size",
        }

    @pytest.mark.parametrize(
        "name, default, range_a, range_b",
        [
            ("sql.shuffle.partitions", 200, (100, 1000), (100, 1000)),
            ("executor.instances", 2, (48, 384), (9, 112)),
            ("executor.cores", 1, (1, 8), (1, 16)),
            ("executor.memory", 4, (4, 32), (4, 48)),
            ("sql.autoBroadcastJoinThreshold", 1024, (1024, 8192), (1024, 8192)),
            ("memory.fraction", 0.6, (0.5, 0.9), (0.5, 0.9)),
        ],
    )
    def test_key_rows_match_table2(self, name, default, range_a, range_b):
        param = next(p for p in PARAMETERS if p.name == name)
        assert param.default == default
        assert param.range_a == range_a
        assert param.range_b == range_b

    def test_bounds_select_by_cluster(self):
        param = next(p for p in PARAMETERS if p.name == "executor.instances")
        assert param.bounds("arm") == (48, 384)
        assert param.bounds("x86") == (9, 112)

    def test_boolean_bounds_are_unit(self):
        param = next(p for p in PARAMETERS if p.kind == "bool")
        assert param.bounds("arm") == (0.0, 1.0)


class TestConfiguration:
    def test_default_is_complete(self, space_x86):
        config = space_x86.default()
        assert len(config) == 38
        assert set(config) == {p.name for p in PARAMETERS}

    def test_defaults_clip_into_range(self, space_x86):
        config = space_x86.default()
        # Table-2 default executor.instances is 2, below Range B's minimum 9.
        assert config["executor.instances"] == 9

    def test_replace_creates_new(self, space_x86):
        config = space_x86.default()
        other = config.replace(**{"executor.memory": 16})
        assert other["executor.memory"] == 16
        assert config["executor.memory"] != 16 or other is not config

    def test_replace_unknown_parameter(self, space_x86):
        with pytest.raises(ValueError, match="unknown parameter"):
            space_x86.default().replace(**{"nonsense.knob": 1})

    def test_equality_and_hash(self, space_x86):
        a = space_x86.default()
        b = space_x86.default()
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.replace(**{"executor.memory": 20})

    def test_int_coercion(self, space_x86):
        config = space_x86.make(**{"executor.memory": 16.7})
        assert config["executor.memory"] == 17
        assert isinstance(config["executor.memory"], int)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            Configuration({"executor.memory": 4})


class TestEncodeDecode:
    def test_roundtrip_default(self, space_x86):
        config = space_x86.default()
        assert space_x86.decode(space_x86.encode(config)) == config

    def test_roundtrip_random(self, space_x86, rng):
        for _ in range(10):
            config = space_x86.sample(rng)
            assert space_x86.decode(space_x86.encode(config)) == config

    def test_encode_in_unit_cube(self, space_x86, rng):
        point = space_x86.encode(space_x86.sample(rng))
        assert point.shape == (38,)
        assert np.all(point >= 0) and np.all(point <= 1)

    def test_decode_corner_points(self, space_x86):
        low = space_x86.decode(np.zeros(38))
        high = space_x86.decode(np.ones(38))
        assert low["sql.shuffle.partitions"] == 100
        assert high["sql.shuffle.partitions"] == 1000
        assert low["shuffle.compress"] is False
        assert high["shuffle.compress"] is True

    def test_decode_wrong_shape(self, space_x86):
        with pytest.raises(ValueError):
            space_x86.decode(np.zeros(5))

    def test_subset_roundtrip(self, space_x86, rng):
        names = ["executor.memory", "sql.shuffle.partitions", "shuffle.compress"]
        config = space_x86.sample(rng)
        point = space_x86.encode_subset(config, names)
        rebuilt = space_x86.decode_subset(point, names, base=config)
        for name in names:
            assert rebuilt[name] == config[name]

    def test_subset_fills_base(self, space_x86):
        rebuilt = space_x86.decode_subset(np.array([1.0]), ["sql.shuffle.partitions"])
        assert rebuilt["sql.shuffle.partitions"] == 1000
        assert rebuilt["executor.memory"] == space_x86.default()["executor.memory"]


def _encode_oracle(space, config):
    """The per-parameter loop ``encode`` is checked against."""
    out = np.empty(space.dim)
    for i, param in enumerate(space.parameters):
        lo, hi = param.bounds(space.cluster_name)
        value = float(config[param.name])
        out[i] = 0.5 if hi == lo else (value - lo) / (hi - lo)
    return np.clip(out, 0.0, 1.0)


def _decode_oracle(space, point):
    """The per-parameter loop ``decode`` is checked against."""
    arr = np.clip(np.asarray(point, dtype=float), 0.0, 1.0)
    values = {}
    for i, param in enumerate(space.parameters):
        lo, hi = param.bounds(space.cluster_name)
        raw = lo + arr[i] * (hi - lo)
        if param.kind == "bool":
            values[param.name] = bool(arr[i] >= 0.5)
        elif param.kind == "int":
            values[param.name] = int(round(raw))
        else:
            values[param.name] = float(raw)
    return space.repair(Configuration(values))


def _spaces():
    from repro.sparksim.scenarios import RunStep, degrade_cluster

    x86 = x86_cluster()
    node_loss = degrade_cluster(x86, RunStep(index=0, datasize_gb=1.0, lost_workers=3))
    return [ConfigSpace.for_cluster(c) for c in (x86, arm_cluster(), node_loss)] + [ConfigSpace("x86")]


def _points(space, rng, n):
    """Random points, the corners, and points on the rounding boundaries."""
    points = [rng.random(space.dim) for _ in range(n)]
    points += [np.zeros(space.dim), np.ones(space.dim), np.full(space.dim, 0.5)]
    spans = space._bounds[:, 1] - space._bounds[:, 0]
    for k in range(1, 8):
        # raw = lo + (k + 0.5): the half-way points integer parameters round.
        points.append(np.clip((k + 0.5) / np.maximum(spans, 1.0), 0.0, 1.0))
    return points


class TestArrayEncodeDecode:
    """``encode``/``decode`` give the floats of the per-parameter loops."""

    def test_encode_matches_loop(self, rng):
        for space in _spaces():
            for point in _points(space, rng, 40):
                config = space.decode(point)
                assert space.encode(config).tobytes() == _encode_oracle(space, config).tobytes()

    def test_decode_matches_loop(self, rng):
        # The oracle builds a Configuration and repairs it (two builds);
        # decode repairs its own values and builds one.
        for space in _spaces():
            for point in _points(space, rng, 1000):
                got, want = space.decode(point), _decode_oracle(space, point)
                assert got == want
                assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
                assert [float(v).hex() for v in got.values()] == [float(v).hex() for v in want.values()]
                assert space.is_repaired(got) and space.is_repaired(want)


class TestDecodeBuildsOnce:
    def test_one_construction(self, monkeypatch, rng):
        built = []
        init = Configuration.__init__

        def counting_init(self, values):
            built.append(1)
            init(self, values)

        monkeypatch.setattr(Configuration, "__init__", counting_init)
        for space in _spaces():
            space.decode(rng.random(space.dim))
        assert len(built) == len(_spaces())


class TestRepairOnce:
    def test_repair_is_idempotent(self, rng):
        # Configuration(...) drops the repaired mark, so repair() does the work.
        for space in _spaces():
            configs = [space.decode(p) for p in _points(space, rng, 200)]
            configs.append(space.make(**{
                "executor.instances": 112, "executor.cores": 16, "executor.memory": 48,
                "executor.memoryOverhead": 49152, "memory.offHeap.size": 49152,
            }))
            for config in configs:
                again = space.repair(Configuration(config.as_dict()))
                assert again.as_dict() == config.as_dict()

    def test_only_an_equal_space_vouches_for_a_repair(self, x86, rng):
        from repro.sparksim.scenarios import RunStep, degrade_cluster

        space = ConfigSpace.for_cluster(x86)
        config = space.sample(rng)
        assert space.is_repaired(config)
        assert ConfigSpace.for_cluster(x86).is_repaired(config)  # equal bounds and caps
        node_loss = degrade_cluster(x86, RunStep(index=0, datasize_gb=1.0, lost_workers=3))
        assert not ConfigSpace.for_cluster(node_loss).is_repaired(config)
        assert not ConfigSpace("x86").is_repaired(config)  # same bounds, no caps
        assert not space.is_repaired(Configuration(config.as_dict()))
        assert not space.is_repaired(config.replace(**{"executor.memory": 48}))


class TestRepairAndValidation:
    def test_sampled_configs_are_valid(self, space_x86, rng):
        for _ in range(25):
            assert space_x86.is_valid(space_x86.sample(rng))

    def test_memory_sum_constraint(self, space_x86):
        # 48 GB heap + 48 GB overhead + 48 GB off-heap >> 56 GB container.
        config = space_x86.make(**{
            "executor.memory": 48,
            "executor.memoryOverhead": 49152,
            "memory.offHeap.size": 49152,
        })
        total = (
            config["executor.memory"]
            + config["executor.memoryOverhead"] / 1024
            + config["memory.offHeap.size"] / 1024
        )
        assert total <= 56 + 1e-6

    def test_repair_sheds_offheap_before_heap(self, space_x86):
        config = space_x86.make(**{
            "executor.memory": 48,
            "executor.memoryOverhead": 0,
            "memory.offHeap.size": 49152,
        })
        assert config["executor.memory"] == 48  # heap kept
        assert config["memory.offHeap.size"] / 1024 <= 8 + 1e-6

    def test_cluster_core_totals(self, space_x86):
        config = space_x86.make(**{"executor.instances": 112, "executor.cores": 16})
        assert config["executor.instances"] * config["executor.cores"] <= 140

    def test_violations_lists_problems(self, x86):
        space = ConfigSpace.for_cluster(x86)
        raw = space.default().replace(**{"executor.memory": 999})
        problems = space.violations(raw)
        assert any("executor.memory" in p for p in problems)

    def test_arm_uses_range_a(self, space_arm, rng):
        config = space_arm.sample(rng)
        assert 48 <= config["executor.instances"] <= 384
        assert 1 <= config["executor.cores"] <= 8


class TestDistance:
    def test_zero_for_identical(self, space_x86):
        config = space_x86.default()
        assert normalized_distance(space_x86, config, config) == pytest.approx(0.0)

    def test_bounded_by_one(self, space_x86):
        low = space_x86.decode(np.zeros(38))
        high = space_x86.decode(np.ones(38))
        assert 0 < normalized_distance(space_x86, low, high) <= 1.0
