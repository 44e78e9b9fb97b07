"""Tests for the execution engine — the paper's causal mechanisms."""

import numpy as np
import pytest

from repro.sparksim import SparkSQLSimulator, get_application, x86_cluster
from repro.sparksim.query import Application, Query, Stage, StageKind


@pytest.fixture()
def sim(x86):
    return SparkSQLSimulator(x86, noise=0.0)


def single_stage_app(stage, category="join"):
    return Application(name="one", queries=(Query(name="q", stages=(stage,), category=category),))


class TestBasics:
    def test_run_returns_all_queries(self, sim, tpcds):
        metrics = sim.run(tpcds, sim.space.default(), 100.0, rng=0)
        assert len(metrics.queries) == 104
        assert metrics.duration_s == pytest.approx(sum(q.duration_s for q in metrics.queries))

    def test_durations_positive(self, sim, tpch):
        metrics = sim.run(tpch, sim.space.default(), 100.0, rng=0)
        assert all(q.duration_s > 0 for q in metrics.queries)
        assert metrics.gc_s >= 0

    def test_datasize_must_be_positive(self, sim, join_app):
        with pytest.raises(ValueError):
            sim.run(join_app, sim.space.default(), 0.0)

    def test_noise_reproducible_with_seed(self, x86, join_app):
        sim = SparkSQLSimulator(x86, noise=0.05)
        a = sim.run(join_app, sim.space.default(), 100.0, rng=5).duration_s
        b = sim.run(join_app, sim.space.default(), 100.0, rng=5).duration_s
        assert a == pytest.approx(b)

    def test_noiseless_is_deterministic(self, sim, join_app):
        a = sim.run(join_app, sim.space.default(), 100.0, rng=1).duration_s
        b = sim.run(join_app, sim.space.default(), 100.0, rng=2).duration_s
        assert a == pytest.approx(b)

    def test_negative_noise_rejected(self, x86):
        with pytest.raises(ValueError):
            SparkSQLSimulator(x86, noise=-0.1)

    def test_execution_slots_capped_by_cluster(self, sim):
        config = sim.space.make(**{"executor.instances": 112, "executor.cores": 16})
        assert sim.execution_slots(config) <= sim.cluster.total_cores


class TestScalingLaws:
    def test_time_grows_with_datasize(self, sim, join_app):
        config = sim.space.default()
        t100 = sim.run(join_app, config, 100.0).duration_s
        t500 = sim.run(join_app, config, 500.0).duration_s
        assert t500 > 2 * t100

    def test_gc_grows_superlinearly_with_datasize(self, sim, join_app):
        # Figure 19: under a fixed config GC time grows faster than data.
        config = sim.space.make(**{"executor.memory": 16, "executor.cores": 4,
                                   "memory.offHeap.enabled": False,
                                   "sql.shuffle.partitions": 400})
        gc100 = sim.run(join_app, config, 100.0).gc_s
        gc500 = sim.run(join_app, config, 500.0).gc_s
        assert gc500 > 5 * max(gc100, 1e-9)

    def test_more_slots_means_faster(self, sim, join_app):
        few = sim.space.make(**{"executor.instances": 9, "executor.cores": 1})
        many = sim.space.make(**{"executor.instances": 70, "executor.cores": 2})
        assert (
            sim.run(join_app, many, 100.0).duration_s
            < sim.run(join_app, few, 100.0).duration_s
        )


class TestConfigSensitivityMechanisms:
    def test_scan_query_insensitive(self, sim, scan_app, rng):
        # Section 5.11: map-only selection queries barely react to config.
        times = [
            sim.run(scan_app, sim.space.sample(rng), 100.0).duration_s for _ in range(12)
        ]
        cv = float(np.std(times) / np.mean(times))
        assert cv < 0.5

    def test_join_more_sensitive_than_scan(self, sim, join_app, scan_app, rng):
        join_times, scan_times = [], []
        for _ in range(12):
            config = sim.space.sample(rng)
            join_times.append(sim.run(join_app, config, 300.0).duration_s)
            scan_times.append(sim.run(scan_app, config, 300.0).duration_s)
        cv_join = float(np.std(join_times) / np.mean(join_times))
        cv_scan = float(np.std(scan_times) / np.mean(scan_times))
        assert cv_join > cv_scan

    def test_shuffle_partitions_relieve_memory(self, sim, join_app):
        base = {"executor.memory": 8, "executor.cores": 8, "memory.offHeap.enabled": False}
        few = sim.space.make(**base, **{"sql.shuffle.partitions": 100})
        many = sim.space.make(**base, **{"sql.shuffle.partitions": 1000})
        assert (
            sim.run(join_app, many, 300.0).duration_s
            < sim.run(join_app, few, 300.0).duration_s
        )

    def test_compression_helps_shuffle_heavy_queries(self, sim, join_app):
        on = sim.space.make(**{"shuffle.compress": True})
        off = sim.space.make(**{"shuffle.compress": False})
        assert sim.run(join_app, on, 300.0).duration_s < sim.run(join_app, off, 300.0).duration_s

    def test_broadcast_join_short_circuits_shuffle(self, sim):
        stage = Stage(
            kind=StageKind.SHUFFLE_JOIN,
            input_fraction=0.2,
            shuffle_fraction=0.2,
            small_side_mb=4.0,  # 4 MB: broadcastable within threshold range
        )
        app = single_stage_app(stage)
        low = sim.space.make(**{"sql.autoBroadcastJoinThreshold": 1024})  # 1 MB
        high = sim.space.make(**{"sql.autoBroadcastJoinThreshold": 8192})  # 8 MB
        t_shuffled = sim.run(app, low, 200.0)
        t_broadcast = sim.run(app, high, 200.0)
        assert t_broadcast.duration_s < t_shuffled.duration_s
        assert t_broadcast.queries[0].stages[0].broadcast
        assert not t_shuffled.queries[0].stages[0].broadcast

    def test_codegen_max_fields_penalty(self, sim):
        stage = Stage(kind=StageKind.SCAN, input_fraction=0.3, cpu_weight=1.0, fields=150)
        app = single_stage_app(stage, category="selection")
        narrow = sim.space.make(**{"sql.codegen.maxFields": 50})  # codegen off
        wide = sim.space.make(**{"sql.codegen.maxFields": 200})  # codegen on
        assert sim.run(app, wide, 100.0).duration_s < sim.run(app, narrow, 100.0).duration_s

    def test_default_deviation_penalty_u_shape(self, sim, join_app):
        # Secondary knobs have interior sweet spots at their defaults.
        at_default = sim.space.make(**{"sql.inMemoryColumnarStorage.batchSize": 10000})
        low = sim.space.make(**{"sql.inMemoryColumnarStorage.batchSize": 5000})
        high = sim.space.make(**{"sql.inMemoryColumnarStorage.batchSize": 20000})
        t_def = sim.run(join_app, at_default, 100.0).duration_s
        assert t_def < sim.run(join_app, low, 100.0).duration_s
        assert t_def < sim.run(join_app, high, 100.0).duration_s

    def test_skew_slows_reduce_side(self, sim):
        def app_with_skew(skew):
            stage = Stage(
                kind=StageKind.SHUFFLE_JOIN, input_fraction=0.2, shuffle_fraction=0.2, skew=skew
            )
            return single_stage_app(stage)

        flat = sim.run(app_with_skew(0.0), sim.space.default(), 200.0).duration_s
        skewed = sim.run(app_with_skew(0.6), sim.space.default(), 200.0).duration_s
        assert skewed > flat


class TestMetricsDetail:
    def test_stage_metrics_populated(self, sim, join_app):
        metrics = sim.run(join_app, sim.space.default(), 100.0)
        stage = metrics.queries[0].stages[0]
        assert stage.partitions > 0
        assert stage.waves >= 1
        assert stage.duration_s == pytest.approx(
            stage.compute_s + stage.io_s + stage.shuffle_s + stage.gc_s + stage.overhead_s
        )

    def test_shuffle_bytes_reported(self, sim, join_app):
        metrics = sim.run(join_app, sim.space.default(), 200.0)
        assert metrics.queries[0].shuffle_bytes_gb == pytest.approx(0.35 * 200.0)

    def test_duration_of_subset(self, sim, tpch):
        metrics = sim.run(tpch, sim.space.default(), 100.0)
        two = metrics.duration_of(["Q01", "Q02"])
        assert two == pytest.approx(
            metrics.query_durations["Q01"] + metrics.query_durations["Q02"]
        )
        assert metrics.duration_of(None) == metrics.duration_s


def _canonical(value) -> str:
    """Exact text form of a ``metrics_to_dict`` tree: floats as ``float.hex``."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list | tuple):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


#: sha256 over the grid of :meth:`TestPinnedOutputs._grid`, captured
#: before the engine computed its configuration-only values once per run.
#: Any change to a simulated float, in any field, moves this digest.
PINNED_RUN_DIGEST = "0f884843816993eaa3c3fa43c9a973cf72aba8cf845136d0f79e1dfdf955ae0a"


class TestPinnedOutputs:
    """Every field of every run over a fixed grid, bit for bit."""

    DATASIZES = (0.5, 100.0, 1024.0)
    SKEW_SHIFTS = (0.0, 0.5)

    @staticmethod
    def _clusters():
        from repro.sparksim import arm_cluster
        from repro.sparksim.scenarios import RunStep, degrade_cluster

        x86, arm = x86_cluster(), arm_cluster()
        node_loss = degrade_cluster(x86, RunStep(index=0, datasize_gb=1.0, lost_workers=3))
        degraded = degrade_cluster(
            arm, RunStep(index=0, datasize_gb=1.0, disk_factor=0.45, core_factor=0.75)
        )
        return (x86, arm, node_loss, degraded)

    def _grid(self):
        """Yield ``(simulator, app, config, datasize, seed)`` for every run."""
        from repro.sparksim import list_benchmarks
        from repro.sparksim.scenarios import shift_application_skew

        apps = [get_application(name) for name in list_benchmarks()]
        seed = 0
        for cluster in self._clusters():
            sim = SparkSQLSimulator(cluster, noise=0.04)
            rng = np.random.default_rng(2024)
            configs = [sim.space.default()] + [sim.space.sample(rng) for _ in range(3)]
            for app in apps:
                for shift in self.SKEW_SHIFTS:
                    shifted = shift_application_skew(app, shift)
                    for datasize in self.DATASIZES:
                        for config in configs:
                            seed += 1
                            yield sim, shifted, config, datasize, seed

    def test_run_outputs_bit_for_bit(self, monkeypatch):
        import hashlib

        import repro.sparksim.engine as engine
        from repro.sparksim import ApplicationMetrics, metrics_to_dict

        outcomes = []
        evaluate = engine.evaluate_task_memory

        def spy(*args, **kwargs):
            outcome = evaluate(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(engine, "evaluate_task_memory", spy)
        digest = hashlib.sha256()
        reached = set()
        for sim, app, config, datasize, seed in self._grid():
            metrics = sim.run(app, config, datasize, rng=seed)
            digest.update(_canonical(metrics_to_dict(metrics)).encode())
            single = sim.run_query(app.queries[0], config, datasize, rng=seed)
            wrapped = ApplicationMetrics(app.name, datasize, single.duration_s, single.gc_s, (single,))
            digest.update(_canonical(metrics_to_dict(wrapped)).encode())
            for query, qm in zip(app.queries, metrics.queries):
                for stage, sm in zip(query.stages, qm.stages):
                    if sm.broadcast:
                        reached.add("broadcast")
                        continue
                    if sm.spilled:
                        reached.add("spill")
                    if stage.fields > int(config["sql.codegen.maxFields"]):
                        reached.add("wide-codegen")
                    if (
                        query.category == "selection"
                        and config["sql.inMemoryColumnarStorage.partitionPruning"]
                    ):
                        reached.add("selection-pruning")
        # One outcome per run holds every reduce phase's memory verdict.
        if any(o.oom.any() for o in outcomes):
            reached.add("oom")
        assert reached == {"broadcast", "spill", "oom", "wide-codegen", "selection-pruning"}
        assert digest.hexdigest() == PINNED_RUN_DIGEST


class TestRecordContract:
    """The per-stage and per-query records stay immutable value objects."""

    FIELDS = {
        "StageMetrics": (
            "kind", "duration_s", "compute_s", "io_s", "shuffle_s", "gc_s", "overhead_s",
            "waves", "partitions", "shuffle_bytes_gb", "spilled", "broadcast",
        ),
        "QueryMetrics": (
            "name", "duration_s", "gc_s", "shuffle_bytes_gb", "stages", "failed", "retries",
        ),
        "MemoryOutcome": ("gc_fraction", "spill_gb", "oom", "heap_pressure"),
        "ShuffleCost": ("write_s", "fetch_s", "compress_core_s", "wire_gb"),
        "TaskMemoryBudget": ("heap_gb", "offheap_gb"),
    }

    @pytest.fixture(scope="class")
    def records(self):
        from repro.sparksim.memorymodel import (
            MemoryOutcome,
            TaskMemoryBudget,
            evaluate_task_memory,
            task_memory_budget,
        )
        from repro.sparksim.metrics import QueryMetrics, StageMetrics
        from repro.sparksim.shuffle import ShuffleCost, shuffle_cost, shuffle_rates

        cluster = x86_cluster()
        sim = SparkSQLSimulator(cluster)
        config = sim.space.default()
        metrics = sim.run(get_application("tpcds"), config, 100.0, rng=3)
        budget = task_memory_budget(config)
        return {
            "classes": {
                cls.__name__: cls
                for cls in (StageMetrics, QueryMetrics, MemoryOutcome, ShuffleCost, TaskMemoryBudget)
            },
            "metrics": metrics,
            "instances": {
                "StageMetrics": metrics.queries[0].stages[0],
                "QueryMetrics": metrics.queries[0],
                "MemoryOutcome": evaluate_task_memory(1.0, budget),
                "ShuffleCost": shuffle_cost(10.0, shuffle_rates(config, cluster)),
                "TaskMemoryBudget": budget,
            },
        }

    def test_fields_keep_the_dataclass_order(self, records):
        for name, fields in self.FIELDS.items():
            assert records["classes"][name]._fields == fields

    def test_query_metrics_defaults(self, records):
        stage = records["instances"]["StageMetrics"]
        query = records["classes"]["QueryMetrics"]("q", 1.0, 0.0, 0.0, (stage,))
        assert query.failed is False
        assert query.retries == 0
        assert query.stage_count == 1

    def test_assigning_a_field_raises(self, records):
        for name, instance in records["instances"].items():
            for field in self.FIELDS[name]:
                with pytest.raises(AttributeError):
                    setattr(instance, field, getattr(instance, field))

    def test_budget_total(self, records):
        budget = records["instances"]["TaskMemoryBudget"]
        assert budget.total_gb == budget.heap_gb + budget.offheap_gb

    def test_full_run_round_trips(self, records):
        import pickle

        from repro.sparksim import metrics_from_dict, metrics_to_dict

        metrics = records["metrics"]
        assert len(metrics.queries) == 104
        assert pickle.loads(pickle.dumps(metrics)) == metrics
        assert metrics_from_dict(metrics_to_dict(metrics)) == metrics
        for instance in records["instances"].values():
            assert pickle.loads(pickle.dumps(instance)) == instance


class TestStageTable:
    """A run's stage columns are built once per query tuple and cached by
    the identity of its ``Query`` objects."""

    def test_rebuilt_rqa_subsets_share_one_table(self, x86, tpcds):
        from repro.core.objective import SparkSQLObjective

        sim = SparkSQLSimulator(x86)
        objective = SparkSQLObjective(sim, tpcds, rng=0)
        names = tpcds.query_names[5:14]
        rng = np.random.default_rng(1)
        for _ in range(4):
            # Each trial rebuilds the RQA with Application.subset.
            objective.execute(sim.space.sample(rng), 100.0, queries=names)
        assert len(sim._tables) == 1
        table = sim._stage_table(tpcds.subset(names).queries)
        assert table.names == names
        assert len(sim._tables) == 1

    def test_skew_shifted_app_with_equal_names_gets_its_own_table(self, x86, tpch):
        from repro.sparksim.scenarios import shift_application_skew

        shifted = shift_application_skew(tpch, 0.4)
        assert shifted.name == tpch.name and shifted.query_names == tpch.query_names
        sim = SparkSQLSimulator(x86)
        config = sim.space.default()
        sim.run(tpch, config, 100.0, rng=1)
        shared = sim.run(shifted, config, 100.0, rng=1)
        fresh = SparkSQLSimulator(x86).run(shifted, config, 100.0, rng=1)
        assert len(sim._tables) == 2
        assert sim._stage_table(shifted.queries) is not sim._stage_table(tpch.queries)
        assert shared == fresh
        assert shared != sim.run(tpch, config, 100.0, rng=1)

    def test_pickled_simulator_ships_no_tables(self, x86, tpch):
        import pickle

        sim = SparkSQLSimulator(x86)
        config = sim.space.default()
        before = sim.run(tpch, config, 100.0, rng=2)
        copy = pickle.loads(pickle.dumps(sim))
        assert copy._tables == {}
        assert copy.run(tpch, config, 100.0, rng=2) == before


class TestRepairOnce:
    def test_node_loss_space_repairs_a_baseline_repaired_config(self, x86, tpch):
        from repro.sparksim import DriftingSimulator
        from repro.sparksim.configspace import Configuration
        from repro.sparksim.scenarios import RunStep, degrade_cluster

        step = RunStep(index=0, datasize_gb=100.0, lost_workers=3)
        drifting = DriftingSimulator(x86, noise=0.0)
        config = drifting.space.make(**{"executor.instances": 112, "executor.cores": 1})
        assert drifting.space.is_repaired(config)

        degraded = SparkSQLSimulator(degrade_cluster(x86, step), noise=0.0)
        repaired = degraded.space.repair(Configuration(config.as_dict()))
        assert repaired["executor.instances"] < config["executor.instances"]

        drifting.set_step(step)
        got = drifting.run(tpch, config, 100.0, rng=0)
        assert got == degraded.run(tpch, repaired, 100.0, rng=0)
        # Had the inner simulator trusted the baseline repair, it would
        # have run more executors than the shrunken cluster holds.
        unrepaired = Configuration(config.as_dict())
        unrepaired._repaired_by = degraded.space._repair_key
        assert got != degraded.run(tpch, unrepaired, 100.0, rng=0)

    def test_a_repeated_configuration_is_repaired_and_planned_once(self, x86, tpch, monkeypatch):
        sim = SparkSQLSimulator(x86)
        config = sim.space.default().replace(**{"executor.memory": 999})  # not repaired
        calls = []
        repair = sim.space.repair
        monkeypatch.setattr(sim.space, "repair", lambda c: calls.append(c) or repair(c))
        first = sim.run(tpch, config, 100.0, rng=1)
        assert sim.run(tpch, config, 100.0, rng=1) == first
        assert len(calls) == 1
        # An equal configuration in a new object is repaired again.
        assert sim.run(tpch, config.replace(), 100.0, rng=1) == first
        assert len(calls) == 2


class TestStageMemo:
    """A run reuses the latest run's stage evaluation when the plan, the
    stage table and the datasize repeat; every run still equals a fresh
    simulator's, bit for bit."""

    @staticmethod
    def exact(metrics) -> str:
        from repro.sparksim import metrics_to_dict

        return _canonical(metrics_to_dict(metrics))

    def check(self, cluster, runs, noise=0.04):
        """Run ``(app, config, datasize, rng)`` in order on one simulator
        and each on a fresh one; return the shared simulator."""
        sim = SparkSQLSimulator(cluster, noise=noise)
        for app, config, datasize, rng in runs:
            got = sim.run(app, config, datasize, rng=rng)
            want = SparkSQLSimulator(cluster, noise=noise).run(app, config, datasize, rng=rng)
            assert self.exact(got) == self.exact(want)
        return sim

    def counting(self, sim, monkeypatch) -> list:
        calls = []
        evaluate = sim._evaluate_stages
        monkeypatch.setattr(sim, "_evaluate_stages", lambda *a: calls.append(1) or evaluate(*a))
        return calls

    def test_a_repeated_candidate_evaluates_its_stages_once(self, x86, tpch, monkeypatch):
        sim = SparkSQLSimulator(x86)
        calls = self.counting(sim, monkeypatch)
        config = sim.space.default()
        runs = [sim.run(tpch, config, 100.0, rng=(5, i)) for i in range(6)]
        assert len(calls) == 1
        fresh = [SparkSQLSimulator(x86).run(tpch, config, 100.0, rng=(5, i)) for i in range(6)]
        assert [self.exact(m) for m in runs] == [self.exact(m) for m in fresh]
        assert len({m.duration_s for m in runs}) == 6  # each run draws its own noise

    def test_alternating_configurations(self, x86, tpch):
        space = SparkSQLSimulator(x86).space
        a, b = space.default(), space.sample(np.random.default_rng(3))
        runs = [(tpch, config, 100.0, i) for i in range(3) for config in (a, b, b)]
        self.check(x86, runs)

    def test_a_changed_datasize_evaluates_again(self, x86, tpch, monkeypatch):
        sim = SparkSQLSimulator(x86)
        calls = self.counting(sim, monkeypatch)
        config = sim.space.default()
        for i, datasize in enumerate((100.0, 100.0, 300.0, 300.0, 100.0)):
            got = sim.run(tpch, config, datasize, rng=i)
            want = SparkSQLSimulator(x86).run(tpch, config, datasize, rng=i)
            assert self.exact(got) == self.exact(want)
        assert len(calls) == 3

    def test_skew_shifted_copy_with_equal_names(self, x86, tpch):
        from repro.sparksim.scenarios import shift_application_skew

        shifted = shift_application_skew(tpch, 0.4)
        config = SparkSQLSimulator(x86).space.default()
        self.check(x86, [(tpch, config, 100.0, 1), (shifted, config, 100.0, 1), (tpch, config, 100.0, 1)])

    def test_a_caller_generator_is_left_as_a_fresh_simulator_leaves_it(self, x86, tpch):
        sim = SparkSQLSimulator(x86)
        config = sim.space.default()
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            got = sim.run(tpch, config, 100.0, rng=ours)
            want = SparkSQLSimulator(x86).run(tpch, config, 100.0, rng=theirs)
            assert self.exact(got) == self.exact(want)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_noise_free_runs(self, x86, tpch):
        config = SparkSQLSimulator(x86).space.default()
        sim = self.check(x86, [(tpch, config, 100.0, i) for i in range(3)], noise=0.0)
        assert sim.run(tpch, config, 100.0) == sim.run(tpch, config, 100.0)

    def test_pickled_simulator_ships_no_memo(self, x86, tpch):
        import pickle

        sim = SparkSQLSimulator(x86)
        config = sim.space.default()
        before = sim.run(tpch, config, 100.0, rng=2)
        assert sim._last_stages is not None
        copy = pickle.loads(pickle.dumps(sim))
        assert copy._last_stages is None
        assert self.exact(copy.run(tpch, config, 100.0, rng=2)) == self.exact(before)
