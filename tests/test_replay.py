"""Replay subsystem: trace capture, CRN evaluation, racing, and wiring.

Covers the contracts the replay-based candidate evaluator depends on:

* the ring buffer keeps the newest steps with never-recycled indices;
* a restart rebuilds a tenant's trace from the run table's production
  rows, equal to the live trace field for field, and ignores the
  ``trace.jsonl`` older versions wrote;
* a recorded RNG key replays the production measurement bit for bit;
* CRN paired deltas have no more variance than independent draws on
  every scenario generator;
* the successive-halving race never eliminates the true best
  configuration on noise-free replays;
* ``replay_eval="off"`` reproduces the historic trajectory exactly.
"""

import functools
import os

import numpy as np
import pytest

import repro.core.locat as locat_module
import repro.replay.evaluator as evaluator_module
from repro.core import LOCAT
from repro.core.online import OnlineController
from repro.replay import (
    DEFAULT_TRACE_CAPACITY,
    MIN_TRACE_STEPS,
    REPLAY_EVAL_MODES,
    ReplayTrace,
    TraceStep,
)
from repro.replay.evaluator import ReplayEvaluator
from repro.replay.racing import RaceOutcome, race
from repro.service.registry import TuningRegistry
from repro.service.store import HistoryStore
from repro.sparksim import SparkSQLSimulator, get_application
from repro.sparksim.cluster import get_cluster
from repro.sparksim.scenarios import (
    SCENARIO_BUILDERS,
    ScenarioStream,
    build_scenario,
)
from repro.transfer import WorkloadFingerprint
from repro.transfer.donor import stored_fingerprint

TINY_TUNER = {
    "n_qcsa": 10, "n_iicp": 8, "max_iterations": 6,
    "min_iterations": 3, "n_mcmc": 0,
}


def make_trace(n: int = 5, capacity: int = DEFAULT_TRACE_CAPACITY) -> ReplayTrace:
    trace = ReplayTrace(capacity=capacity)
    for i in range(n):
        trace.record(datasize_gb=50.0 + i, duration_s=100.0 + i)
    return trace


# ----------------------------------------------------------------------
# Trace steps and the ring buffer
# ----------------------------------------------------------------------
class TestTrace:
    def test_step_validation(self):
        with pytest.raises(ValueError):
            TraceStep(index=-1, datasize_gb=50.0, rng_key=(1,))
        with pytest.raises(ValueError):
            TraceStep(index=0, datasize_gb=0.0, rng_key=(1,))
        with pytest.raises(ValueError):
            TraceStep(index=0, datasize_gb=50.0, rng_key=())

    def test_ring_buffer_drops_oldest(self):
        trace = make_trace(n=10, capacity=4)
        assert trace.n_steps == 4
        assert [s.index for s in trace.steps] == [6, 7, 8, 9]
        assert trace.next_index == 10

    def test_record_derives_unique_rng_keys(self):
        trace = make_trace(n=6)
        keys = {s.rng_key for s in trace.steps}
        assert len(keys) == 6

    def test_first_index_continues_the_numbering(self):
        trace = make_trace(n=5)
        again = ReplayTrace(capacity=trace.capacity, first_index=2)
        for i in range(2, 5):
            again.record(datasize_gb=50.0 + i, duration_s=100.0 + i)
        assert again.steps == trace.steps[2:]
        assert again.next_index == 5


# ----------------------------------------------------------------------
# The trace a restart rebuilds from the run table
# ----------------------------------------------------------------------
def race_registry(store) -> TuningRegistry:
    registry = TuningRegistry(store, rehydrate=False, replay_eval="race")
    registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
    registry.observe("app", 100.0)
    return registry


def restarted_trace(store) -> tuple[TraceStep, ...]:
    restarted = TuningRegistry(store, replay_eval="race")
    assert restarted.quarantined == {}
    return restarted.get("app").locat.replay_trace.steps


class TestTraceStore:
    def test_round_trip(self, tmp_path):
        store = HistoryStore(tmp_path)
        registry = race_registry(store)
        for i in range(4):
            registry.observe("app", 100.0, duration_s=60.0 + i)
        live = registry.get("app").locat.replay_trace
        assert [s.index for s in live.steps] == [0, 1, 2, 3]
        assert restarted_trace(store) == live.steps

    def test_append_extends(self, tmp_path):
        """Runs after a restart extend the rebuilt trace exactly as they
        would have extended the live one."""
        durations = (60.0, 61.0, 62.0)
        live = race_registry(HistoryStore(tmp_path / "live"))
        for duration in durations:
            live.observe("app", 100.0, duration_s=duration)
        store = HistoryStore(tmp_path / "restarted")
        before = race_registry(store)
        before.observe("app", 100.0, duration_s=durations[0])
        after = TuningRegistry(store, replay_eval="race")
        for duration in durations[1:]:
            after.observe("app", 100.0, duration_s=duration)
        steps = live.get("app").locat.replay_trace.steps
        assert [s.index for s in steps] == [0, 1, 2]
        assert after.get("app").locat.replay_trace.steps == steps
        assert restarted_trace(store) == steps

    def test_missing_trace_is_empty(self, tmp_path):
        store = HistoryStore(tmp_path)
        race_registry(store)  # deployed, but no measured production run yet
        assert restarted_trace(store) == ()

    def test_corrupt_line_raises_value_error(self, tmp_path):
        """A corrupt run-table row is never skipped: every later step
        would shift to another index and so to another RNG key."""
        store = HistoryStore(tmp_path)
        registry = race_registry(store)
        registry.observe("app", 100.0, duration_s=60.0)
        path = tmp_path / "app" / "runs.jsonl"
        path.write_bytes(path.read_bytes() + b"not json at all\n")
        with pytest.raises(ValueError):
            store.observations("app")
        assert "app" in TuningRegistry(store, replay_eval="race").quarantined

    def test_torn_tail_dropped(self, tmp_path):
        store = HistoryStore(tmp_path)
        registry = race_registry(store)
        for i in range(3):
            registry.observe("app", 100.0, duration_s=60.0 + i)
        path = tmp_path / "app" / "runs.jsonl"
        path.write_bytes(path.read_bytes() + b'{"config": {}, "datas')
        assert restarted_trace(store) == registry.get("app").locat.replay_trace.steps


# ----------------------------------------------------------------------
# Exact redraw: a recorded key replays the measurement bit for bit
# ----------------------------------------------------------------------
class TestExactRedraw:
    def test_scenario_measurement_replays_exactly(self, x86):
        app = get_application("aggregation")
        scenario = build_scenario("degradation", n_steps=8)
        trace = ReplayTrace()
        stream = ScenarioStream(scenario, app, x86, seed=42, trace=trace)
        config = SparkSQLSimulator(x86).space.default()
        measured = [stream.measure(step, config) for step in scenario.steps]
        assert trace.n_steps == len(scenario.steps)
        for step, run_step, duration in zip(
            trace.steps, scenario.steps, measured
        ):
            simulator, env_app = stream.environment(run_step)
            replayed = simulator.run(
                env_app, config, step.datasize_gb, rng=step.rng_key
            ).duration_s
            assert replayed == duration
            assert step.duration_s == duration

    def test_sequence_seed_matches_generator(self, x86, tpch):
        simulator = SparkSQLSimulator(x86)
        config = simulator.space.default()
        a = simulator.run(tpch, config, 100.0, rng=(7, 3)).duration_s
        b = simulator.run(
            tpch, config, 100.0, rng=np.random.default_rng((7, 3))
        ).duration_s
        assert a == b


# ----------------------------------------------------------------------
# CRN variance property, memoization, racing
# ----------------------------------------------------------------------
class TestEvaluator:
    def make_evaluator(self, x86, n_trace=6, n_replays=8, noise=0.04):
        app = get_application("aggregation")
        simulator = SparkSQLSimulator(x86, noise=noise)
        trace = ReplayTrace()
        for i in range(n_trace):
            trace.record(datasize_gb=100.0, duration_s=100.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator_module, "DEFAULT_N_REPLAYS", n_replays)
            return ReplayEvaluator(simulator, app, trace, seed=1), simulator

    def test_empty_trace_rejected(self, x86):
        app = get_application("aggregation")
        with pytest.raises(ValueError):
            ReplayEvaluator(SparkSQLSimulator(x86), app, ReplayTrace())

    def test_memoization_counters(self, x86):
        evaluator, simulator = self.make_evaluator(x86)
        config = simulator.space.default()
        first = evaluator.durations(config)
        misses = evaluator.cache_misses
        assert misses == evaluator.n_sim_runs
        second = evaluator.durations(config)
        assert second == first
        assert evaluator.cache_misses == misses
        assert evaluator.cache_hits >= len(evaluator.replays)

    def test_repeated_candidate_on_a_query_subset(self, x86, monkeypatch):
        """A candidate keys its replays once per call and runs one RQA
        object: same durations and hit/miss counts as a fresh rerun."""
        evaluator, simulator = self.make_evaluator(x86)
        app = evaluator.app
        queries = list(app.query_names[:2])
        config = simulator.space.default()
        want = [
            simulator.run(app.subset(queries), config, step.datasize_gb, rng=step.rng_key).duration_s
            for step in evaluator.replays
        ]
        distinct = len({(s.index, s.rng_key) for s in evaluator.replays})
        targets = []
        run = simulator.run
        monkeypatch.setattr(
            simulator, "run", lambda target, *a, **k: targets.append(target) or run(target, *a, **k)
        )
        for repeat in (1, 2):
            assert evaluator.durations(config, queries=queries) == want
            assert evaluator.cache_misses == distinct
            assert evaluator.cache_hits == repeat * len(evaluator.replays) - distinct
        assert len(targets) == distinct and all(t is targets[0] for t in targets)

    def test_one_stage_evaluation_for_all_slots(self, x86, monkeypatch):
        evaluator, simulator = self.make_evaluator(x86, n_trace=64, n_replays=16)
        assert len({s.rng_key for s in evaluator.replays}) == 16
        calls = []
        evaluate = simulator._evaluate_stages
        monkeypatch.setattr(simulator, "_evaluate_stages", lambda *a: calls.append(1) or evaluate(*a))
        config = simulator.space.default()
        got = evaluator.durations(config)
        assert len(calls) == 1 and evaluator.n_sim_runs == 16
        fresh = SparkSQLSimulator(x86, noise=0.04)
        assert got == [
            fresh.run(evaluator.app, config, s.datasize_gb, rng=s.rng_key).duration_s
            for s in evaluator.replays
        ]

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_crn_variance_never_worse_than_independent(self, name, x86):
        """Paired CRN deltas beat independent draws on every generator."""
        app = get_application("aggregation")
        scenario = build_scenario(name, n_steps=10)
        stream = ScenarioStream(scenario, app, x86, seed=5)
        space = SparkSQLSimulator(x86).space
        baseline = space.default()
        challenger = baseline.replace(**{"sql.shuffle.partitions": 800})
        crn, independent = [], []
        for step in scenario.steps:
            simulator, env_app = stream.environment(step)
            key = (stream.seed, step.index)
            b = simulator.run(env_app, baseline, step.datasize_gb, rng=key)
            c = simulator.run(env_app, challenger, step.datasize_gb, rng=key)
            crn.append(np.log(b.duration_s) - np.log(c.duration_s))
            b = simulator.run(
                env_app, baseline, step.datasize_gb, rng=(9, step.index, 0)
            )
            c = simulator.run(
                env_app, challenger, step.datasize_gb, rng=(9, step.index, 1)
            )
            independent.append(np.log(b.duration_s) - np.log(c.duration_s))
        assert np.var(crn) <= np.var(independent)

    def test_race_never_eliminates_true_best_noise_free(self, x86):
        """On deterministic replays the fastest config always wins."""
        evaluator, simulator = self.make_evaluator(x86, noise=0.0)
        space = simulator.space
        default = space.default()
        candidates = [
            default,
            default.replace(**{"sql.shuffle.partitions": 800}),
            default.replace(**{"executor.memory": 2}),
            default.replace(**{"sql.shuffle.partitions": 50}),
        ]
        outcome = race(evaluator, candidates, seed=3)
        assert isinstance(outcome, RaceOutcome)
        means = [evaluator.mean_duration(c) for c in candidates]
        assert means[outcome.winner] == min(means)
        assert outcome.winner not in outcome.eliminated

    def test_race_single_candidate_short_circuits(self, x86):
        evaluator, simulator = self.make_evaluator(x86)
        before = evaluator.n_sim_runs
        outcome = race(evaluator, [simulator.space.default()])
        assert outcome.winner == 0
        assert evaluator.n_sim_runs == before


# ----------------------------------------------------------------------
# LOCAT integration: off is bit-for-bit, race cuts the live budget
# ----------------------------------------------------------------------
class TestLocatReplay:
    def test_mode_validation(self, x86, join_app):
        simulator = SparkSQLSimulator(x86)
        with pytest.raises(ValueError):
            LOCAT(simulator, join_app, replay_eval="sometimes")
        assert REPLAY_EVAL_MODES == ("off", "race")

    def test_off_mode_bit_for_bit(self, x86, join_app):
        """``replay_eval="off"`` must not perturb the historic trajectory."""
        plain = LOCAT(SparkSQLSimulator(x86), join_app, rng=7, **TINY_TUNER)
        off = LOCAT(
            SparkSQLSimulator(x86), join_app, rng=7, replay_eval="off",
            **TINY_TUNER,
        )
        r_plain = plain.tune(100.0)
        r_off = off.tune(100.0)
        assert r_off.best_config == r_plain.best_config
        assert r_off.best_duration_s == r_plain.best_duration_s
        assert r_off.evaluations == r_plain.evaluations
        assert off.observation_history == plain.observation_history
        assert "replay" not in (r_off.details or {})

    def test_record_production_run_off_is_noop(self, x86, join_app):
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=7, **TINY_TUNER)
        locat.record_production_run(100.0, 50.0)
        assert locat.replay_trace.n_steps == 0

    def drift_adapt(self, x86, join_app, mode):
        locat = LOCAT(
            SparkSQLSimulator(x86), join_app, rng=7, replay_eval=mode,
            **TINY_TUNER,
        )
        locat.tune(100.0)
        for i in range(4):
            locat.record_production_run(100.0, 80.0 + i)
        before = locat.objective.n_evaluations
        result = locat.adapt(100.0)
        return result, locat.objective.n_evaluations - before

    def test_race_mode_single_digit_live_evals(self, x86, join_app):
        result, live = self.drift_adapt(x86, join_app, "race")
        assert live <= 9
        replay = result.details["replay"]
        assert replay["enabled"]
        assert replay["race"] is not None
        assert replay["sim_runs"] > 0

    def test_race_without_trace_falls_back(self, x86, join_app):
        locat = LOCAT(
            SparkSQLSimulator(x86), join_app, rng=7, replay_eval="race",
            **TINY_TUNER,
        )
        locat.tune(100.0)
        assert locat.replay_trace.n_steps < MIN_TRACE_STEPS
        result = locat.adapt(100.0)
        assert result.details["replay"]["enabled"] is False

    def test_replay_shadow_pairs(self, x86, join_app):
        locat = LOCAT(
            SparkSQLSimulator(x86, noise=0.0), join_app, rng=7,
            replay_eval="race", **TINY_TUNER,
        )
        space = locat.simulator.space
        for i in range(MIN_TRACE_STEPS):
            locat.record_production_run(100.0, 90.0)
        incumbent = space.default()
        challenger = incumbent.replace(**{"sql.shuffle.partitions": 800})
        pairs = locat.replay_shadow_pairs(incumbent, challenger)
        assert len(pairs) == MIN_TRACE_STEPS
        for datasize_gb, inc_s, chal_s in pairs:
            assert datasize_gb == 100.0
            assert inc_s > 0 and chal_s > 0

    def test_replay_shadow_pairs_match_alternating_runs(self, x86, join_app):
        """Running one arm's steps before the other's gives the pairs
        that running the arms step by step gives."""
        locat = LOCAT(
            SparkSQLSimulator(x86), join_app, rng=7, replay_eval="race", **TINY_TUNER,
        )
        for i, datasize in enumerate((100.0, 100.0, 200.0, 100.0, 300.0, 300.0)):
            locat.record_production_run(datasize, 90.0 + i)
        space = locat.simulator.space
        incumbent = space.default()
        challenger = incumbent.replace(**{"sql.shuffle.partitions": 800})
        alternating = SparkSQLSimulator(x86)
        want = [
            (
                step.datasize_gb,
                alternating.run(join_app, incumbent, step.datasize_gb, rng=step.rng_key).duration_s,
                alternating.run(join_app, challenger, step.datasize_gb, rng=step.rng_key).duration_s,
            )
            for step in locat.replay_trace.steps[-4:]
        ]
        assert locat.replay_shadow_pairs(incumbent, challenger, max_pairs=4) == want


# ----------------------------------------------------------------------
# Controller: trace capture on observe, shadow prefill from replays
# ----------------------------------------------------------------------
class TestControllerReplay:
    def make_controller(self, x86, noise=0.0, **controller_kwargs):
        locat = LOCAT(
            SparkSQLSimulator(x86, noise=noise), get_application("join"),
            rng=7, replay_eval="race", **TINY_TUNER,
        )
        controller = OnlineController(locat, **controller_kwargs)
        return controller, locat

    def test_observe_captures_trace(self, x86):
        controller, locat = self.make_controller(x86)
        controller.observe(100.0)
        assert locat.replay_trace.n_steps == 0  # no duration, no record
        controller.observe(100.0, duration_s=55.0)
        controller.observe(100.0, duration_s=56.0)
        assert locat.replay_trace.n_steps == 2
        assert locat.replay_trace.steps[-1].duration_s == 56.0

    def test_capture_disabled_when_off(self, x86):
        locat = LOCAT(
            SparkSQLSimulator(x86), get_application("join"), rng=7,
            **TINY_TUNER,
        )
        controller = OnlineController(locat)
        controller.observe(100.0)
        controller.observe(100.0, duration_s=55.0)
        assert locat.replay_trace.n_steps == 0

    def test_shadow_prefill_resolves_without_extra_steps(self, x86):
        """Replay pairs alone reach a shadow verdict at the retune step."""
        controller, locat = self.make_controller(x86, shadow_runs=3)
        first = controller.observe(100.0)  # initial deployment
        normal_s = first.result.best_duration_s
        decision = None
        for duration in (normal_s, normal_s, 10.0 * normal_s):
            decision = controller.observe(100.0, duration_s=duration)
        assert decision.retuned
        assert decision.promotion is not None
        # The trace held >= 3 production runs, so the gate saw a full
        # min_runs batch of paired replays at the retune itself and
        # reached a terminal verdict with zero shadow delay.
        assert decision.promotion["phase"] in ("promoted", "rejected")
        assert decision.promotion["replay_pairs"] >= 3
        assert not controller.shadow_active


# ----------------------------------------------------------------------
# Service: tenant keys, persistence, rehydration, corrupt trace
# ----------------------------------------------------------------------
class TestServiceReplay:
    def test_tenant_keys_validated_before_store_write(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        # Replay settings come from the service, never from a tenant.
        for tuner in ({"replay_eval": "race"}, {"replay_capacity": 16}, {"n_replays": 6}):
            with pytest.raises(ValueError, match="unknown tuner settings"):
                registry.register("app", benchmark="join", tuner=tuner)
            assert not registry.store.has_app("app")
        registry.register("app", benchmark="join", tuner=TINY_TUNER)
        assert registry.store.has_app("app")

    def test_default_replay_eval_applies(self, tmp_path):
        registry = TuningRegistry(
            HistoryStore(tmp_path), rehydrate=False, replay_eval="race"
        )
        session = registry.register("app", benchmark="join", tuner=TINY_TUNER)
        assert session.locat.replay_eval == "race"
        with pytest.raises(ValueError):
            TuningRegistry(
                HistoryStore(tmp_path), rehydrate=False,
                replay_eval="nope",
            )

    def test_trace_survives_restart(self, tmp_path, monkeypatch):
        """A ring that wrapped, across retunes, is rebuilt field for field."""
        # A 16-step ring wraps within the 50 runs below.
        monkeypatch.setattr(
            locat_module, "ReplayTrace", functools.partial(ReplayTrace, capacity=16)
        )
        store = HistoryStore(tmp_path)
        registry = race_registry(store)
        # Alternate two datasizes far apart in runs of ten: each jump
        # retunes, and the durations are the deployed config's own.
        for block in range(5):
            datasize = 100.0 if block % 2 == 0 else 300.0
            for i in range(10):
                registry.observe("app", datasize, duration_s=60.0 + block + 0.1 * i)
        session = registry.get("app")
        live = session.locat.replay_trace
        assert len(store.observations("app", source="production")) >= 40
        assert session.n_retunes >= 1
        assert live.n_steps == 16 and live.next_index >= 40
        status = session.status()["replay"]
        assert status == {
            "mode": "race", "trace_steps": 16, "trace_next_index": live.next_index,
        }

        restarted = TuningRegistry(store, replay_eval="race")
        again = restarted.get("app")
        assert again.locat.replay_trace.steps == live.steps
        assert again.status()["replay"] == status
        # New runs keep extending the rebuilt trace with fresh indices.
        restarted.observe("app", 100.0, duration_s=64.0)
        assert again.locat.replay_trace.steps[-1].index == live.next_index

    def test_race_observe_makes_one_fsync(self, tmp_path, monkeypatch):
        registry = race_registry(HistoryStore(tmp_path))
        registry.observe("app", 100.0, duration_s=60.0)
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        decision = registry.observe("app", 100.0, duration_s=61.0)
        assert not decision.retuned
        assert len(calls) == 1
        assert sorted(p.name for p in (tmp_path / "app").iterdir()) == [
            "app.json", "artifacts.json", "deployed.json", "runs.jsonl",
        ]

    def test_leftover_trace_and_fingerprint_files_are_ignored(self, tmp_path):
        """Files older versions wrote are never read: a garbage
        ``trace.jsonl`` or ``fingerprint.json`` changes nothing."""
        store = HistoryStore(tmp_path)
        registry = race_registry(store)
        for i in range(3):
            registry.observe("app", 100.0, duration_s=60.0 + i)
        clean = TuningRegistry(store, replay_eval="race").get("app")
        for name in ("trace.jsonl", "fingerprint.json"):
            (tmp_path / "app" / name).write_bytes(b"garbage\n")

        restarted = TuningRegistry(store, replay_eval="race")
        assert restarted.quarantined == {}
        session = restarted.get("app")
        assert session.status() == clean.status()
        assert session.locat.replay_trace.steps == clean.locat.replay_trace.steps
        assert session.locat.replay_trace.n_steps == 3
        target = WorkloadFingerprint.from_application(get_application("join"), benchmark="join")
        assert stored_fingerprint(store, "app") == target.with_observations(
            *zip(*[(r.datasize_gb, r.duration_s)
                   for r in store.observations("app", source="tuning")])
        )

    def test_off_tenant_writes_no_trace(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        registry.observe("app", 100.0, duration_s=60.0)
        assert not (tmp_path / "app" / "trace.jsonl").exists()
        assert registry.get("app").status()["replay"]["mode"] == "off"
