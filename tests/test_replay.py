"""Replay subsystem: trace capture, CRN evaluation, racing, and wiring.

Covers the contracts the replay-based candidate evaluator depends on:

* trace steps and ring-buffer semantics survive a JSON round trip;
* the store persists and rehydrates ``trace.jsonl`` across restarts,
  degrading a corrupt trace to a warning (never a quarantine);
* a recorded RNG key replays the production measurement bit for bit;
* CRN paired deltas have no more variance than independent draws on
  every scenario generator;
* the successive-halving race never eliminates the true best
  configuration on noise-free replays;
* ``replay_eval="off"`` reproduces the historic trajectory exactly.
"""

import json

import numpy as np
import pytest

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
    def test_step_json_round_trip(self):
        step = TraceStep(
            index=3, datasize_gb=75.0, rng_key=(11, 3), duration_s=120.5,
            config_key="ab12cd34ef56", skew_shift=0.2, core_factor=0.8,
        )
        again = TraceStep.from_json(json.loads(json.dumps(step.to_json())))
        assert again == step
        assert again.rng_key == (11, 3)

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

    def test_from_steps_resumes_index(self):
        trace = make_trace(n=5)
        again = ReplayTrace.from_steps(trace.steps, capacity=trace.capacity)
        assert [s.to_json() for s in again.steps] == [
            s.to_json() for s in trace.steps
        ]
        again.record(datasize_gb=60.0, duration_s=90.0)
        assert again.steps[-1].index == 5


# ----------------------------------------------------------------------
# Store persistence: trace.jsonl
# ----------------------------------------------------------------------
class TestTraceStore:
    def register(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.register_app("app", {"benchmark": "join", "cluster": "x86"})
        return store

    def test_round_trip(self, tmp_path):
        store = self.register(tmp_path)
        steps = make_trace(n=4).steps
        store.append_trace("app", steps)
        assert [s.to_json() for s in store.load_trace("app")] == [
            s.to_json() for s in steps
        ]

    def test_append_extends(self, tmp_path):
        store = self.register(tmp_path)
        trace = make_trace(n=6)
        store.append_trace("app", trace.steps[:3])
        store.append_trace("app", trace.steps[3:])
        assert len(store.load_trace("app")) == 6

    def test_missing_trace_is_empty(self, tmp_path):
        store = self.register(tmp_path)
        assert store.load_trace("app") == []

    def test_torn_tail_dropped(self, tmp_path):
        store = self.register(tmp_path)
        store.append_trace("app", make_trace(n=3).steps)
        path = tmp_path / "app" / "trace.jsonl"
        path.write_bytes(path.read_bytes() + b'{"index": 99, "datas')
        assert len(store.load_trace("app")) == 3

    def test_corrupt_line_raises_value_error(self, tmp_path):
        store = self.register(tmp_path)
        store.append_trace("app", make_trace(n=2).steps)
        path = tmp_path / "app" / "trace.jsonl"
        path.write_bytes(path.read_bytes() + b"not json at all\n")
        with pytest.raises(ValueError):
            store.load_trace("app")


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
        return ReplayEvaluator(
            simulator, app, trace, n_replays=n_replays, seed=1
        ), simulator

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
        with pytest.raises(ValueError):
            LOCAT(simulator, join_app, n_replays=0)
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


# ----------------------------------------------------------------------
# Controller: trace capture on observe, shadow prefill from replays
# ----------------------------------------------------------------------
class TestControllerReplay:
    def make_controller(self, x86, noise=0.0, **controller_kwargs):
        locat = LOCAT(
            SparkSQLSimulator(x86, noise=noise), get_application("join"),
            rng=7, replay_eval="race", **TINY_TUNER,
        )
        controller = OnlineController(locat, datasize_margin=0.3, **controller_kwargs)
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
        controller, locat = self.make_controller(x86, shadow_runs=3, ab_alpha=0.05)
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
        for tuner in (
            {"replay_eval": "sometimes"},
            {"replay_eval": 1},
            {"replay_capacity": 0},
            {"n_replays": 0},
            {"n_replays": True},
        ):
            with pytest.raises(ValueError):
                registry.register("app", benchmark="join", tuner=tuner)
            assert not registry.store.has_app("app")
        registry.register(
            "app", benchmark="join",
            tuner={**TINY_TUNER, "replay_eval": "race", "n_replays": 6},
        )
        assert registry.store.has_app("app")

    def test_default_replay_eval_applies(self, tmp_path):
        registry = TuningRegistry(
            HistoryStore(tmp_path), rehydrate=False, default_replay_eval="race"
        )
        session = registry.register("app", benchmark="join", tuner=TINY_TUNER)
        assert session.locat.replay_eval == "race"
        explicit = registry.register(
            "app2", benchmark="join",
            tuner={**TINY_TUNER, "replay_eval": "off"},
        )
        assert explicit.locat.replay_eval == "off"
        with pytest.raises(ValueError):
            TuningRegistry(
                HistoryStore(tmp_path), rehydrate=False,
                default_replay_eval="nope",
            )

    def test_trace_survives_restart(self, tmp_path):
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(
            store, rehydrate=False, default_replay_eval="race"
        )
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        for i in range(4):
            registry.observe("app", 100.0, duration_s=60.0 + i)
        session = registry.get("app")
        status = session.status()["replay"]
        assert status["mode"] == "race"
        assert status["trace_steps"] == 4
        assert status["persisted_trace_index"] == 4
        assert (tmp_path / "app" / "trace.jsonl").exists()

        restarted = TuningRegistry(store, default_replay_eval="race")
        again = restarted.get("app")
        assert again.status()["replay"]["trace_steps"] == 4
        assert [s.to_json() for s in again.locat.replay_trace.steps] == [
            s.to_json() for s in session.locat.replay_trace.steps
        ]
        # New runs keep extending the persisted trace, not rewriting it.
        restarted.observe("app", 100.0, duration_s=64.0)
        assert again.status()["replay"]["trace_steps"] == 5
        assert len(store.load_trace("app")) == 5

    def test_corrupt_trace_warns_instead_of_quarantining(
        self, tmp_path, capsys
    ):
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(
            store, rehydrate=False, default_replay_eval="race"
        )
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        for i in range(3):
            registry.observe("app", 100.0, duration_s=60.0 + i)
        path = tmp_path / "app" / "trace.jsonl"
        path.write_bytes(b"garbage\n" + path.read_bytes())

        restarted = TuningRegistry(store, default_replay_eval="race")
        assert "app" not in restarted.quarantined
        session = restarted.get("app")
        assert session.status()["replay"]["trace_steps"] == 0
        assert "trace" in capsys.readouterr().err

    def test_off_tenant_writes_no_trace(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        registry.observe("app", 100.0, duration_s=60.0)
        assert not (tmp_path / "app" / "trace.jsonl").exists()
        assert registry.get("app").status()["replay"]["mode"] == "off"
