"""Tests for the parallel batch evaluation pipeline.

Determinism contract under test:

* ``n_workers=1`` goes through the exact serial code path — shared-RNG
  consumption identical to direct objective calls, never touching the
  batch machinery;
* ``n_workers>1`` is reproducible (same seed => same history) and
  independent of worker count for a fixed request list;
* a seeded bootstrap evaluates the same LHS design serial and parallel.
"""

import numpy as np
import pytest

from repro.core import LOCAT, EvalRequest, ParallelEvaluator, SparkSQLObjective
from repro.core.parallel import _execute_request
from repro.sparksim import SparkSQLSimulator


@pytest.fixture()
def objective(sim_x86, join_app):
    return SparkSQLObjective(sim_x86, join_app, rng=11)


def sample_configs(space, n, seed=0):
    rng = np.random.default_rng(seed)
    return [space.sample(rng) for _ in range(n)]


class TestEvalRequest:
    def test_datasize_is_canonicalized(self, sim_x86, join_app):
        config = sim_x86.space.default()
        assert EvalRequest(config, 100).datasize_gb == EvalRequest(config, 100.0).datasize_gb
        assert EvalRequest(config, "100").datasize_gb == 100.0

    def test_queries_become_tuple(self, sim_x86, join_app):
        request = EvalRequest(sim_x86.space.default(), 50.0, ["q1", "q2"])
        assert request.queries == ("q1", "q2")

    def test_rejects_bad_datasize(self, sim_x86):
        with pytest.raises(ValueError):
            EvalRequest(sim_x86.space.default(), -1.0)

    def test_rejects_sub_resolution_datasize(self, sim_x86):
        # A tiny positive value would round to a degenerate 0.0 key.
        with pytest.raises(ValueError, match="positive"):
            EvalRequest(sim_x86.space.default(), 4e-7)


class TestSerialEquivalence:
    def test_single_worker_matches_direct_objective_calls(self, x86, join_app):
        """n_workers=1 consumes the shared RNG exactly like serial code."""
        configs = sample_configs(SparkSQLSimulator(x86).space, 4, seed=3)

        direct = SparkSQLObjective(SparkSQLSimulator(x86), join_app, rng=7)
        for config in configs:
            direct.run(config, 100.0)
        direct.run_subset(configs[0], 100.0, [join_app.query_names[0]])

        wrapped = SparkSQLObjective(SparkSQLSimulator(x86), join_app, rng=7)
        evaluator = ParallelEvaluator(wrapped, n_workers=1)
        evaluator.run_batch([EvalRequest(c, 100.0) for c in configs])
        evaluator.run_batch([EvalRequest(configs[0], 100.0, [join_app.query_names[0]])])

        assert [t.duration_s for t in direct.history] == [t.duration_s for t in wrapped.history]
        assert direct.overhead_s == wrapped.overhead_s

    def test_single_worker_never_spawns_child_rngs(self, objective, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("serial evaluator must not spawn child RNGs")

        monkeypatch.setattr("repro.core.parallel.spawn", forbidden)
        evaluator = ParallelEvaluator(objective, n_workers=1)
        configs = sample_configs(objective.space, 3)
        trials = evaluator.run_batch([EvalRequest(c, 80.0) for c in configs])
        assert len(trials) == 3


class TestParallelDeterminism:
    def test_history_is_append_ordered_and_reproducible(self, x86, join_app):
        def run(n_workers):
            objective = SparkSQLObjective(SparkSQLSimulator(x86), join_app, rng=13)
            evaluator = ParallelEvaluator(objective, n_workers=n_workers)
            configs = sample_configs(objective.space, 6, seed=5)
            trials = evaluator.run_batch([EvalRequest(c, 120.0) for c in configs])
            # run_batch returns (and records) in request order.
            assert [t.config for t in objective.history] == configs
            assert objective.history == trials
            return [t.duration_s for t in trials]

        assert run(4) == run(4)  # same seed => same history
        assert run(2) == run(4)  # worker count changes wall-clock only

    def test_overhead_matches_sum_of_durations(self, objective):
        evaluator = ParallelEvaluator(objective, n_workers=3)
        configs = sample_configs(objective.space, 5)
        trials = evaluator.run_batch([EvalRequest(c, 60.0) for c in configs])
        assert objective.overhead_s == pytest.approx(sum(t.duration_s for t in trials))

    def test_failed_batch_records_nothing(self, objective, monkeypatch):
        configs = sample_configs(objective.space, 4)

        real_execute = _execute_request
        calls = {"n": 0}

        def flaky(simulator, app, request, rng):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated evaluation failure")
            return real_execute(simulator, app, request, rng)

        monkeypatch.setattr("repro.core.parallel._execute_request", flaky)
        evaluator = ParallelEvaluator(objective, n_workers=2)
        with pytest.raises(RuntimeError, match="simulated evaluation failure"):
            evaluator.run_batch([EvalRequest(c, 60.0) for c in configs])
        assert objective.history == []
        assert objective.overhead_s == 0.0

    def test_validation(self, objective):
        with pytest.raises(ValueError):
            ParallelEvaluator(objective, n_workers=0)


def quiet_locat(x86, app, n_workers, seed=5):
    simulator = SparkSQLSimulator(x86, noise=0.0)
    return LOCAT(
        simulator, app, n_qcsa=10, n_iicp=8, max_iterations=6, min_iterations=3,
        n_mcmc=0, rng=seed, n_workers=n_workers,
    )


class TestLocatParallel:
    def test_serial_session_avoids_batch_machinery(self, x86, join_app, monkeypatch):
        """A n_workers=1 session must stay on the pre-pipeline serial path."""
        locat = quiet_locat(x86, join_app, n_workers=1)

        def forbidden(*args, **kwargs):
            raise AssertionError("n_workers=1 must never use concurrent batches")

        monkeypatch.setattr("repro.core.parallel.spawn", forbidden)
        result = locat.tune(150.0)
        assert result.evaluations >= locat.n_qcsa

    def test_seeded_serial_history_reproducible(self, x86, join_app):
        a = quiet_locat(x86, join_app, n_workers=1).tune(150.0)
        b = quiet_locat(x86, join_app, n_workers=1).tune(150.0)
        assert a.best_config == b.best_config
        assert a.best_duration_s == b.best_duration_s
        assert a.evaluations == b.evaluations

    def test_parallel_bootstrap_runs_same_lhs_design(self, x86, join_app):
        """Serial and 4-worker bootstraps evaluate the identical LHS batch."""
        serial = quiet_locat(x86, join_app, n_workers=1)
        parallel = quiet_locat(x86, join_app, n_workers=4)
        serial.bootstrap(150.0)
        parallel.bootstrap(150.0)
        # The 6-point initial design is proposed before any evaluation, so
        # both sessions run the same configurations; with a noise-free
        # simulator the durations agree exactly as well.
        n_lhs = 6
        serial_lhs = [(t.config, t.duration_s) for t in serial.objective.history[:n_lhs]]
        parallel_lhs = [(t.config, t.duration_s) for t in parallel.objective.history[:n_lhs]]
        assert serial_lhs == parallel_lhs

    def test_parallel_session_reproducible_and_valid(self, x86, join_app):
        a = quiet_locat(x86, join_app, n_workers=4).tune(150.0)
        b = quiet_locat(x86, join_app, n_workers=4).tune(150.0)
        assert a.best_config == b.best_config
        assert a.best_duration_s == b.best_duration_s
        assert SparkSQLSimulator(x86).space.is_valid(a.best_config)

    def test_parallel_beats_default_config(self, x86, join_app):
        locat = quiet_locat(x86, join_app, n_workers=4)
        result = locat.tune(200.0)
        simulator = SparkSQLSimulator(x86, noise=0.0)
        default_time = simulator.run(
            join_app, simulator.space.default(), 200.0, rng=1
        ).duration_s
        assert result.best_duration_s < default_time
