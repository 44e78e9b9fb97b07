"""Tests for the baseline tuners (shrunk budgets)."""

import pytest

from repro.baselines import DAC, GBORL, QTune, RandomSearch, Tuneful


def tune_small(cls, simulator, app, ds=200.0, **kwargs):
    small = {
        Tuneful: dict(oat_levels=2, n_significant=5, bo_iterations=6),
        DAC: dict(n_training=15, n_validation=2, ga_generations=5, ga_population=12),
        GBORL: dict(bo_iterations=8, rl_episodes=4),
        QTune: dict(n_episodes=12, batch_size=4),
        RandomSearch: dict(n_samples=10),
    }[cls]
    small.update(kwargs)
    return cls(simulator, app, rng=3, **small).tune(ds)


ALL = [Tuneful, DAC, GBORL, QTune, RandomSearch]


class TestCommonContract:
    @pytest.mark.parametrize("cls", ALL)
    def test_returns_valid_result(self, cls, sim_x86, join_app):
        result = tune_small(cls, sim_x86, join_app)
        assert result.tuner == cls.NAME
        assert result.best_duration_s > 0
        assert result.overhead_s > 0
        assert result.evaluations > 0
        assert sim_x86.space.is_valid(result.best_config)

    @pytest.mark.parametrize("cls", ALL)
    def test_beats_default(self, cls, sim_x86, join_app):
        result = tune_small(cls, sim_x86, join_app, ds=300.0)
        default_time = sim_x86.run(join_app, sim_x86.space.default(), 300.0, rng=1).duration_s
        assert result.best_duration_s < default_time

    @pytest.mark.parametrize("cls", [Tuneful, GBORL])
    def test_bo_baselines_search_the_baseline_pool(self, cls, sim_x86, join_app, monkeypatch):
        # The pool sweep ran LOCAT alone; the baselines keep their pool.
        import repro.core.tuner as tuner_module
        from repro.bo.optimize import BASELINE_POOL

        pools = []
        maximize = tuner_module.maximize_acquisition

        def recording(score, dim, pool, **kwargs):
            pools.append(pool)
            return maximize(score, dim, pool, **kwargs)

        monkeypatch.setattr(tuner_module, "maximize_acquisition", recording)
        tune_small(cls, sim_x86, join_app)
        assert pools and set(pools) == {BASELINE_POOL}

    def test_overhead_equals_sum_of_runs(self, sim_x86, join_app):
        tuner = RandomSearch(sim_x86, join_app, rng=0, n_samples=5)
        result = tuner.tune(100.0)
        assert result.overhead_s == pytest.approx(
            sum(t.duration_s for t in tuner.objective.history)
        )


class TestGraftingHooks:
    def test_rqa_hook_runs_subset(self, sim_x86, tpch):
        result = tune_small(RandomSearch, sim_x86, tpch, rqa_queries=["Q01", "Q09"])
        reduced = [t for t in RandomSearch(sim_x86, tpch).objective.history]
        assert result.best_duration_s > 0  # validated on the full app

    def test_rqa_hook_cuts_overhead(self, x86, tpch):
        from repro.sparksim import SparkSQLSimulator

        full = tune_small(RandomSearch, SparkSQLSimulator(x86), tpch)
        rqa = tune_small(
            RandomSearch, SparkSQLSimulator(x86), tpch, rqa_queries=["Q01", "Q02"]
        )
        assert rqa.overhead_s < full.overhead_s

    def test_subspace_hook_freezes_other_params(self, sim_x86, join_app):
        subspace = ["sql.shuffle.partitions", "executor.memory"]
        tuner = RandomSearch(sim_x86, join_app, rng=1, n_samples=5, subspace=subspace)
        result = tuner.tune(100.0)
        defaults = sim_x86.space.default()
        # Every evaluated config keeps non-subspace params at defaults.
        for trial in tuner.objective.history[:-1]:  # last is validation
            assert trial.config["locality.wait"] == defaults["locality.wait"]

    def test_subspace_dim(self, sim_x86, join_app):
        tuner = RandomSearch(sim_x86, join_app, subspace=["executor.memory"])
        assert tuner.search_dim == 1
        assert tuner.sample_point().shape == (1,)


class TestTunefulSpecifics:
    def test_significance_analysis_finds_big_params(self, sim_x86, join_app):
        tuner = Tuneful(sim_x86, join_app, rng=2, oat_levels=3, n_significant=8)
        significant = tuner._significance_analysis(300.0)
        assert len(significant) == 8
        assert {"sql.shuffle.partitions", "executor.memory"} & set(significant)

    def test_oat_cost_scales_with_parameters(self, sim_x86, join_app):
        # The paper's critique: OAT runs grow linearly with dimension.
        tuner = Tuneful(sim_x86, join_app, rng=2, oat_levels=2, n_significant=3)
        tuner._significance_analysis(100.0)
        assert tuner.objective.n_evaluations == 2 * 38


class TestDACSpecifics:
    def test_ga_candidates_within_cube(self, sim_x86, join_app):
        import numpy as np

        from repro.ml.gbrt import GradientBoostedRegressionTrees

        tuner = DAC(sim_x86, join_app, rng=4, n_training=12, ga_generations=3, ga_population=8,
                    n_validation=2)
        model = GradientBoostedRegressionTrees(n_estimators=5, rng=0)
        rng = np.random.default_rng(0)
        model.fit(rng.random((12, tuner.search_dim)), rng.random(12))
        candidates = tuner._genetic_search(model)
        assert candidates.shape == (2, tuner.search_dim)
        assert candidates.min() >= 0 and candidates.max() <= 1


class TestGBORLSpecifics:
    def test_memory_seeds_are_valid_points(self, sim_x86, join_app):
        tuner = GBORL(sim_x86, join_app)
        for seed in tuner._memory_model_seeds():
            assert seed.shape == (38,)
            assert seed.min() >= 0 and seed.max() <= 1


class TestQTuneSpecifics:
    def test_featurization(self, tpcds):
        from repro.baselines.qtune import featurize_application

        features = featurize_application(tpcds, 512.0)
        assert features.shape == (6,)
        assert features[0] + features[1] + features[2] == pytest.approx(1.0)
        assert features[5] == pytest.approx(0.5)
