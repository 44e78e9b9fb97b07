"""Tests for the end-to-end LOCAT orchestrator.

Budgets are shrunk so each test runs in a couple of seconds; the
full-scale behaviour is exercised by the benchmarks.
"""

import hashlib

import numpy as np
import pytest

from repro.core import LOCAT
from repro.sparksim import SparkSQLSimulator
from repro.sparksim.configspace import Configuration
from repro.sparksim.serialize import config_to_dict


def small_locat(simulator, app, **overrides):
    defaults = dict(n_qcsa=12, n_iicp=10, max_iterations=8, min_iterations=4, n_mcmc=0, rng=5)
    defaults.update(overrides)
    return LOCAT(simulator, app, **defaults)


class TestPipeline:
    def test_tune_returns_valid_result(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        result = locat.tune(200.0)
        assert result.tuner == "LOCAT"
        assert result.best_duration_s > 0
        assert result.overhead_s > 0
        assert result.evaluations >= locat.n_qcsa
        assert sim_x86.space.is_valid(result.best_config)

    def test_beats_default_config(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        result = locat.tune(300.0)
        default_time = sim_x86.run(join_app, sim_x86.space.default(), 300.0, rng=9).duration_s
        assert result.best_duration_s < default_time

    def test_bootstrap_happens_once(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        first = locat.tune(100.0)
        second = locat.tune(300.0)
        # The adaptation session skips the bootstrap, so it is cheaper in
        # evaluations.
        assert second.evaluations < first.evaluations

    def test_qcsa_reduces_tpch(self, sim_x86, tpch):
        locat = small_locat(sim_x86, tpch)
        locat.bootstrap(200.0)
        assert 1 <= len(locat.csq) < 22

    def test_single_query_app_keeps_its_query(self, sim_x86, scan_app):
        locat = small_locat(sim_x86, scan_app)
        locat.bootstrap(100.0)
        assert locat.csq == ["scan"]

    def test_details_populated(self, sim_x86, join_app):
        result = small_locat(sim_x86, join_app).tune(200.0)
        assert "iicp_selected" in result.details
        assert result.details["n_latent_dims"] >= 1
        assert isinstance(result.details["csq"], list)

    def test_reproducible_with_seed(self, x86, join_app):
        a = small_locat(SparkSQLSimulator(x86), join_app, rng=7).tune(200.0)
        b = small_locat(SparkSQLSimulator(x86), join_app, rng=7).tune(200.0)
        assert a.best_duration_s == pytest.approx(b.best_duration_s)
        assert a.best_config == b.best_config


class TestAblations:
    def test_all_parameter_mode(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app, use_iicp=False)
        result = locat.tune(200.0)
        assert result.details["n_latent_dims"] == 38
        assert len(result.details["iicp_selected"]) == 38

    def test_no_dagp_ignores_other_datasizes(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app, use_dagp=False)
        locat.tune(100.0)
        result = locat.tune(400.0)
        assert result.best_duration_s > 0  # still works, just without transfer


class TestAdaptation:
    def test_adaptation_no_worse_than_reuse(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app, rng=3)
        r100 = locat.tune(100.0)
        r500 = locat.tune(500.0)
        reused = np.mean([
            sim_x86.run(join_app, r100.best_config, 500.0, rng=i).duration_s for i in range(3)
        ])
        # The carried incumbent guarantees LOCAT's adapted config is at
        # least competitive with reusing the 100 GB config (noise margin).
        assert r500.best_duration_s <= reused * 1.15

    def test_observations_accumulate(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        locat.tune(100.0)
        n_after_first = len(locat._observations)
        locat.tune(300.0)
        assert len(locat._observations) > n_after_first


class TestPrediction:
    def test_predict_before_bootstrap_is_none(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        config = sim_x86.space.default()
        assert locat.predict_log_duration(config, 100.0) is None

    def test_predict_matches_observed_scale(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        result = locat.tune(100.0)
        pred = locat.predict_log_duration(result.best_config, 100.0)
        assert pred is not None
        mean, std = pred
        assert std >= 0
        # The posterior median of the best config's RQA duration lands in
        # the same ballpark as its observed RQA durations.
        observed = [
            dur for config, ds, dur in locat.observation_history
            if ds == 100.0 and config == result.best_config
        ]
        assert observed
        assert np.exp(mean) == pytest.approx(min(observed), rel=0.5)

    def test_predictor_extends_incrementally(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        locat.tune(100.0)
        config = sim_x86.space.default()
        locat.predict_log_duration(config, 100.0)
        predictor = locat._predictor
        n = predictor.n_observations
        # New observations extend the cached model instead of refitting.
        trial = locat.objective.run_subset(config, 100.0, locat.csq)
        from repro.core.locat import _Observation
        locat._observations.append(_Observation(config, 100.0, trial.duration_s))
        locat.predict_log_duration(config, 100.0)
        assert locat._predictor is predictor
        assert predictor.n_observations == n + 1

    def test_predictions_transfer_across_datasizes(self, sim_x86, join_app):
        """The DAGP predicts at sizes never tuned — the capability the
        nearest-run heuristic approximated with linear scaling."""
        locat = small_locat(sim_x86, join_app)
        result = locat.tune(100.0)
        small = locat.predict_log_duration(result.best_config, 100.0)
        large = locat.predict_log_duration(result.best_config, 400.0)
        assert large is not None
        assert large[0] > small[0]  # more data, longer expected duration


class TestPartialSessions:
    def test_adapt_without_bootstrap_falls_back_to_tune(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        result = locat.adapt(100.0)
        assert result.details["partial"] is False  # it ran the full session
        assert locat.is_bootstrapped

    def test_adapt_is_cheaper_than_a_cold_session(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        cold = locat.tune(100.0)
        partial = locat.adapt(100.0)
        assert partial.details["partial"] is True
        assert partial.evaluations < cold.evaluations
        assert partial.best_duration_s > 0
        assert sim_x86.space.is_valid(partial.best_config)

    def test_adapt_budget_override_and_validation(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        locat.tune(100.0)
        tight = locat.adapt(100.0, max_iterations=2)
        # 2 BO evaluations + the resource-parameter polish sweep + the
        # candidate/validation runs: well under half a cold session.
        assert tight.evaluations <= 20

    def test_adapt_re_measures_the_incumbent(self, sim_x86, join_app):
        """A partial session at an already-seen datasize must give the
        previous incumbent a fresh measurement, so the session can never
        deploy something worse than what is already running (as measured
        in the current environment)."""
        locat = small_locat(sim_x86, join_app)
        cold = locat.tune(100.0)
        n_before = len(locat._observations)
        locat.adapt(100.0)
        fresh = locat._observations[n_before:]
        stale_best = min(
            (o for o in locat._observations[:n_before] if o.datasize_gb == 100.0),
            key=lambda o: o.rqa_duration_s,
        )
        assert any(o.config == stale_best.config for o in fresh), (
            "the pre-session incumbent must be re-measured in-session"
        )
        del cold

    def test_monitoring_predictor_demotes_pre_drift_rows(self, x86, join_app):
        """After a drift retune, the online predictor must apply the same
        stale-history quarantine as the session surrogate: pre-boundary
        rows enter at fidelity 1, fresh rows at fidelity 0 — otherwise
        expectations at neighbouring datasizes blend stale-environment
        durations at full weight and re-alarm spuriously."""
        from repro.sparksim.scenarios import DriftingSimulator, RunStep

        simulator = DriftingSimulator(x86)
        locat = small_locat(simulator, join_app)
        locat.tune(100.0)
        simulator.set_step(
            RunStep(index=0, datasize_gb=100.0, disk_factor=0.4, core_factor=0.6,
                    drifted=True)
        )
        locat.adapt(100.0)
        boundary = locat._stale_before
        assert 0 < boundary < len(locat._observations)
        config = locat._observations[-1].config
        assert locat.predict_log_duration(config, 100.0) is not None
        fidelities = locat._predictor._fidelities
        assert all(f == 1.0 for f in fidelities[:boundary])
        assert all(f == 0.0 for f in fidelities[boundary:])

    def test_adapt_quarantines_stale_incumbents(self, x86, join_app):
        """After an environment shift, a partial session must deploy on
        *fresh* measurements: the healthy-era trials are faster than
        anything the degraded cluster can do, and re-anchoring on them
        would pin the deployment to a world that no longer exists."""
        from repro.sparksim.scenarios import DriftingSimulator, RunStep

        simulator = DriftingSimulator(x86)
        locat = small_locat(simulator, join_app)
        healthy = locat.tune(100.0)
        simulator.set_step(
            RunStep(index=0, datasize_gb=100.0, disk_factor=0.4, core_factor=0.6,
                    drifted=True)
        )
        adapted = locat.adapt(100.0)
        # The reported duration reflects the degraded environment, not a
        # stale healthy-era trial.
        assert adapted.best_duration_s > healthy.best_duration_s * 1.2


class TestDefaultReset:
    def test_reset_only_touches_unselected_non_resource(self, sim_x86, join_app):
        locat = small_locat(sim_x86, join_app)
        locat.bootstrap(100.0)
        config = sim_x86.space.sample(np.random.default_rng(0))
        reset = locat._reset_unimportant_to_defaults(config)
        defaults = sim_x86.space.default()
        selected = set(locat.iicp_result.selected)
        for name in sim_x86.space.names:
            if name in selected or name in LOCAT.RESOURCE_PARAMETERS:
                continue
            assert reset[name] == defaults[name], name


# ----------------------------------------------------------------------
# Bootstrap paths, bit for bit
# ----------------------------------------------------------------------
TINY_TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}

#: sha256 of each path's session record (:func:`_session_digest`),
#: captured before the bootstrap paths were merged into one.  Any change
#: to a sampled, observed or selected value moves the digest.
PINNED_PATH_DIGESTS = {
    "transfer_accepted": "e95c842c6e2f280e71f4fdb951ff5d2208c85e4ebf2a1324b5bf0b4940f33edb",
    "transfer_rejected": "f0b2abeac116ff82c383fb9cddc7394d3c26a7372092d6ad12e9127efb8ed735",
    "restore_predict_tune": "50dff14870b329b596ebd6628844d457a216eac037da01d198ec77c3450897f3",
    "restore_predict_tune_predict": (
        "69d93be6d7d9fdda7a8fd17f30f79c0d7f8b4bcd7ea80eed4f3dee78915052aa"
    ),
    "all_parameters": "d08695c8e83f21252cf2316a00aa3f93cf34aa10e6c53388dc678abd20aa2303",
}


def _feed(digest, value) -> None:
    """Hash ``value`` exactly: floats as ``float.hex``, the rest by repr."""
    if isinstance(value, Configuration):
        value = config_to_dict(value)
    if isinstance(value, dict):
        for key, item in value.items():
            digest.update(repr(key).encode())
            _feed(digest, item)
    elif isinstance(value, list | tuple):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    else:
        digest.update(repr(value).encode())


def _session_digest(locat, *results, extra=()) -> str:
    digest = hashlib.sha256()
    for result in results:
        _feed(digest, [
            result.best_duration_s, result.overhead_s, result.evaluations,
            result.best_config,
            [result.details[k] for k in ("iicp_selected", "n_latent_dims", "csq", "transfer")],
        ])
    _feed(digest, locat.observation_history)
    _feed(digest, [t.duration_s for t in locat.objective.history])
    _feed(digest, list(extra))
    return digest.hexdigest()


class TestPinnedPaths:
    """Every bootstrap path reproduces its parent-captured session."""

    @staticmethod
    def transfer_plan(x86, join_app, **gates):
        from repro.transfer import TransferPlan, WorkloadFingerprint

        donor = LOCAT(SparkSQLSimulator(x86), join_app, rng=3, **TINY_TUNER)
        donor.tune(100.0)
        return TransferPlan(
            donor_app_id="donor",
            donor_benchmark="join",
            similarity=1.0,
            cps=donor.iicp_result.cps,
            fingerprint=WorkloadFingerprint.from_application(join_app),
            observations=tuple(donor.observation_history),
            **gates,
        )

    @pytest.mark.parametrize(
        "path, gates, state",
        [
            ("transfer_accepted", {"min_agreement": 0.0, "min_similarity": 0.0}, "accepted"),
            ("transfer_rejected", {"min_agreement": 1.01}, "rejected"),
        ],
    )
    def test_transfer_session(self, x86, join_app, path, gates, state):
        plan = self.transfer_plan(x86, join_app, **gates)
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=4, transfer_from=plan, **TINY_TUNER)
        result = locat.tune(100.0)
        assert locat.transfer_state == state
        assert _session_digest(
            locat, result, extra=(locat.transfer_agreement, locat.transfer_similarity)
        ) == PINNED_PATH_DIGESTS[path]

    def test_restore_predict_tune(self, x86, join_app):
        source = LOCAT(SparkSQLSimulator(x86), join_app, rng=5, **TINY_TUNER)
        tuned = source.tune(100.0)
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=6, **TINY_TUNER)
        locat.restore(source.qcsa_result, source.iicp_result.cps, source.observation_history)
        predicted = locat.predict_log_duration(tuned.best_config, 100.0)
        result = locat.tune(100.0)
        assert _session_digest(locat, result, extra=predicted) == (
            PINNED_PATH_DIGESTS["restore_predict_tune"]
        )
        # The session adds no row before its only manifold build, so the
        # build is skipped; the monitoring predictor is still refit.
        after = [locat.predict_log_duration(tuned.best_config, ds) for ds in (100.0, 250.0)]
        assert _session_digest(locat, result, extra=(predicted, *after)) == (
            PINNED_PATH_DIGESTS["restore_predict_tune_predict"]
        )

    def test_all_parameters_ablation(self, x86, join_app):
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=7, use_iicp=False, **TINY_TUNER)
        first = locat.tune(100.0)
        second = locat.tune(300.0)
        assert _session_digest(locat, first, second) == PINNED_PATH_DIGESTS["all_parameters"]


class TestLatentSpaceFits:
    """The KPCA manifold is fit once per batch of new observations."""

    @staticmethod
    def count_fits(monkeypatch):
        from repro.ml.kpca import KernelPCA

        fits = []
        fit = KernelPCA.fit

        def counting(self, x):
            fits.append(len(x))
            return fit(self, x)

        monkeypatch.setattr(KernelPCA, "fit", counting)
        return fits

    def test_one_fit_per_short_cold_session(self, x86, join_app, monkeypatch):
        from repro.core.locat import REFIT_INTERVAL

        fits = self.count_fits(monkeypatch)
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=5, **TINY_TUNER)
        assert locat.max_iterations <= REFIT_INTERVAL
        locat.tune(100.0)
        assert fits == [TINY_TUNER["n_qcsa"]]

    def test_one_fit_per_accepted_transfer_bootstrap(self, x86, join_app, monkeypatch):
        plan = TestPinnedPaths.transfer_plan(
            x86, join_app, min_agreement=0.0, min_similarity=0.0
        )
        fits = self.count_fits(monkeypatch)
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=4, transfer_from=plan, **TINY_TUNER)
        locat.bootstrap(100.0)
        assert locat.transfer_state == "accepted"
        assert len(fits) == 1
