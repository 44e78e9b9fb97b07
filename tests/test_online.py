"""Tests for the online tuning controller."""

import math
import re

import pytest

from repro.core import LOCAT
from repro.core.online import OnlineController
from repro.core.result import TuningResult
from repro.sparksim import SparkSQLSimulator
from repro.sparksim.serialize import canonical_key


def make_locat(cluster, app, seed=7):
    return LOCAT(
        SparkSQLSimulator(cluster), app,
        n_qcsa=10, n_iicp=8, max_iterations=6, min_iterations=3, n_mcmc=0, rng=seed,
    )


@pytest.fixture()
def controller(x86, join_app):
    return OnlineController(make_locat(x86, join_app), datasize_margin=0.3)


class TestLifecycle:
    def test_first_observation_tunes(self, controller):
        decision = controller.observe(100.0)
        assert decision.retuned
        assert decision.trigger == "initial"
        assert decision.result is not None
        assert controller.is_deployed

    def test_same_datasize_reuses(self, controller):
        controller.observe(100.0)
        decision = controller.observe(100.0, duration_s=None)
        assert not decision.retuned
        assert decision.trigger == "none"
        assert decision.config == controller.deployed_config

    def test_nearby_datasize_reuses(self, controller):
        controller.observe(100.0)
        decision = controller.observe(120.0)
        assert not decision.retuned  # 20% < 30% margin

    def test_far_datasize_triggers_adaptation(self, controller):
        controller.observe(100.0)
        decision = controller.observe(400.0)
        assert decision.retuned
        assert decision.trigger == "datasize"
        assert "400" in decision.reason

    def test_deployed_config_before_observe(self, controller):
        with pytest.raises(RuntimeError):
            _ = controller.deployed_config

    def test_invalid_datasize(self, controller):
        with pytest.raises(ValueError):
            controller.observe(-5.0)


class TestFalsyDurations:
    """A measured duration of 0.0 is a measurement, not a missing value."""

    def test_initial_decision_keeps_zero_duration(self, controller):
        decision = controller.observe(100.0, duration_s=0.0)
        assert decision.duration_s == 0.0

    def test_steady_state_keeps_zero_duration(self, controller):
        controller.observe(100.0)
        decision = controller.observe(100.0, duration_s=0.0)
        assert not decision.retuned  # a 0-second run is fast, not drifted
        assert decision.duration_s == 0.0

    def test_datasize_retune_keeps_zero_duration(self, controller):
        controller.observe(100.0)
        decision = controller.observe(400.0, duration_s=0.0)
        assert decision.retuned
        assert decision.duration_s == 0.0

    def test_missing_duration_still_maps_to_nan(self, controller):
        controller.observe(100.0)
        decision = controller.observe(100.0)
        assert math.isnan(decision.duration_s)


class TestDriftDetection:
    def test_consistent_slowdown_triggers_retune(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        # A run far above expectation integrates past the threshold.
        decision = controller.observe(100.0, duration_s=baseline * 3.0)
        assert decision.retuned
        assert decision.trigger == "drift"
        assert "Page-Hinkley" in decision.reason

    def test_single_slow_run_tolerated(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        decision = controller.observe(100.0, duration_s=baseline * 1.4)
        assert not decision.retuned  # under the threshold on its own

    def test_normal_runs_never_retune(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        for _ in range(4):
            decision = controller.observe(100.0, duration_s=baseline)
            assert not decision.retuned


class TestDriftReason:
    def test_drift_reason_names_statistic_and_threshold(self, controller):
        """Durations drifting above the expectation retune with the
        reason string the service exposes over the API, followed by
        what the promotion gate did with the retune's winner."""
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        decision = controller.observe(100.0, duration_s=baseline * 3.0)
        assert decision.retuned and decision.trigger == "drift"
        assert re.fullmatch(
            r"Page-Hinkley drift statistic \d+\.\d exceeded 4\.0 "
            r"\(sustained slowdown vs the model expectation\) — "
            r"(candidate entering shadow evaluation"
            r"|retune re-confirmed the deployed configuration)",
            decision.reason,
        )
        phase = decision.promotion["phase"]
        assert phase in ("shadow_started", "reconfirmed")
        assert controller.shadow_active == (phase == "shadow_started")

    def test_drift_window_clears_after_retune(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        retuned = controller.observe(100.0, duration_s=baseline * 3.0)
        assert retuned.retuned
        assert controller.detector_state()["n"] == 0
        # The next mildly slow run starts a fresh window instead of
        # re-triggering on the old evidence.
        decision = controller.observe(
            100.0, duration_s=retuned.result.best_duration_s * 1.4
        )
        assert not decision.retuned

    def test_fast_run_interrupts_the_streak(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        controller.observe(100.0, duration_s=baseline * 1.4)
        controller.observe(100.0, duration_s=baseline)  # recovery run
        decision = controller.observe(100.0, duration_s=baseline * 1.4)
        assert not decision.retuned  # the streak was broken


class _StubLocat:
    """Fixed expectation, free retunes: isolates the decision logic."""

    max_iterations = 25

    def __init__(self, space):
        self.config = space.default()
        self.tune_calls = []
        self.adapt_calls = []

    def _result(self, datasize_gb):
        return TuningResult(
            tuner="stub", application="stub", datasize_gb=datasize_gb,
            best_config=self.config, best_duration_s=50.0 * datasize_gb / 100.0,
            overhead_s=0.0, evaluations=0,
        )

    def tune(self, datasize_gb):
        self.tune_calls.append(datasize_gb)
        return self._result(datasize_gb)

    def predict_log_duration(self, config, datasize_gb):
        # The fixed expectation, as a near-certain model prediction.
        return math.log(50.0 * datasize_gb / 100.0), 0.0

    def adapt(self, datasize_gb, max_iterations=None):
        self.adapt_calls.append((datasize_gb, max_iterations))
        return self._result(datasize_gb)


class TestDriftRetuneSessions:
    def test_drift_retunes_are_partial_sessions(self, space_x86):
        locat = _StubLocat(space_x86)
        controller = OnlineController(locat)
        controller.observe(100.0)
        decision = controller.observe(100.0, duration_s=200.0)
        assert decision.retuned
        assert locat.adapt_calls == [(100.0, None)]  # drift -> partial session
        assert locat.tune_calls == [100.0]           # only the initial deploy


class TestModelDetector:
    def test_deploy_calibrates_the_model(self, controller):
        controller.observe(100.0)
        assert controller.log_offset is not None
        status = controller.drift_status()
        assert status["detector"] == "ph"
        assert status["calibrated"]

    def test_sustained_slowdown_triggers_partial_retune(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        for _ in range(3):
            controller.observe(100.0, duration_s=baseline)
        decision = None
        for _ in range(6):
            decision = controller.observe(100.0, duration_s=baseline * 2.0)
            if decision.retuned:
                break
        assert decision is not None and decision.retuned
        assert decision.trigger == "drift"
        assert decision.result.details["partial"] is True

    def test_single_spike_tolerated(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        decision = controller.observe(100.0, duration_s=baseline * 1.6)
        assert not decision.retuned
        # A recovery run keeps the statistic from accumulating.
        for _ in range(4):
            decision = controller.observe(100.0, duration_s=baseline)
            assert not decision.retuned

    def test_mild_degradation_below_ratio_factor_still_detected(self, controller):
        """A 20% slowdown is small run by run (below a fixed 1.3x
        factor), but the sequential detector integrates it up."""
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        retuned = False
        for _ in range(25):
            if controller.observe(100.0, duration_s=baseline * 1.2).retuned:
                retuned = True
                break
        assert retuned

    def test_invalid_detector_rejected(self, x86, join_app):
        # Detection modes are no longer named: a detector is an instance.
        for name in ("oracle", "ph", "ratio"):
            with pytest.raises(TypeError, match="detector"):
                OnlineController(make_locat(x86, join_app), detector=name)


class TestConfigKeyMatching:
    def test_key_survives_float_round_trip_artifacts(self, space_x86):
        config = space_x86.default()
        perturbed = config.replace(
            **{"memory.fraction": config["memory.fraction"] + 1e-12}
        )
        assert config != perturbed  # exact equality is brittle...
        assert canonical_key(config) == canonical_key(perturbed)  # ...the key is not


class TestStateRestore:
    def test_restore_state_round_trip(self, controller):
        first = controller.observe(100.0)
        fresh = OnlineController(controller.locat, datasize_margin=0.3)
        assert not fresh.is_deployed
        fresh.restore_state(
            controller.deployed_config,
            controller.tuned_datasizes,
            detector_state=controller.detector_state(),
            log_offset=controller.log_offset,
        )
        assert fresh.is_deployed
        assert fresh.deployed_config == first.config
        assert fresh.tuned_datasizes == [100.0]
        decision = fresh.observe(105.0)
        assert not decision.retuned  # nearby datasize reuses, as before the restart

    def test_restored_drift_window_completes_the_pattern(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        # One mildly slow run: evidence, but under the threshold.
        assert not controller.observe(100.0, duration_s=baseline * 1.4).retuned
        fresh = OnlineController(controller.locat, datasize_margin=0.3)
        fresh.restore_state(
            controller.deployed_config,
            controller.tuned_datasizes,
            detector_state=controller.detector_state(),
            log_offset=controller.log_offset,
        )
        decision = fresh.observe(100.0, duration_s=baseline * 1.4)
        assert decision.retuned
        assert "Page-Hinkley" in decision.reason

    def test_legacy_restore_survives_a_garbage_low_first_report(self, controller):
        """The legacy calibration anchor is clamped below: a 0.0 s first
        report must not calibrate the model to expect nanosecond runs
        (which would guarantee a spurious alarm right after)."""
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        legacy = OnlineController(controller.locat, datasize_margin=0.3)
        legacy.restore_state(
            controller.deployed_config, controller.tuned_datasizes
        )
        legacy.observe(100.0, duration_s=0.0)  # garbage calibration run
        for _ in range(8):
            decision = legacy.observe(100.0, duration_s=baseline)
            assert not decision.retuned, decision.reason

    def test_detector_state_round_trip(self, controller):
        first = controller.observe(100.0)
        baseline = first.result.best_duration_s
        for _ in range(3):
            controller.observe(100.0, duration_s=baseline * 1.2)
        state = controller.detector_state()
        offset = controller.log_offset
        assert state["n"] == 3 and offset is not None

        fresh = OnlineController(controller.locat, datasize_margin=0.3)
        fresh.restore_state(
            controller.deployed_config,
            controller.tuned_datasizes,
            detector_state=state,
            log_offset=offset,
        )
        assert fresh.detector_state() == state
        assert fresh.log_offset == offset
        assert fresh.drift_status()["calibrated"]

    def test_restore_state_requires_a_datasize(self, controller):
        controller.observe(100.0)
        with pytest.raises(ValueError):
            controller.restore_state(controller.deployed_config, [])

    def test_empty_properties_before_deploy(self, x86, join_app):
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=0)
        fresh = OnlineController(locat)
        assert fresh.tuned_datasizes == []
        assert fresh.log_offset is None


class TestValidation:
    def test_constructor_guards(self, x86, join_app):
        locat = LOCAT(SparkSQLSimulator(x86), join_app, rng=0)
        with pytest.raises(ValueError):
            OnlineController(locat, datasize_margin=0.0)
