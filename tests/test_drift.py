"""Tests for the Page–Hinkley drift detector (:mod:`repro.core.drift`)."""

import json
import math

import numpy as np
import pytest

from repro.core.drift import DriftDetector, DurationPrediction, PageHinkleyDetector


def prediction(expected_s: float, log_std: float = 0.1) -> DurationPrediction:
    return DurationPrediction(log_mean=math.log(expected_s), log_std=log_std)


class TestDurationPrediction:
    def test_standardized_residual(self):
        p = prediction(100.0, log_std=0.1)
        assert p.standardized_residual(100.0) == pytest.approx(0.0)
        assert p.standardized_residual(100.0 * math.e**0.2) == pytest.approx(2.0)
        assert p.standardized_residual(100.0 / math.e**0.1) == pytest.approx(-1.0)


class TestPageHinkley:
    def test_no_alarm_on_centered_noise(self):
        """Run-to-run jitter at realistic scale (~5% of the duration,
        i.e. half the floored log-std) never accumulates to an alarm."""
        detector = PageHinkleyDetector()
        rng = np.random.default_rng(7)
        for z in rng.normal(0.0, 1.0, size=500):
            assert not detector.update(100.0 * math.exp(0.05 * z), prediction(100.0))

    def test_abrupt_shift_detected_quickly(self):
        detector = PageHinkleyDetector()
        for _ in range(10):
            detector.update(100.0, prediction(100.0))
        steps = 0
        alarmed = False
        for _ in range(5):
            steps += 1
            if detector.update(180.0, prediction(100.0)):
                alarmed = True
                break
        assert alarmed and steps <= 2

    def test_constant_offset_is_absorbed_by_the_baseline(self):
        """A systematic calibration bias must not integrate to an alarm."""
        detector = PageHinkleyDetector()
        for _ in range(200):
            assert not detector.update(108.0, prediction(100.0))

    def test_first_run_drift_stands_out_against_the_prior(self):
        """The zero-anchored prior keeps an immediately-drifted stream
        from becoming its own baseline."""
        detector = PageHinkleyDetector()
        alarmed = False
        for _ in range(4):
            if detector.update(300.0, prediction(100.0)):
                alarmed = True
                break
        assert alarmed

    def test_absurd_fast_run_cannot_force_a_false_alarm(self):
        """A single nonsense measurement (0.0 s, or ms-instead-of-s)
        must not swing the baseline so far that the next *normal* run
        alarms — the residual is clamped (asymmetrically: the fast side
        carries no drift evidence) before accumulation.  The bogus run
        arriving *first* in the window is the hardest case: the baseline
        has nothing to dilute it with."""
        for bogus in (0.0, 1e-6):
            for warmup in (0, 1, 5):
                detector = PageHinkleyDetector()
                for _ in range(warmup):
                    detector.update(100.0, prediction(100.0))
                detector.update(bogus, prediction(100.0))
                for _ in range(15):
                    assert not detector.update(100.0, prediction(100.0)), (
                        bogus, warmup
                    )

    def test_clip_does_not_slow_genuine_drift(self):
        detector = PageHinkleyDetector()
        for _ in range(5):
            detector.update(100.0, prediction(100.0))
        # A 3x slowdown (z clipped at 8) still alarms immediately.
        assert detector.update(300.0, prediction(100.0))

    def test_state_round_trips_through_json(self):
        detector = PageHinkleyDetector()
        for d in (100.0, 130.0, 125.0):
            detector.update(d, prediction(100.0))
        state = json.loads(json.dumps(detector.state()))
        restored = PageHinkleyDetector()
        restored.restore(state)
        assert restored.state() == detector.state()
        assert restored.statistic == detector.statistic
        # Both continue identically after the round trip.
        for d in (140.0, 140.0, 140.0):
            assert detector.update(d, prediction(100.0)) == restored.update(
                d, prediction(100.0)
            )

    def test_reset_clears_everything(self):
        detector = PageHinkleyDetector()
        detector.update(180.0, prediction(100.0))
        detector.reset()
        assert detector.state() == {
            "n": 0, "total": 0.0, "cumulative": 0.0, "minimum": 0.0,
        }


class TestProtocol:
    def test_page_hinkley_satisfies_the_protocol(self):
        detector = PageHinkleyDetector()
        assert isinstance(detector, DriftDetector)  # runtime protocol check
        assert detector.name == "ph"
        # The detector serves a JSON-safe status and state.
        json.dumps(detector.status())
        json.dumps(detector.state())

    def test_foreign_state_restores_only_the_shared_baseline(self):
        """Stores written by earlier versions may hold another
        detector's state: the residual baseline (``n``/``total``) it
        shares carries over, everything else starts fresh."""
        detector = PageHinkleyDetector()
        detector.restore({"recent_ratios": [1.4, 1.5]})
        assert detector.state() == PageHinkleyDetector().state()
        detector.restore({"n": 4, "total": 2.0, "score": 3.5})
        assert detector.state() == {
            "n": 4, "total": 2.0, "cumulative": 0.0, "minimum": 0.0,
        }
