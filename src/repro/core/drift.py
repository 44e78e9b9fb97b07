"""Sequential drift detection for the online controller.

The paper's deployment story (section 3.1) is an application whose
input grows over time while the cluster underneath it ages: disks slow
down, nodes drop out, the data distribution skews.  The online
controller must notice that the deployed configuration has gone stale
*from the production run stream alone* — every extra measurement is a
production run it cannot schedule.

:class:`PageHinkleyDetector` runs the Page–Hinkley test over
*standardized residuals* (measured log duration minus the DAGP's
posterior mean, in posterior-std units).  It accumulates deviations
above a self-calibrating baseline and alarms when the cumulative
statistic exceeds its running minimum by ``threshold``: small sustained
shifts integrate up, single noisy spikes do not
(``benchmarks/bench_online_drift.py`` scores its detection delay and
false triggers).

The detector is deliberately dumb about *where* expectations come from:
the controller hands every ``update`` a :class:`DurationPrediction`
(log-space mean/std of the deployed configuration's duration) built
from the DAGP surrogate.  Any object implementing the
:class:`DriftDetector` protocol may be injected instead.  Detector
state is JSON-serializable (:meth:`DriftDetector.state` /
:meth:`DriftDetector.restore`), so the tuning service can persist it in
``deployed.json`` and a restarted service resumes mid-window instead of
silently starting blind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

#: Floor on the predictive log-std used to standardize residuals.  The
#: DAGP's posterior std at a training point collapses toward the
#: observation noise, which would turn routine run-to-run jitter into
#: huge z-scores; 0.1 (≈10% duration uncertainty) keeps z near
#: unit scale for a healthy deployment.
LOG_STD_FLOOR = 0.1

#: Clamp on a single standardized residual before it enters the
#: detector.  One absurd measurement (a client reporting 0.0
#: seconds, or milliseconds instead of seconds) would otherwise swing
#: the running baseline by hundreds of sigmas and force a false alarm
#: on the very next *normal* run.  The clamp is asymmetric because the
#: detector is one-sided: the slow side (``RESIDUAL_CLIP``) sits far
#: above the alarm thresholds so genuine drift still alarms at full
#: speed, while the fast side (``RESIDUAL_CLIP_FAST``) is tight —
#: a "too fast" run carries no drift evidence, and letting it drag the
#: baseline down would make the *next normal run* look like a slowdown
#: (observed end to end: one 0.0-second report early in a window forced
#: a spurious retune three runs later with a symmetric clamp).
RESIDUAL_CLIP = 8.0
RESIDUAL_CLIP_FAST = 2.0


@dataclass(frozen=True)
class DurationPrediction:
    """Expected duration of the deployed configuration at one datasize,
    as a Gaussian over log duration (what the detector standardizes
    against)."""

    log_mean: float
    log_std: float

    def standardized_residual(self, observed_s: float) -> float:
        """z-score of a measured duration under this prediction."""
        observed = math.log(max(float(observed_s), 1e-9))
        return (observed - self.log_mean) / max(self.log_std, 1e-9)

    def clipped_residual(self, observed_s: float) -> float:
        """The residual clamped to [-``RESIDUAL_CLIP_FAST``,
        ``RESIDUAL_CLIP``] (the detector's input)."""
        return max(
            -RESIDUAL_CLIP_FAST,
            min(RESIDUAL_CLIP, self.standardized_residual(observed_s)),
        )


@runtime_checkable
class DriftDetector(Protocol):
    """Sequential change detector over a stream of measured durations.

    One instance watches one deployment: the controller calls
    :meth:`update` per measured production run and :meth:`reset` when a
    retune deploys a fresh configuration.  ``state``/``restore`` must
    round-trip through JSON so the service can persist the detector
    mid-window.
    """

    name: str

    def update(self, observed_s: float, prediction: DurationPrediction) -> bool:
        """Consume one measured run; True means drift alarm (retune)."""
        ...

    def reset(self) -> None:
        """Forget everything (a new configuration was deployed)."""
        ...

    def reason(self) -> str:
        """Human-readable explanation of the most recent alarm."""
        ...

    def state(self) -> dict:
        """JSON-safe snapshot, consumed by :meth:`restore`."""
        ...

    def restore(self, state: dict) -> None:
        """Rehydrate from a :meth:`state` snapshot."""
        ...

    def status(self) -> dict:
        """JSON-safe diagnostic view (served by ``GET /apps/<id>``)."""
        ...


class PageHinkleyDetector:
    """Page–Hinkley test over standardized log-duration residuals.

    Standardized residuals carry a systematic component the detector
    must not alarm on — calibration error of the deploy-time
    full-application/RQA offset, simulator-vs-model bias — so
    deviations are measured against a running mean ``z̄`` of the
    residuals.  That mean is anchored at zero with ``prior_weight``
    pseudo-observations: a genuinely drifted *first* run then stands out
    against the prior instead of instantly becoming its own baseline.

    Maintains the cumulative sum ``m_t = Σ (z_i - z̄_i - delta)`` and
    alarms when ``m_t`` exceeds its running minimum by ``threshold``:
    a sustained upward shift of the residual mean integrates at
    ``shift - delta`` per run, so detection delay scales inversely with
    shift size — abrupt drift is caught in one or two runs, slow drift
    is still caught once it has accumulated ``threshold`` worth of
    evidence.
    """

    name = "ph"

    def __init__(
        self,
        delta: float = 0.25,
        threshold: float = 4.0,
        prior_weight: float = 3.0,
    ):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.prior_weight = float(prior_weight)
        self.reset()

    @property
    def statistic(self) -> float:
        return self.cumulative - self.minimum

    @property
    def baseline(self) -> float:
        """The running (prior-anchored) mean of the residuals."""
        return self.total / (self.prior_weight + self.n)

    def update(self, observed_s: float, prediction: DurationPrediction) -> bool:
        z = prediction.clipped_residual(observed_s)
        self.n += 1
        self.total += z
        self.cumulative += z - self.baseline - self.delta
        self.minimum = min(self.minimum, self.cumulative)
        return self.statistic > self.threshold

    def reset(self) -> None:
        self.n = 0
        self.total = 0.0
        self.cumulative = 0.0
        self.minimum = 0.0

    def reason(self) -> str:
        return (
            f"Page-Hinkley drift statistic {self.statistic:.1f} exceeded "
            f"{self.threshold:.1f} (sustained slowdown vs the model expectation)"
        )

    def state(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "cumulative": self.cumulative,
            "minimum": self.minimum,
        }

    def restore(self, state: dict) -> None:
        self.n = int(state.get("n", 0))
        self.total = float(state.get("total", 0.0))
        self.cumulative = float(state.get("cumulative", 0.0))
        self.minimum = float(state.get("minimum", 0.0))

    def status(self) -> dict:
        return {
            "detector": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "observations": self.n,
            "baseline_residual": self.baseline,
        }
