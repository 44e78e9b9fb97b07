"""Shadow evaluation and A/B-gated candidate promotion.

A drift or datasize retune produces a *candidate* configuration from a
handful of noisy tuning evaluations — one lucky simulator draw can make
a worse config look like a winner.  Only the first tuning session
deploys directly (there is no incumbent to compare against); every later
candidate enters a **shadow** phase instead: on each
subsequent production run the controller measures both the deployed
incumbent and the challenger at the run's datasize under common random
numbers (identically seeded generators, so the pair shares its
environment draw), and a paired bootstrap test
(:mod:`repro.stats.abtest`) over the accumulated pairs decides:

* **promote** — the interval excludes zero in the challenger's favour;
* **reject** — the interval excludes zero in the incumbent's favour, or
  the shadow budget is exhausted without a significant win (the gate is
  deliberately conservative: "not provably better" means "not
  deployed");
* **extend** — keep shadowing.

An early stop fires before the minimum run count only on *clear
dominance*: every pair agrees in sign **and** the bootstrap interval
already excludes zero.

Every terminal decision yields a ``winners.json``-style provenance
record (searchforge orchestrator, SNIPPETS.md section 3): run id, both
configurations, the per-pair measurements, and the metric deltas with
confidence intervals.  :class:`ShadowState` round-trips through JSON so
an in-flight shadow survives process restarts via ``deployed.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparksim.configspace import Configuration
from repro.sparksim.serialize import config_from_dict, config_to_dict
from repro.stats.abtest import DEFAULT_N_BOOT, ABTestResult, paired_bootstrap

DECISION_PROMOTE = "promote"
DECISION_REJECT = "reject"
DECISION_EXTEND = "extend"

#: Seed-tuple salt for shadow measurement generators, keeping the CRN
#: streams disjoint from every other seeded subsystem.
SHADOW_SEED_SALT = 0x5AB0

#: Shadow budget in units of ``min_runs``: at this many times the
#: minimum pair count the gate forces a terminal decision.
SHADOW_BUDGET_FACTOR = 3


@dataclass
class ShadowPair:
    """One common-random-number measurement of both arms."""

    datasize_gb: float
    incumbent_s: float
    challenger_s: float

    def to_json(self) -> dict:
        return {
            "datasize_gb": self.datasize_gb,
            "incumbent_s": self.incumbent_s,
            "challenger_s": self.challenger_s,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ShadowPair":
        return cls(
            datasize_gb=float(payload["datasize_gb"]),
            incumbent_s=float(payload["incumbent_s"]),
            challenger_s=float(payload["challenger_s"]),
        )


@dataclass
class ShadowState:
    """An in-flight shadow evaluation (survives restarts via JSON)."""

    run_id: str
    #: What caused the retune that produced the challenger.
    trigger: str
    #: The retune's human-readable reason string.
    reason: str
    incumbent: Configuration
    challenger: Configuration
    #: Datasize of the retune itself — recorded as "tuned" on promote.
    origin_datasize_gb: float
    #: The candidate session's validation-run duration (diagnostics).
    challenger_duration_s: float
    #: Base of the CRN seed tuples; pair ``k`` of both arms is measured
    #: with ``default_rng((SHADOW_SEED_SALT, seed, k))``.
    seed: int
    pairs: list[ShadowPair] = field(default_factory=list)

    @property
    def deltas(self) -> np.ndarray:
        """Per-pair log-duration deltas, incumbent minus challenger."""
        inc = np.array([max(p.incumbent_s, 1e-9) for p in self.pairs])
        cha = np.array([max(p.challenger_s, 1e-9) for p in self.pairs])
        return np.log(inc) - np.log(cha)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "trigger": self.trigger,
            "reason": self.reason,
            "incumbent": config_to_dict(self.incumbent),
            "challenger": config_to_dict(self.challenger),
            "origin_datasize_gb": self.origin_datasize_gb,
            "challenger_duration_s": self.challenger_duration_s,
            "seed": self.seed,
            "pairs": [p.to_json() for p in self.pairs],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ShadowState":
        return cls(
            run_id=str(payload["run_id"]),
            trigger=str(payload["trigger"]),
            reason=str(payload["reason"]),
            incumbent=config_from_dict(payload["incumbent"]),
            challenger=config_from_dict(payload["challenger"]),
            origin_datasize_gb=float(payload["origin_datasize_gb"]),
            challenger_duration_s=float(payload["challenger_duration_s"]),
            seed=int(payload["seed"]),
            pairs=[ShadowPair.from_json(p) for p in payload.get("pairs", [])],
        )


class PromotionGate:
    """Decides promote / reject / extend over a shadow's paired runs.

    ``min_runs`` — pairs required before a regular significance verdict
    (early stop on clear dominance may fire sooner, but never before
    the bootstrap itself is meaningful).
    ``alpha`` — two-sided significance level of the bootstrap interval.
    The shadow budget ``max_runs`` is ``SHADOW_BUDGET_FACTOR *
    min_runs`` pairs; there the gate forces a terminal decision,
    rejecting unless the challenger is significantly better.
    """

    def __init__(
        self,
        min_runs: int = 6,
        alpha: float = 0.05,
        n_boot: int = DEFAULT_N_BOOT,
    ):
        if min_runs < 1:
            raise ValueError("min_runs must be at least 1")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        self.min_runs = int(min_runs)
        self.alpha = float(alpha)
        self.max_runs = SHADOW_BUDGET_FACTOR * self.min_runs
        self.n_boot = int(n_boot)

    def test(self, shadow: ShadowState) -> ABTestResult:
        """The paired bootstrap over the shadow's current pairs.

        Seeded from the shadow's own seed and pair count, so the same
        shadow state always yields the same interval — across processes
        and restarts.
        """
        return paired_bootstrap(
            shadow.deltas,
            alpha=self.alpha,
            n_boot=self.n_boot,
            seed=(SHADOW_SEED_SALT, shadow.seed, len(shadow.pairs)),
        )

    def evaluate(self, shadow: ShadowState) -> tuple[str, ABTestResult | None, str]:
        """``(decision, test, reason)`` for the shadow as it stands."""
        n = len(shadow.pairs)
        if n == 0:
            return DECISION_EXTEND, None, "no shadow pairs measured yet"
        test = self.test(shadow)
        if n < self.min_runs:
            # Early stop only on clear dominance: unanimous per-pair
            # sign AND a significant interval.  Either alone is too
            # weak — three coin flips agree 25% of the time.
            if test.significant:
                deltas = shadow.deltas
                if test.winner == "challenger" and bool(np.all(deltas > 0.0)):
                    return (
                        DECISION_PROMOTE,
                        test,
                        f"early stop: challenger dominated all {n} shadow runs "
                        f"(CI [{test.ci_low:+.4f}, {test.ci_high:+.4f}] log-delta)",
                    )
                if test.winner == "baseline" and bool(np.all(deltas < 0.0)):
                    return (
                        DECISION_REJECT,
                        test,
                        f"early stop: incumbent dominated all {n} shadow runs "
                        f"(CI [{test.ci_low:+.4f}, {test.ci_high:+.4f}] log-delta)",
                    )
            return DECISION_EXTEND, test, f"{n}/{self.min_runs} shadow runs measured"
        if test.significant and test.winner == "challenger":
            return (
                DECISION_PROMOTE,
                test,
                f"challenger significantly faster over {n} shadow runs "
                f"(mean speedup {test.mean_speedup:.3f}x, "
                f"CI [{test.ci_low:+.4f}, {test.ci_high:+.4f}] log-delta)",
            )
        if test.significant and test.winner == "baseline":
            return (
                DECISION_REJECT,
                test,
                f"incumbent significantly faster over {n} shadow runs "
                f"(CI [{test.ci_low:+.4f}, {test.ci_high:+.4f}] log-delta)",
            )
        if n >= self.max_runs:
            return (
                DECISION_REJECT,
                test,
                f"no significant improvement within the {self.max_runs}-run "
                f"shadow budget (CI [{test.ci_low:+.4f}, {test.ci_high:+.4f}] "
                "log-delta straddles zero)",
            )
        return (
            DECISION_EXTEND,
            test,
            f"difference not yet significant after {n} shadow runs",
        )


def winner_record(
    shadow: ShadowState,
    decision: str,
    test: ABTestResult | None,
    reason: str,
) -> dict:
    """A ``winners.json``-style provenance record for a terminal decision.

    Field-by-field schema documented in ``docs/promotion.md``.  The
    store stamps ``decided_at`` on append, keeping this function pure.
    """
    pairs = shadow.pairs
    inc_mean = float(np.mean([p.incumbent_s for p in pairs])) if pairs else None
    cha_mean = float(np.mean([p.challenger_s for p in pairs])) if pairs else None
    return {
        "run_id": shadow.run_id,
        "decision": decision,
        "reason": reason,
        "trigger": shadow.trigger,
        "retune_reason": shadow.reason,
        "origin_datasize_gb": shadow.origin_datasize_gb,
        "n_pairs": len(pairs),
        "baseline": {
            "config": config_to_dict(shadow.incumbent),
            "mean_duration_s": inc_mean,
        },
        "challenger": {
            "config": config_to_dict(shadow.challenger),
            "mean_duration_s": cha_mean,
            "session_duration_s": shadow.challenger_duration_s,
        },
        "ab": None if test is None else test.to_json(),
        "pairs": [p.to_json() for p in pairs],
    }
