"""Tests for shadow evaluation and A/B-gated candidate promotion."""

import json
import math

import numpy as np
import pytest

from repro.core.online import OnlineController, config_key
from repro.core.promotion import (
    DECISION_EXTEND,
    DECISION_PROMOTE,
    DECISION_REJECT,
    SHADOW_BUDGET_FACTOR,
    PromotionGate,
    ShadowPair,
    ShadowState,
    winner_record,
)
from repro.core.result import TuningResult
from repro.service.registry import TuningRegistry
from repro.service.store import HistoryStore
from repro.stats.abtest import (
    MIN_PAIRS_FOR_SIGNIFICANCE,
    ABTestResult,
    compare_paired,
    paired_bootstrap,
)


# ----------------------------------------------------------------------
# Paired bootstrap
# ----------------------------------------------------------------------
class TestPairedBootstrap:
    def test_clear_winner_is_significant(self):
        result = paired_bootstrap([0.2, 0.25, 0.22, 0.19, 0.21], alpha=0.05)
        assert result.significant
        assert result.winner == "challenger"
        assert result.ci_low > 0.0
        assert result.p_challenger_better == 1.0
        assert result.mean_speedup > 1.0

    def test_clear_loser_favours_baseline(self):
        result = paired_bootstrap([-0.2, -0.25, -0.22, -0.19], alpha=0.05)
        assert result.significant
        assert result.winner == "baseline"
        assert result.ci_high < 0.0

    def test_pure_noise_is_not_significant(self):
        rng = np.random.default_rng(3)
        deltas = rng.normal(0.0, 0.1, size=12)
        result = paired_bootstrap(deltas, alpha=0.05)
        assert not result.significant
        assert result.winner == "none"
        assert result.ci_low < 0.0 < result.ci_high

    def test_too_few_pairs_never_significant(self):
        # Two huge consistent wins still cannot clear the pair floor.
        result = paired_bootstrap([0.5] * (MIN_PAIRS_FOR_SIGNIFICANCE - 1))
        assert not result.significant
        assert result.winner == "none"

    def test_deterministic_for_seed(self):
        deltas = [0.1, -0.05, 0.2, 0.0, 0.07]
        a = paired_bootstrap(deltas, seed=(1, 2, 3))
        b = paired_bootstrap(deltas, seed=(1, 2, 3))
        assert a == b
        c = paired_bootstrap(deltas, seed=(1, 2, 4))
        assert (c.ci_low, c.ci_high) != (a.ci_low, a.ci_high)

    def test_json_round_trip(self):
        result = paired_bootstrap([0.2, 0.3, 0.25, 0.28])
        assert ABTestResult.from_json(result.to_json()) == result

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap([])
        with pytest.raises(ValueError):
            paired_bootstrap([0.1], alpha=0.0)
        with pytest.raises(ValueError):
            paired_bootstrap([0.1], alpha=1.0)
        with pytest.raises(ValueError):
            paired_bootstrap([0.1], n_boot=0)

    def test_compare_paired_log_deltas(self):
        # Challenger uniformly 20% faster: delta = log(1/0.8) each pair.
        baseline = [10.0, 20.0, 30.0, 40.0]
        challenger = [8.0, 16.0, 24.0, 32.0]
        result = compare_paired(baseline, challenger)
        assert result.mean_delta == pytest.approx(math.log(1.25))
        # Identical per-pair deltas: the CI degenerates to a point above
        # zero — four unanimous wins are significant.
        assert result.significant and result.winner == "challenger"
        assert result.mean_speedup == pytest.approx(1.25)

    def test_compare_paired_validation(self):
        with pytest.raises(ValueError):
            compare_paired([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            compare_paired([], [])
        with pytest.raises(ValueError):
            compare_paired([1.0, 0.0], [1.0, 1.0])


# ----------------------------------------------------------------------
# Promotion gate
# ----------------------------------------------------------------------
def make_shadow(space, challenger_speedup, n_pairs, noise=0.0, seed=0):
    """A synthetic shadow: incumbent at ~50s, challenger scaled by 1/speedup."""
    incumbent = space.default()
    challenger = space.sample(0)
    rng = np.random.default_rng(seed)
    shadow = ShadowState(
        run_id="shadow-test-0001",
        trigger="drift",
        reason="synthetic",
        incumbent=incumbent,
        challenger=challenger,
        origin_datasize_gb=100.0,
        challenger_duration_s=50.0,
        seed=1,
    )
    for _ in range(n_pairs):
        base = 50.0 * float(np.exp(rng.normal(0.0, noise)))
        shadow.pairs.append(
            ShadowPair(
                datasize_gb=100.0,
                incumbent_s=base,
                challenger_s=base / challenger_speedup,
            )
        )
    return shadow


class TestPromotionGate:
    def test_extends_while_below_min_runs(self, space_x86):
        gate = PromotionGate(min_runs=6)
        shadow = make_shadow(space_x86, 1.0, n_pairs=0)
        decision, test, reason = gate.evaluate(shadow)
        assert decision == DECISION_EXTEND
        assert test is None
        # Mixed-sign pairs below the minimum: keep extending.
        shadow = make_shadow(space_x86, 1.0, n_pairs=0)
        for challenger_s in (49.0, 51.0, 48.5, 51.5):
            shadow.pairs.append(
                ShadowPair(datasize_gb=100.0, incumbent_s=50.0,
                           challenger_s=challenger_s)
            )
        decision, test, reason = gate.evaluate(shadow)
        assert decision == DECISION_EXTEND
        assert "4/6" in reason

    def test_early_stop_promotes_on_clear_dominance(self, space_x86):
        gate = PromotionGate(min_runs=8)
        shadow = make_shadow(space_x86, 1.5, n_pairs=3, noise=0.05, seed=2)
        decision, test, reason = gate.evaluate(shadow)
        assert decision == DECISION_PROMOTE
        assert test.significant and test.winner == "challenger"
        assert "early stop" in reason

    def test_early_stop_rejects_on_clear_dominance(self, space_x86):
        gate = PromotionGate(min_runs=8)
        shadow = make_shadow(space_x86, 1 / 1.5, n_pairs=3, noise=0.05, seed=2)
        decision, test, reason = gate.evaluate(shadow)
        assert decision == DECISION_REJECT
        assert test.winner == "baseline"

    def test_promotes_at_min_runs_when_significant(self, space_x86):
        gate = PromotionGate(min_runs=6)
        shadow = make_shadow(space_x86, 1.2, n_pairs=6, noise=0.1, seed=3)
        decision, test, reason = gate.evaluate(shadow)
        assert decision == DECISION_PROMOTE
        assert test.ci_low > 0.0

    def test_rejects_at_budget_without_significance(self, space_x86):
        gate = PromotionGate(min_runs=2)
        assert gate.max_runs == SHADOW_BUDGET_FACTOR * 2
        shadow = make_shadow(space_x86, 1.0, n_pairs=gate.max_runs, noise=0.3, seed=7)
        decision, test, reason = gate.evaluate(shadow)
        assert decision == DECISION_REJECT
        assert "budget" in reason

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            PromotionGate(min_runs=0)
        with pytest.raises(ValueError):
            PromotionGate(alpha=1.5)

    def test_evaluate_is_deterministic(self, space_x86):
        gate = PromotionGate(min_runs=4)
        shadow = make_shadow(space_x86, 1.1, n_pairs=5, noise=0.2, seed=9)
        assert gate.evaluate(shadow) == gate.evaluate(shadow)

    def test_shadow_state_json_round_trip(self, space_x86):
        shadow = make_shadow(space_x86, 1.2, n_pairs=3, noise=0.1, seed=4)
        restored = ShadowState.from_json(json.loads(json.dumps(shadow.to_json())))
        assert restored.run_id == shadow.run_id
        assert restored.incumbent == shadow.incumbent
        assert restored.challenger == shadow.challenger
        assert restored.pairs == shadow.pairs
        assert restored.seed == shadow.seed
        # The verdict machinery sees an identical shadow.
        gate = PromotionGate(min_runs=3)
        assert gate.evaluate(restored) == gate.evaluate(shadow)

    def test_winner_record_carries_provenance(self, space_x86):
        gate = PromotionGate(min_runs=3)
        shadow = make_shadow(space_x86, 1.4, n_pairs=4, noise=0.05, seed=2)
        decision, test, reason = gate.evaluate(shadow)
        record = winner_record(shadow, decision, test, reason)
        assert record["run_id"] == shadow.run_id
        assert record["decision"] == decision
        assert record["n_pairs"] == 4
        assert record["baseline"]["config"] == shadow.incumbent.as_dict()
        assert record["challenger"]["config"] == shadow.challenger.as_dict()
        assert record["ab"]["ci_low"] < record["ab"]["ci_high"]
        assert record["ab"]["alpha"] == 0.05
        assert len(record["pairs"]) == 4
        json.dumps(record)  # JSON-safe end to end


# ----------------------------------------------------------------------
# Controller integration (stubbed LOCAT: free retunes, pure gate logic)
# ----------------------------------------------------------------------
class _StubLocat:
    """Fixed expectation, free retunes, distinct challenger config."""

    max_iterations = 25

    def __init__(self, space):
        self.space = space
        self.config = space.default()
        self.challenger = space.sample(0)
        self.tune_calls = []
        self.adapt_calls = []

    def _result(self, datasize_gb, config):
        return TuningResult(
            tuner="stub", application="stub", datasize_gb=datasize_gb,
            best_config=config, best_duration_s=50.0 * datasize_gb / 100.0,
            overhead_s=0.0, evaluations=0,
        )

    def tune(self, datasize_gb):
        self.tune_calls.append(datasize_gb)
        # The initial tune deploys the default; later tunes propose the
        # distinct challenger, so datasize retunes exercise the gate.
        config = self.config if not self.tune_calls[:-1] else self.challenger
        return self._result(datasize_gb, config)

    def adapt(self, datasize_gb, max_iterations=None):
        self.adapt_calls.append((datasize_gb, max_iterations))
        return self._result(datasize_gb, self.challenger)

    def predict_log_duration(self, config, datasize_gb):
        # The fixed expectation, as a near-certain model prediction.
        return math.log(50.0 * datasize_gb / 100.0), 0.0


def make_shadow_controller(space, challenger_factor, **kwargs):
    """Shadow-mode controller whose shadow measure is deterministic:
    the incumbent takes 50s/100GB, the challenger ``challenger_factor``
    times that (``<1`` means faster)."""
    locat = _StubLocat(space)

    def measure(config, datasize_gb, rng):
        base = 50.0 * datasize_gb / 100.0
        if config_key(config) == config_key(locat.challenger):
            return base * challenger_factor
        return base

    kwargs.setdefault("shadow_runs", 3)
    controller = OnlineController(locat, shadow_measure=measure, **kwargs)
    return controller, locat


def force_drift(controller, base=50.0):
    """One 3x-slow run at 100 GB trips the drift detector."""
    controller.observe(100.0)  # initial deploy
    return controller.observe(100.0, duration_s=base * 3.0)


class TestControllerShadow:
    def test_promotion_mode_validation(self, space_x86):
        # The gate is the only promotion path: there is no mode to pick.
        with pytest.raises(TypeError, match="promotion"):
            OnlineController(_StubLocat(space_x86), promotion="shadow_ab")
        with pytest.raises(ValueError):
            OnlineController(_StubLocat(space_x86), shadow_runs=0)
        with pytest.raises(ValueError):
            OnlineController(_StubLocat(space_x86), ab_alpha=2.0)

    def test_drift_retune_opens_shadow_not_deploy(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 0.5)
        incumbent = controller.deployed_config if controller.is_deployed else None
        decision = force_drift(controller)
        assert decision.retuned
        assert decision.trigger == "drift"
        assert "shadow" in decision.reason
        assert decision.promotion["phase"] == "shadow_started"
        assert controller.shadow_active
        # The challenger is NOT deployed: production keeps the incumbent.
        assert config_key(controller.deployed_config) == config_key(locat.config)
        assert locat.adapt_calls  # the retune itself did run

    def test_faster_challenger_promoted(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 0.5)
        force_drift(controller)
        decisions = []
        for _ in range(10):
            decisions.append(controller.observe(100.0, duration_s=50.0))
            if not controller.shadow_active:
                break
        final = decisions[-1]
        assert final.promotion["phase"] == "promoted"
        # The retune was reported when the shadow opened; the verdict
        # on production pairs is not a second one.
        assert not final.retuned and final.trigger == "none"
        assert final.result is None
        assert config_key(controller.deployed_config) == config_key(locat.challenger)
        assert controller.promotion_status()["promoted"] == 1
        # Clear dominance stops early: 3 pairs, not the full budget.
        assert final.promotion["n_pairs"] == 3
        [event] = controller.promotion_events
        assert event["decision"] == DECISION_PROMOTE
        assert event["ab"]["significant"]

    def test_slower_challenger_rejected(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 2.0)
        force_drift(controller)
        while controller.shadow_active:
            decision = controller.observe(100.0, duration_s=50.0)
        assert decision.promotion["phase"] == "rejected"
        assert not decision.retuned
        assert config_key(controller.deployed_config) == config_key(locat.config)
        assert controller.promotion_status()["rejected"] == 1
        [event] = controller.promotion_events
        assert event["decision"] == DECISION_REJECT
        assert event["ab"]["winner"] == "baseline"

    def test_indistinguishable_challenger_rejected_at_budget(self, space_x86):
        controller, _ = make_shadow_controller(space_x86, 1.0, shadow_runs=2)
        force_drift(controller)
        n = 0
        while controller.shadow_active:
            decision = controller.observe(100.0, duration_s=50.0)
            n += 1
        assert decision.promotion["phase"] == "rejected"
        assert n == controller._gate.max_runs
        assert "budget" in decision.reason

    def test_datasize_retune_is_gated_too(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 0.5)
        controller.observe(100.0)
        decision = controller.observe(400.0)
        assert decision.trigger == "datasize"
        assert decision.promotion["phase"] == "shadow_started"
        assert controller.shadow_active
        assert config_key(controller.deployed_config) == config_key(locat.config)

    def test_rejected_datasize_challenger_marks_the_size_tuned(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 1.0)
        controller.observe(100.0)
        controller.observe(400.0)
        assert controller.shadow_active
        while controller.shadow_active:
            decision = controller.observe(400.0, duration_s=200.0)
        assert decision.promotion["phase"] == "rejected"
        assert config_key(controller.deployed_config) == config_key(locat.config)
        assert 400.0 in controller.tuned_datasizes
        # The incumbent held its place at 400 GB: another observe there
        # neither re-tunes nor reopens the shadow.
        tunes = len(locat.tune_calls)
        assert not controller.would_retune(400.0)
        decision = controller.observe(400.0, duration_s=200.0)
        assert not decision.retuned
        assert len(locat.tune_calls) == tunes
        assert not controller.shadow_active

    def test_retunes_suppressed_during_shadow(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 1.0, shadow_runs=4)
        force_drift(controller)
        tunes_before = len(locat.tune_calls) + len(locat.adapt_calls)
        # A datasize jump mid-shadow advances the shadow instead of
        # racing a second candidate for the deployment slot.
        decision = controller.observe(400.0, duration_s=50.0)
        assert decision.promotion["phase"] == "shadow"
        assert len(locat.tune_calls) + len(locat.adapt_calls) == tunes_before
        # The pair was measured at the observed datasize.
        assert controller._shadow.pairs[-1].datasize_gb == 400.0

    def test_reconfirming_retune_redeploys_immediately(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 1.0)
        locat.challenger = locat.config  # adapt returns the incumbent
        decision = force_drift(controller)
        assert decision.retuned
        assert decision.promotion == {"phase": "reconfirmed"}
        assert not controller.shadow_active
        assert controller.promotion_events == []

    def test_promotion_state_round_trip_mid_shadow(self, space_x86):
        controller, locat = make_shadow_controller(space_x86, 0.5, shadow_runs=5)
        force_drift(controller)
        controller.observe(100.0, duration_s=50.0)  # one pair measured
        snapshot = json.loads(json.dumps(controller.promotion_state()))
        assert snapshot["shadow"]["pairs"]
        assert "mode" not in snapshot
        # Earlier versions wrote the promotion mode too; it is ignored.
        snapshot["mode"] = "immediate"

        resumed, locat2 = make_shadow_controller(space_x86, 0.5, shadow_runs=5)
        resumed.observe(100.0)  # deploy so state exists
        resumed.restore_promotion(snapshot)
        assert resumed.shadow_active
        assert len(resumed._shadow.pairs) == 1
        # The resumed shadow finishes with the same verdict and pairs.
        while resumed.shadow_active:
            decision = resumed.observe(100.0, duration_s=50.0)
        assert decision.promotion["phase"] == "promoted"
        assert config_key(resumed.deployed_config) == config_key(locat2.challenger)

    def test_status_shape(self, space_x86):
        controller, _ = make_shadow_controller(space_x86, 0.5)
        status = controller.promotion_status()
        assert status == {
            "shadow_active": False, "shadow": None,
            "promoted": 0, "rejected": 0, "last_decision": None,
        }
        force_drift(controller)
        status = controller.promotion_status()
        assert status["shadow_active"]
        assert status["shadow"]["run_id"] == "shadow-drift-0001"
        assert status["shadow"]["n_pairs"] == 0


# ----------------------------------------------------------------------
# Service integration: tenant keys, winners.json, restart survival
# ----------------------------------------------------------------------
TINY_TUNER = {
    "n_qcsa": 10, "n_iicp": 8, "max_iterations": 6,
    "min_iterations": 3, "n_mcmc": 0,
}

SHADOW_CONTROLLER = {"shadow_runs": 2, "ab_alpha": 0.05}


class TestServicePromotion:
    def test_tenant_keys_validated_before_store_write(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        cases = [
            # The retired mode key is rejected whatever its value.
            {"promotion": "shadow_ab"},
            {"promotion": "immediate"},
            {"shadow_runs": 0},
            {"shadow_runs": True},
            {"shadow_runs": "6"},
            {"ab_alpha": 0.0},
            {"ab_alpha": 1.0},
            {"ab_alpha": True},
            {"ab_alpha": "0.05"},
        ]
        for controller in cases:
            with pytest.raises(ValueError):
                registry.register("app", benchmark="join", controller=controller)
            # Nothing persisted: the id is still free, and a service
            # restart cannot trip over a poisoned registration.
            assert not registry.store.has_app("app")
        registry.register(
            "app", benchmark="join",
            controller={"shadow_runs": 4, "ab_alpha": 0.1},
        )
        assert registry.store.has_app("app")

    def test_registry_default_promotion_applies(self, tmp_path):
        """A tenant that sets nothing still gates its retunes."""
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        base = registry.observe("app", 100.0).result.best_duration_s
        decision = registry.observe("app", 100.0, duration_s=base * 3.0)
        assert decision.retuned and decision.trigger == "drift"
        assert decision.promotion["phase"] == "shadow_started"
        assert registry.get("app").controller.shadow_active

    def test_default_promotion_validation(self, tmp_path):
        # There is no service-wide promotion default to set any more.
        with pytest.raises(TypeError, match="default_promotion"):
            TuningRegistry(
                HistoryStore(tmp_path), rehydrate=False, default_promotion="shadow_ab"
            )

    def test_status_includes_promotion_block(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        session = registry.register(
            "app", benchmark="join", seed=7, tuner=TINY_TUNER,
            controller=SHADOW_CONTROLLER,
        )
        status = session.status()["promotion"]
        assert status == {
            "shadow_active": False, "shadow": None,
            "promoted": 0, "rejected": 0, "last_decision": None,
        }
        base = registry.observe("app", 100.0).result.best_duration_s
        opened = registry.observe("app", 100.0, duration_s=base * 3.0)
        status = session.status()["promotion"]
        assert status["shadow_active"] is True
        assert status["shadow"]["run_id"] == opened.promotion["run_id"]
        assert status["shadow"]["min_runs"] == 2
        assert status["shadow"]["max_runs"] == SHADOW_BUDGET_FACTOR * 2

    def test_promotion_through_pairs_counts_one_retune(self, tmp_path):
        """One drift session counts as one retune, also when its winner
        is promoted later by production pairs."""
        registry = TuningRegistry(HistoryStore(tmp_path), rehydrate=False)
        # Seed 1's drift retune wins its shadow on production pairs.
        registry.register("app", benchmark="join", seed=1, tuner=TINY_TUNER)
        base = registry.observe("app", 100.0).result.best_duration_s
        decisions = [registry.observe("app", 100.0, duration_s=base * 3.0)]
        assert decisions[0].promotion["phase"] == "shadow_started"
        while registry.get("app").controller.shadow_active:
            decisions.append(registry.observe("app", 100.0, duration_s=base * 3.0))
        assert decisions[-1].promotion["phase"] == "promoted"
        assert "replay_pairs" not in decisions[-1].promotion
        assert [d.retuned for d in decisions] == [True] + [False] * (len(decisions) - 1)
        status = registry.get("app").status()
        # The initial session and the drift session.
        assert status["retunes"] == 2
        assert status["promotion"]["promoted"] == 1

    def test_shadow_survives_restart_and_writes_winners(self, tmp_path):
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(store, rehydrate=False)
        registry.register(
            "app", benchmark="join", seed=7, tuner=TINY_TUNER,
            controller=SHADOW_CONTROLLER,
        )
        first = registry.observe("app", 100.0)
        base = first.result.best_duration_s
        opened = registry.observe("app", 100.0, duration_s=base * 3.0)
        assert opened.promotion["phase"] == "shadow_started"
        in_flight = registry.observe("app", 100.0, duration_s=base)
        assert in_flight.promotion["phase"] == "shadow"

        # Restart mid-shadow: the in-flight shadow rehydrates intact.
        restarted = TuningRegistry(store, rehydrate=True)
        session = restarted.get("app")
        assert session.controller.shadow_active
        assert len(session.controller._shadow.pairs) == 1
        assert session.controller._shadow.run_id == opened.promotion["run_id"]
        incumbent = session.controller.deployed_config

        # Drive the resumed shadow to its verdict.
        decision = restarted.observe("app", 100.0, duration_s=base)
        while decision.promotion and decision.promotion["phase"] == "shadow":
            decision = restarted.observe("app", 100.0, duration_s=base)
        assert decision.promotion["phase"] in ("promoted", "rejected")

        winners = store.load_winners("app")
        assert len(winners) == 1
        record = winners[0]
        assert record["decision"] in (DECISION_PROMOTE, DECISION_REJECT)
        assert record["run_id"] == opened.promotion["run_id"]
        assert record["ab"] is not None and "ci_low" in record["ab"]
        assert record["decided_at"] > 0

        # The record and counters survive yet another restart.
        final = TuningRegistry(store, rehydrate=True)
        assert store.load_winners("app") == winners
        status = final.get("app").status()["promotion"]
        assert status["promoted"] + status["rejected"] == 1
        assert status["last_decision"]["run_id"] == record["run_id"]
        if decision.promotion["phase"] == "rejected":
            assert config_key(final.get("app").controller.deployed_config) == (
                config_key(incumbent)
            )

    def test_immediate_tenant_deployed_json_unchanged(self, tmp_path):
        """A tenant that never opened a shadow keeps the deployed.json
        schema immediate-mode tenants wrote (no promotion block)."""
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(store, rehydrate=False)
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        deployment = store.load_deployment("app")
        assert deployment is not None
        assert "promotion" not in deployment
