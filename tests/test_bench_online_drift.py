"""Tests for the gate of ``benchmarks/bench_online_drift.py``.

The benchmark script is loaded by path: it is not a package module, but
its ``check`` is the one gate its script mode and its pytest form share.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_online_drift.py"
_spec = importlib.util.spec_from_file_location("bench_online_drift", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

COLD_EVALS = 30


def result(scenario, delay, onset=10):
    retunes = [] if delay is None else [{"step": onset + delay, "evals": 5}]
    return {
        "scenario": scenario,
        "onset": onset,
        "delay": delay,
        "false_triggers": 0,
        "drift_retunes": retunes,
    }


def full_suite(**delays):
    """Every scenario of the full run, detected one run after onset
    unless ``delays`` says otherwise."""
    scenarios = ("abrupt_skew", "gradual_skew", "degradation", "node_loss")
    results = [result(name, delays.get(name, 1)) for name in scenarios]
    return results + [result("stable", None, onset=None)]


def test_a_missed_required_detection_fails():
    assert bench.check(full_suite(), COLD_EVALS) == []
    for scenario in bench.MUST_DETECT:
        failures = bench.check(full_suite(**{scenario: None}), COLD_EVALS)
        assert failures == [f"Page-Hinkley missed the drift on {scenario}"]


def test_required_scenarios_that_were_not_run_are_not_required():
    # The smoke run drives the control stream and degradation only.
    results = [result("stable", None, onset=None), result("degradation", 1)]
    assert bench.check(results, COLD_EVALS, ratio_delays=bench.RATIO_RULE_SMOKE_DELAYS) == []
