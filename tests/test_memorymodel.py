"""Tests for the executor memory / GC / OOM model."""

import numpy as np
import pytest

from repro.sparksim.configspace import ConfigSpace
from repro.sparksim.memorymodel import (
    OOM_PRESSURE,
    evaluate_task_memory,
    task_memory_budget,
)


@pytest.fixture()
def space():
    return ConfigSpace("x86")


class TestBudget:
    def test_more_heap_more_budget(self, space):
        small = task_memory_budget(space.make(**{"executor.memory": 4}))
        large = task_memory_budget(space.make(**{"executor.memory": 32}))
        assert large.heap_gb > small.heap_gb

    def test_more_cores_less_budget_per_task(self, space):
        one = task_memory_budget(space.make(**{"executor.cores": 1}))
        eight = task_memory_budget(space.make(**{"executor.cores": 8}))
        assert eight.heap_gb < one.heap_gb

    def test_memory_fraction_scales_budget(self, space):
        lo = task_memory_budget(space.make(**{"memory.fraction": 0.5}))
        hi = task_memory_budget(space.make(**{"memory.fraction": 0.9}))
        assert hi.heap_gb > lo.heap_gb

    def test_storage_fraction_shrinks_execution(self, space):
        lo = task_memory_budget(space.make(**{"memory.storageFraction": 0.5}))
        hi = task_memory_budget(space.make(**{"memory.storageFraction": 0.9}))
        assert hi.heap_gb < lo.heap_gb

    def test_offheap_only_when_enabled(self, space):
        off = task_memory_budget(
            space.make(**{"memory.offHeap.enabled": False, "memory.offHeap.size": 8192})
        )
        on = task_memory_budget(
            space.make(**{"memory.offHeap.enabled": True, "memory.offHeap.size": 8192})
        )
        assert off.offheap_gb == 0.0
        assert on.offheap_gb > 0.0
        assert on.total_gb > off.total_gb


class TestOutcome:
    def test_small_working_set_is_calm(self, space):
        config = space.make(**{"executor.memory": 32, "executor.cores": 1})
        outcome = evaluate_task_memory(0.1, task_memory_budget(config))
        assert outcome.gc_fraction < 0.1
        assert outcome.spill_gb == 0.0
        assert not outcome.oom

    def test_gc_grows_with_pressure(self, space):
        config = space.make(**{"executor.memory": 4, "executor.cores": 8})
        calm = evaluate_task_memory(0.05, task_memory_budget(config))
        stressed = evaluate_task_memory(2.0, task_memory_budget(config))
        assert stressed.gc_fraction > calm.gc_fraction

    def test_oom_at_extreme_pressure(self, space):
        config = space.make(**{"executor.memory": 4, "executor.cores": 16,
                               "memory.offHeap.enabled": False})
        outcome = evaluate_task_memory(50.0, task_memory_budget(config))
        assert outcome.heap_pressure > OOM_PRESSURE
        assert outcome.oom

    def test_offheap_relieves_pressure(self, space):
        base = {"executor.memory": 8, "executor.cores": 4}
        without = evaluate_task_memory(
            3.0, task_memory_budget(space.make(**base, **{"memory.offHeap.enabled": False}))
        )
        with_off = evaluate_task_memory(
            3.0,
            task_memory_budget(
                space.make(**base, **{"memory.offHeap.enabled": True, "memory.offHeap.size": 16384})
            ),
        )
        assert with_off.heap_pressure < without.heap_pressure
        assert with_off.gc_fraction <= without.gc_fraction

    def test_spill_when_over_budget(self, space):
        config = space.make(**{"executor.memory": 4, "executor.cores": 8,
                               "memory.offHeap.enabled": False})
        outcome = evaluate_task_memory(4.0, task_memory_budget(config))
        assert outcome.spill_gb > 0

    def test_negative_working_set_rejected(self, space):
        with pytest.raises(ValueError):
            evaluate_task_memory(-1.0, task_memory_budget(space.default()))

    def test_gc_fraction_capped(self, space):
        config = space.make(**{"executor.memory": 4, "executor.cores": 16,
                               "memory.offHeap.enabled": False})
        outcome = evaluate_task_memory(100.0, task_memory_budget(config))
        assert outcome.gc_fraction <= 5.0


def _outcome_loop(working_set_gb, budget):
    """The per-task scalar formula the array model is checked against."""
    heap_set_gb = working_set_gb
    if budget.offheap_gb > 0:
        heap_set_gb = working_set_gb - min(working_set_gb * 0.6, budget.offheap_gb)
    pressure = heap_set_gb / max(budget.heap_gb, 1e-6)
    gc_fraction = 0.02 + 0.08 * min(pressure, 1.0) ** 2
    if pressure > 1.0:
        gc_fraction += 0.35 * min(pressure - 1.0, 1.0) ** 1.3
    if pressure > 2.0:
        gc_fraction += 2.0 * min(pressure - 2.0, 2.0) ** 2
    spill_gb = max(heap_set_gb - 1.2 * budget.heap_gb, 0.0)
    return min(gc_fraction, 5.0), spill_gb, pressure > OOM_PRESSURE, pressure


class TestArrayOutcome:
    """One call over an array gives, element by element, the floats of the
    scalar formula (its powers are libm's, as Python's ``**``)."""

    @pytest.mark.parametrize("offheap", [False, True])
    def test_matches_scalar_loop(self, space, offheap):
        budget = task_memory_budget(space.make(**{
            "executor.memory": 8, "executor.cores": 4,
            "memory.offHeap.enabled": offheap, "memory.offHeap.size": 4096,
        }))
        rng = np.random.default_rng(5)
        # Pressures from calm through the thrashing tail and past OOM.
        working_sets = np.concatenate([[0.0], rng.random(3000) * 12.0 * budget.heap_gb])
        outcome = evaluate_task_memory(working_sets, budget)
        for i, ws in enumerate(working_sets.tolist()):
            gc_fraction, spill_gb, oom, pressure = _outcome_loop(ws, budget)
            assert outcome.gc_fraction[i].hex() == gc_fraction.hex()
            assert outcome.spill_gb[i].hex() == spill_gb.hex()
            assert bool(outcome.oom[i]) is oom
            assert outcome.heap_pressure[i].hex() == pressure.hex()

    def test_scalar_in_scalar_out(self, space):
        outcome = evaluate_task_memory(1.0, task_memory_budget(space.default()))
        assert all(np.ndim(field) == 0 for field in outcome)
