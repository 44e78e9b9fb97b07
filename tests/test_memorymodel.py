"""Tests for the executor memory / GC / OOM model."""

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
