"""Tests for the BO loop."""

import numpy as np
import pytest

from repro.core.tuner import BOLoop, BOTrace


def quadratic(point, datasize):
    """Minimum 10*ds at point = 0.3 (per dimension)."""
    return float(10.0 * (datasize / 100.0) * (1.0 + np.sum((point - 0.3) ** 2)))


class TestBOTrace:
    def test_best_restricted_by_datasize(self):
        trace = BOTrace()
        trace.points = [np.array([0.1]), np.array([0.2])]
        trace.datasizes = [100.0, 200.0]
        trace.durations = [5.0, 1.0]
        point, duration = trace.best(100.0)
        assert duration == 5.0
        point, duration = trace.best()
        assert duration == 1.0

    def test_best_empty_raises(self):
        with pytest.raises(RuntimeError):
            BOTrace().best()

    def test_best_unknown_datasize_raises(self):
        """No silent fallback: a cheaper datasize's duration must never
        masquerade as the incumbent at the requested size."""
        trace = BOTrace()
        trace.points = [np.array([0.1]), np.array([0.2])]
        trace.datasizes = [100.0, 200.0]
        trace.durations = [5.0, 1.0]
        with pytest.raises(RuntimeError, match="no evaluations recorded at datasize"):
            trace.best(300.0)

    def test_best_accepts_int_datasize(self):
        trace = BOTrace()
        trace.points = [np.array([0.1])]
        trace.datasizes = [100.0]
        trace.durations = [5.0]
        _, duration = trace.best(100)
        assert duration == 5.0


    def test_own_indices_filters_fidelity_and_datasize(self):
        trace = BOTrace()
        trace.points = [np.array([0.1]), np.array([0.2]), np.array([0.3])]
        trace.datasizes = [100.0, 200.0, 100.0]
        trace.durations = [5.0, 1.0, 0.5]
        trace.fidelities = [0.0, 0.0, 1.0]
        assert trace.own_indices() == [0, 1]
        assert trace.own_indices(100.0) == [0]
        assert trace.own_indices(300.0) == []


class TestBOLoop:
    def test_anchors_are_own_rows_at_target(self, monkeypatch):
        """A cheaper donor (fidelity-1) row and a cheaper row at another
        datasize never anchor the exploitation jitter: their durations
        are on another scale, exactly as for the incumbent."""
        import repro.core.tuner as tuner_module

        seen = []
        real = tuner_module.maximize_acquisition

        def spy(score, dim, **kwargs):
            seen.append(np.array(kwargs["anchors"]))
            return real(score, dim, **kwargs)

        monkeypatch.setattr(tuner_module, "maximize_acquisition", spy)
        own = np.array([[0.2, 0.2], [0.4, 0.4], [0.6, 0.6], [0.8, 0.8]])
        donor = np.array([0.95, 0.05])
        other_size = np.array([0.05, 0.95])
        loop = BOLoop(dim=2, n_init=3, min_iterations=3, max_iterations=3, n_mcmc=0,
                      ei_threshold=0.0, rng=6)
        loop.minimize(
            quadratic,
            100.0,
            warm_points=np.vstack([own, donor, other_size]),
            warm_datasizes=np.array([100.0] * 4 + [100.0, 50.0]),
            warm_durations=np.array([quadratic(p, 100.0) for p in own] + [0.5, 0.4]),
            warm_fidelities=np.array([0.0] * 4 + [1.0, 0.0]),
        )
        assert seen
        for anchors in seen:
            assert anchors.shape[0] == 3
            for row in anchors:
                assert not np.allclose(row, donor)
                assert not np.allclose(row, other_size)
        np.testing.assert_array_equal(seen[0], own[[0, 1, 2]])

    def test_converges_on_quadratic(self):
        loop = BOLoop(dim=2, n_init=3, min_iterations=5, max_iterations=20, n_mcmc=0, rng=0)
        trace = loop.minimize(quadratic, 100.0)
        point, duration = trace.best(100.0)
        assert duration < 12.0  # optimum is 10
        assert np.all(np.abs(point - 0.3) < 0.35)

    def test_respects_max_iterations(self):
        loop = BOLoop(dim=2, n_init=3, min_iterations=8, max_iterations=8, n_mcmc=0,
                      ei_threshold=0.0, rng=1)
        trace = loop.minimize(quadratic, 100.0)
        assert trace.n_evaluations == 8

    def test_ei_stop_triggers_on_flat_objective(self):
        def flat(point, ds):
            return 100.0

        loop = BOLoop(dim=1, n_init=3, min_iterations=4, max_iterations=30, n_mcmc=0, rng=2)
        trace = loop.minimize(flat, 100.0)
        assert trace.stopped_by_ei
        assert trace.n_evaluations < 30

    def test_warm_data_counts_for_surrogate_not_budget(self):
        warm_points = np.random.default_rng(3).random((6, 2))
        warm_durations = np.array([quadratic(p, 100.0) for p in warm_points])
        loop = BOLoop(dim=2, n_init=3, min_iterations=3, max_iterations=5, n_mcmc=0,
                      ei_threshold=0.0, rng=3)
        trace = loop.minimize(
            quadratic,
            100.0,
            warm_points=warm_points,
            warm_datasizes=np.full(6, 100.0),
            warm_durations=warm_durations,
        )
        assert trace.n_evaluations == 6 + 5

    def test_warm_at_target_skips_lhs(self):
        warm_points = np.random.default_rng(4).random((4, 2))
        warm_durations = np.array([quadratic(p, 100.0) for p in warm_points])
        calls = []

        def counting(point, ds):
            calls.append(point)
            return quadratic(point, ds)

        loop = BOLoop(dim=2, n_init=3, min_iterations=2, max_iterations=2, n_mcmc=0,
                      ei_threshold=0.0, rng=4)
        loop.minimize(
            counting, 100.0,
            warm_points=warm_points,
            warm_datasizes=np.full(4, 100.0),
            warm_durations=warm_durations,
        )
        assert len(calls) == 2  # no LHS re-seeding

    def test_custom_bounds(self):
        low = np.array([10.0, 10.0])
        high = np.array([20.0, 20.0])

        def shifted(point, ds):
            return float(np.sum((point - 15.0) ** 2) + 1.0)

        loop = BOLoop(dim=2, bounds=(low, high), n_init=3, min_iterations=5,
                      max_iterations=15, n_mcmc=0, rng=5)
        trace = loop.minimize(shifted, 100.0)
        for point in trace.points:
            assert np.all(point >= low) and np.all(point <= high)
        _, best = trace.best(100.0)
        assert best < 15.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BOLoop(dim=2, bounds=(np.zeros(2), np.zeros(2)))

    def test_small_budget_shrinks_initial_design(self):
        loop = BOLoop(dim=2, n_init=3, min_iterations=1, max_iterations=1,
                      ei_threshold=0.0, n_mcmc=0, rng=6)
        trace = loop.minimize(quadratic, 100.0)
        assert trace.n_evaluations == 1

    def test_stop_rule_fires_at_min_iterations_exactly(self):
        """Regression: the paper's rule is "at least min_iterations, then
        stop"; the loop used ``>`` and needed min_iterations + 1 checks.
        With an always-satisfied threshold the loop must stop at check
        number min_iterations, i.e. after n_init + min_iterations - 1
        evaluations."""
        evaluations = []

        def counting(point, ds):
            evaluations.append(point)
            return quadratic(point, ds)

        loop = BOLoop(dim=2, n_init=3, min_iterations=4, max_iterations=30,
                      n_mcmc=0, ei_threshold=1e9, rng=0)
        trace = loop.minimize(counting, 100.0)
        assert trace.stopped_by_ei
        assert len(trace.ei_values) == 4  # exactly min_iterations EI checks
        assert len(evaluations) == 3 + 4 - 1
        assert trace.n_evaluations == 6

    def test_warm_only_at_other_datasize_anchors_at_target(self):
        """With warm data entirely at other datasizes and no initial
        design, the loop re-measures the best warm point at the target
        instead of leaking the cheaper datasize's incumbent."""
        warm_points = np.random.default_rng(8).random((4, 2))
        warm_durations = np.array([quadratic(p, 100.0) for p in warm_points])
        calls = []

        def counting(point, ds):
            calls.append((point.copy(), ds))
            return quadratic(point, ds)

        loop = BOLoop(dim=2, n_init=0, min_iterations=2, max_iterations=4,
                      n_mcmc=0, ei_threshold=0.0, rng=8)
        trace = loop.minimize(
            counting, 300.0,
            warm_points=warm_points,
            warm_datasizes=np.full(4, 100.0),
            warm_durations=warm_durations,
        )
        best_warm = warm_points[int(np.argmin(warm_durations))]
        first_point, first_ds = calls[0]
        assert first_ds == 300.0
        assert np.allclose(first_point, best_warm)
        _, best = trace.best(300.0)
        assert best >= 30.0  # a genuine 300 GB duration, not a 100 GB leak

    def test_mixed_datasize_warm_data(self):
        warm_points = np.random.default_rng(7).random((5, 2))
        warm_ds = np.array([100.0, 100.0, 300.0, 300.0, 300.0])
        warm_durations = np.array([quadratic(p, d) for p, d in zip(warm_points, warm_ds)])
        loop = BOLoop(dim=2, n_init=3, min_iterations=3, max_iterations=6, n_mcmc=0,
                      ei_threshold=0.0, rng=7)
        trace = loop.minimize(
            quadratic, 300.0,
            warm_points=warm_points,
            warm_datasizes=warm_ds,
            warm_durations=warm_durations,
        )
        _, best = trace.best(300.0)
        assert best < 45.0  # optimum at 300 GB is 30
