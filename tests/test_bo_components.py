"""Tests for LHS, acquisition functions, slice sampling, and the optimizer."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.bo.acquisition import (
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import RBFKernel
from repro.bo.lhs import latin_hypercube
from repro.bo.mcmc import slice_sample_chain
from repro.bo.optimize import AcquisitionPool, maximize_acquisition


class TestLatinHypercube:
    def test_shape_and_bounds(self):
        samples = latin_hypercube(10, 4, rng=0)
        assert samples.shape == (10, 4)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_stratification(self):
        # Exactly one sample per 1/n stratum per dimension.
        n = 20
        samples = latin_hypercube(n, 3, rng=1)
        for j in range(3):
            strata = np.floor(samples[:, j] * n).astype(int)
            assert sorted(strata.tolist()) == list(range(n))

    def test_reproducible(self):
        np.testing.assert_array_equal(latin_hypercube(5, 2, rng=7), latin_hypercube(5, 2, rng=7))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, 3)
        with pytest.raises(ValueError):
            latin_hypercube(3, 0)


class TestAcquisitions:
    def test_ei_zero_when_hopeless(self):
        ei = expected_improvement(np.array([10.0]), np.array([1e-9]), best=0.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_equals_improvement_when_certain(self):
        ei = expected_improvement(np.array([1.0]), np.array([1e-9]), best=3.0)
        assert ei[0] == pytest.approx(2.0, abs=1e-6)

    def test_ei_closed_form(self):
        mean, std, best = 1.0, 0.5, 1.2
        z = (best - mean) / std
        expected = (best - mean) * norm.cdf(z) + std * norm.pdf(z)
        assert expected_improvement(np.array([mean]), np.array([std]), best)[0] == pytest.approx(expected)

    def test_ei_grows_with_uncertainty(self):
        low = expected_improvement(np.array([2.0]), np.array([0.1]), best=1.0)
        high = expected_improvement(np.array([2.0]), np.array([2.0]), best=1.0)
        assert high[0] > low[0]

    def test_pi_is_probability(self):
        pi = probability_of_improvement(np.array([0.0, 5.0]), np.array([1.0, 1.0]), best=1.0)
        assert np.all(pi >= 0) and np.all(pi <= 1)
        assert pi[0] > pi[1]

    def test_ucb_prefers_low_mean_high_std(self):
        ucb = upper_confidence_bound(np.array([1.0, 1.0]), np.array([0.1, 1.0]))
        assert ucb[1] > ucb[0]
        ucb2 = upper_confidence_bound(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert ucb2[0] > ucb2[1]


class TestSliceSampling:
    @pytest.fixture()
    def fitted_gp(self):
        rng = np.random.default_rng(2)
        x = rng.random((25, 2))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
        gp = GaussianProcess(RBFKernel(dim=2, lengthscale=0.4), noise_variance=1e-3)
        return gp.fit(x, y)

    def test_returns_requested_samples(self, fitted_gp):
        samples, _ = slice_sample_chain(fitted_gp, n_samples=5, burn_in=5, rng=0)
        assert len(samples) == 5
        assert all(s.shape == (fitted_gp.n_hyperparameters,) for s in samples)

    def test_restores_gp_state(self, fitted_gp):
        before = fitted_gp.get_theta().copy()
        slice_sample_chain(fitted_gp, n_samples=3, burn_in=3, rng=1)
        np.testing.assert_allclose(fitted_gp.get_theta(), before)

    def test_samples_have_finite_posterior(self, fitted_gp):
        samples, _ = slice_sample_chain(fitted_gp, n_samples=4, burn_in=5, rng=2)
        for theta in samples:
            assert np.isfinite(fitted_gp.log_marginal_likelihood(theta))

    def test_chain_moves(self, fitted_gp):
        samples, _ = slice_sample_chain(fitted_gp, n_samples=6, burn_in=10, rng=3)
        stacked = np.stack(samples)
        assert np.std(stacked) > 0  # not stuck at the initial point

    def test_requires_fitted_gp(self):
        gp = GaussianProcess(RBFKernel(dim=1))
        with pytest.raises(RuntimeError):
            slice_sample_chain(gp, n_samples=2)


class TestMaximizeAcquisition:
    def test_finds_quadratic_peak(self):
        target = np.array([0.3, 0.7])

        def score(points):
            return -np.sum((points - target) ** 2, axis=1)

        best, value = maximize_acquisition(score, dim=2, pool=AcquisitionPool(256, 0), rng=0)
        np.testing.assert_allclose(best, target, atol=0.05)

    def test_respects_unit_cube(self):
        def score(points):
            return points[:, 0]  # push toward 1

        best, _ = maximize_acquisition(score, dim=3, rng=1)
        assert best[0] >= 0.95
        assert np.all(best <= 1.0)

    def test_anchors_guide_search(self):
        # A needle near the anchor that random search would miss.
        needle = np.full(8, 0.123)

        def score(points):
            return -np.linalg.norm(points - needle, axis=1)

        best_with, _ = maximize_acquisition(
            score, dim=8, pool=AcquisitionPool(16, 4), anchors=needle[None, :] + 0.02, rng=2
        )
        assert np.linalg.norm(best_with - needle) < 0.2

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            maximize_acquisition(lambda p: p[:, 0], dim=0)

    def test_one_score_call_over_pool_and_jitter(self):
        # The search is one vectorized pass: pool.uniform random rows,
        # then pool.jitter // k jitter rows per anchor, in anchor order,
        # scored together; the result is exactly that call's argmax row.
        calls = []

        def score(points):
            calls.append(points.copy())
            return np.sin(7.0 * points).sum(axis=1)

        anchors = np.array([[0.2, 0.4, 0.6], [0.9, 0.1, 0.5]])
        best, value = maximize_acquisition(
            score, dim=3, pool=AcquisitionPool(uniform=40, jitter=24), anchors=anchors, rng=5
        )
        assert len(calls) == 1
        pool = calls[0]
        assert pool.shape == (40 + 24, 3)
        for k, anchor in enumerate(anchors):
            rows = pool[40 + 12 * k : 40 + 12 * (k + 1)]
            assert np.all(np.abs(rows - anchor) < 0.5)
        values = np.sin(7.0 * pool).sum(axis=1)
        np.testing.assert_array_equal(best, pool[np.argmax(values)])
        assert value == float(values.max())

    def test_zero_uniform_rows_scores_only_jitter(self):
        calls = []

        def score(points):
            calls.append(points.copy())
            return -points.sum(axis=1)

        anchors = np.array([[0.5, 0.5], [0.7, 0.3], [0.3, 0.7]])
        maximize_acquisition(
            score, dim=2, pool=AcquisitionPool(uniform=0, jitter=48), anchors=anchors, rng=3
        )
        (pool,) = calls
        assert pool.shape == (48, 2)
        for k, anchor in enumerate(anchors):
            assert np.all(np.abs(pool[16 * k : 16 * (k + 1)] - anchor) < 0.5)

    @pytest.mark.parametrize("anchors", [None, np.empty((0, 2))])
    def test_empty_pool_raises_before_scoring(self, anchors):
        calls = []

        def score(points):
            calls.append(points)
            return points[:, 0]

        with pytest.raises(ValueError, match="pool is empty"):
            maximize_acquisition(
                score, dim=2, pool=AcquisitionPool(uniform=0, jitter=48), anchors=anchors
            )
        assert calls == []

    def test_n_candidates_is_gone(self):
        with pytest.raises(TypeError):
            maximize_acquisition(lambda p: p[:, 0], dim=2, n_candidates=64)

    def test_refine_steps_is_gone(self):
        with pytest.raises(TypeError):
            maximize_acquisition(lambda p: p[:, 0], dim=2, refine_steps=5)
