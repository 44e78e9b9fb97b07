"""Surrogate-engine tests: exact increments, vectorized EI, pinned runs.

Three layers of guarantees:

* **Algebraic equivalence** — ``extend()`` (GP, ModelStack, DAGP)
  matches a from-scratch ``fit()`` on the concatenated data to tight
  tolerance, and the vectorized multi-model acquisition matches the
  historic per-clone Python loop up to round-off.
* **Engine behavior** — LML memoization, resumable sampler chains, the
  fidelity-toggle hyper-parameter carry-over, and the MCMC refresh
  cadence of the incremental path.
* **Pinned seeded trajectories** — a ``BOLoop.minimize`` run and a full
  ``LOCAT.tune`` session reproduce bit for bit: a refactoring of the
  engine (memoized LML, stacked models, incremental extends) must not
  change a single float or RNG draw without re-pinning them.
"""

import numpy as np
import pytest

from repro.bo.acquisition import ndtr
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Matern52Kernel, RBFKernel
import repro.bo.mcmc as mcmc
from repro.bo.mcmc import slice_sample_chain
from repro.core import LOCAT
from repro.core.dagp import MCMC_REFRESH_ROWS, MCMC_WARM_BURN_IN, DatasizeAwareGP
from repro.core.online import OnlineController
from repro.core.tuner import BOLoop
from repro.sparksim import SparkSQLSimulator, get_application
from repro.sparksim.cluster import get_cluster
from repro.sparksim.scenarios import DriftingSimulator, ScenarioStream, build_scenario
from repro.sparksim.serialize import config_to_dict
from repro.surrogate import LMLCache, ModelStack, Surrogate, cholesky_append
from repro.surrogate.incremental import JITTER, add_noise, chol_lower, chol_solve, solve_lower


def quadratic(point, datasize):
    """Minimum 10*ds at point = 0.3 (per dimension)."""
    return float(10.0 * (datasize / 100.0) * (1.0 + np.sum((point - 0.3) ** 2)))


def make_gp(n=25, dim=3, seed=0, kernel_cls=Matern52Kernel, noise=1e-3):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.normal(size=n)
    gp = GaussianProcess(kernel_cls(dim=dim, lengthscale=0.4), noise_variance=noise)
    return gp, x, y


class TestCholeskyAppend:
    def test_matches_full_factorization(self):
        rng = np.random.default_rng(1)
        a = rng.random((12, 4))
        gp, x, y = make_gp(n=12, dim=4, seed=1)
        k_full = gp.kernel(a, a)
        k_full[np.diag_indices_from(k_full)] += 0.01
        from scipy.linalg import cholesky

        reference = cholesky(k_full, lower=True)
        for split in (1, 5, 11):
            lower = cholesky(k_full[:split, :split], lower=True)
            grown = cholesky_append(
                lower, k_full[:split, split:], k_full[split:, split:]
            )
            np.testing.assert_allclose(grown, reference, rtol=1e-10, atol=1e-12)

    def test_shape_validation(self):
        lower = np.eye(3)
        with pytest.raises(ValueError):
            cholesky_append(lower, np.zeros((2, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError):
            cholesky_append(lower, np.zeros((3, 2)), np.ones((1, 1)))

    def test_non_positive_definite_raises(self):
        lower = np.eye(2)
        # New point identical to an old one with zero noise: singular.
        k_cross = np.array([[1.0], [0.0]])
        k_new = np.array([[1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_append(lower, k_cross, k_new)


class TestDirectLapack:
    def spd(self, n=9, seed=4):
        a = np.random.default_rng(seed).random((n, n))
        return a @ a.T + n * np.eye(n)

    def test_factor_matches_scipy_bit_for_bit(self):
        from scipy.linalg import cho_factor, cholesky

        k = self.spd()
        assert np.array_equal(chol_lower(k), cholesky(k, lower=True))
        assert np.array_equal(chol_lower(k, clean=False), cho_factor(k, lower=True)[0])

    def test_solve_matches_scipy_bit_for_bit(self):
        from scipy.linalg import cho_solve, solve_triangular

        k = self.spd()
        rng = np.random.default_rng(5)
        # dpotrf returns Fortran order; a C-ordered factor takes the
        # transposed dtrtrs call, and only the lower triangle is read.
        factors = (
            chol_lower(k),
            np.ascontiguousarray(chol_lower(k)),
            chol_lower(k, clean=False),
            chol_lower(self.spd(n=1)),
        )
        for lower in factors:
            n = lower.shape[0]
            rhs = (rng.random(n), rng.random((n, 3)), np.eye(n), np.asfortranarray(rng.random((n, 2))))
            for b in rhs:
                before = b.copy()
                assert np.array_equal(chol_solve(lower, b), cho_solve((lower, True), b))
                assert np.array_equal(
                    solve_lower(lower, b), solve_triangular(lower, b, lower=True)
                )
                assert np.array_equal(b, before)

    def test_sparse_gp_matches_scipy_bit_for_bit(self, monkeypatch):
        import scipy.linalg

        import repro.surrogate.sparse as sparse_module

        rng = np.random.default_rng(7)
        x, x_star = rng.random((40, 3)), rng.random((15, 3))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]

        def predict():
            gp = sparse_module.SparseGP(
                Matern52Kernel(dim=3, lengthscale=0.4), noise_variance=1e-3, n_inducing=12
            )
            return gp.fit(x[:30], y[:30]).extend(x[30:], y[30:]).predict(x_star)

        direct = predict()
        monkeypatch.setattr(
            sparse_module, "chol_lower",
            lambda a: scipy.linalg.cholesky(a, lower=True, check_finite=False),
        )
        monkeypatch.setattr(
            sparse_module, "chol_solve",
            lambda c, b: scipy.linalg.cho_solve((c, True), b, check_finite=False),
        )
        monkeypatch.setattr(
            sparse_module, "solve_lower",
            lambda c, b: scipy.linalg.solve_triangular(c, b, lower=True, check_finite=False),
        )
        reference = predict()
        for got, want in zip(direct, reference):
            assert np.array_equal(got, want)

    def test_not_positive_definite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            chol_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_log_posterior_maps_linalg_error_to_minus_inf(self, monkeypatch):
        # The slice sampler's step-out stops at -inf: a failed
        # factorization must read as "outside the slice", not crash.
        import repro.bo.gp as gp_module
        from repro.bo.mcmc import _log_posterior

        gp, x, y = make_gp(n=10, seed=6)
        gp.fit(x, y)
        theta = gp.get_theta()
        assert np.isfinite(_log_posterior(gp, theta))

        def not_pd(a, clean=True):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp_module, "chol_lower", not_pd)
        assert _log_posterior(gp, theta + 0.5) == -np.inf

    def test_add_noise_matches_fancy_indexing(self):
        k = self.spd(n=5)
        extra = np.arange(5.0) / 10
        reference = k.copy()
        reference[np.diag_indices_from(reference)] += 1e-3 + JITTER
        reference[np.diag_indices_from(reference)] += extra
        assert add_noise(k, 1e-3, extra) is k
        assert np.array_equal(k, reference)
        with pytest.raises(ValueError):
            add_noise(np.zeros((4, 4)).T, 1e-3)
        with pytest.raises(ValueError):
            add_noise(np.zeros((6, 6))[::2, ::2], 1e-3)


class TestNormalCdf:
    def test_matches_scipy_ndtr(self):
        from scipy.special import ndtr as scipy_ndtr

        z = np.linspace(-30.0, 8.0, 20001)
        np.testing.assert_allclose(ndtr(z), scipy_ndtr(z), rtol=1e-12, atol=0.0)
        assert ndtr(0.0) == 0.5
        assert ndtr(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]


class TestLMLCache:
    def test_hit_returns_identical_float(self):
        cache = LMLCache()
        theta = np.array([0.1, -0.2, 0.3])
        assert cache.get(theta) is None
        cache.put(theta, -12.345678901234567)
        assert cache.get(theta) == -12.345678901234567
        assert cache.hits == 1 and cache.misses == 1

    def test_clear_and_cap(self):
        cache = LMLCache(maxsize=2)
        for i in range(3):
            cache.put(np.array([float(i)]), float(i))
        assert len(cache) <= 2
        cache.clear()
        assert len(cache) == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LMLCache(maxsize=0)


class TestGPExtend:
    @pytest.mark.parametrize("kernel_cls", [Matern52Kernel, RBFKernel])
    def test_extend_matches_fit(self, kernel_cls):
        gp, x, y = make_gp(n=30, dim=3, seed=2, kernel_cls=kernel_cls)
        gp.fit(x[:22], y[:22]).extend(x[22:], y[22:])
        ref, _, _ = make_gp(n=30, dim=3, seed=2, kernel_cls=kernel_cls)
        ref.fit(x, y)
        xs = np.random.default_rng(3).random((9, 3))
        mean_a, std_a = gp.predict(xs)
        mean_b, std_b = ref.predict(xs)
        np.testing.assert_allclose(mean_a, mean_b, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(std_a, std_b, rtol=1e-7, atol=1e-10)
        assert gp.log_marginal_likelihood() == pytest.approx(
            ref.log_marginal_likelihood(), rel=1e-9
        )

    def test_extend_restandardizes_targets(self):
        gp, x, y = make_gp(n=20, dim=3, seed=4)
        gp.fit(x[:10], y[:10]).extend(x[10:], y[10:] + 50.0)
        assert gp.target_mean == pytest.approx(
            float(np.mean(np.concatenate([y[:10], y[10:] + 50.0])))
        )

    def test_extend_with_extra_noise_matches_fit(self):
        gp, x, y = make_gp(n=24, dim=3, seed=5)
        extra = np.linspace(0.0, 0.4, 24)
        gp.fit(x[:18], y[:18], extra_noise=extra[:18])
        gp.extend(x[18:], y[18:], extra_noise=extra[18:])
        ref, _, _ = make_gp(n=24, dim=3, seed=5)
        ref.fit(x, y, extra_noise=extra)
        xs = np.random.default_rng(6).random((5, 3))
        np.testing.assert_allclose(gp.predict(xs)[0], ref.predict(xs)[0], rtol=1e-9)
        np.testing.assert_allclose(gp.predict(xs)[1], ref.predict(xs)[1], rtol=1e-7)

    def test_extend_unfitted_delegates_to_fit(self):
        gp, x, y = make_gp(n=10, dim=3, seed=7)
        gp.extend(x, y)
        assert gp.is_fitted and gp.n_samples == 10

    def test_extend_validates_inputs(self):
        gp, x, y = make_gp(n=10, dim=3, seed=8)
        gp.fit(x, y)
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 2)), np.zeros(2))  # wrong dim
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 3)), np.array([1.0, np.nan]))

    def test_memoized_lml_matches_mutating_path(self):
        gp, x, y = make_gp(n=18, dim=3, seed=10)
        gp.fit(x, y)
        theta = gp.get_theta() + 0.4
        memoized = gp.log_marginal_likelihood(theta)
        # Reference: the historic mutate-and-restore computation.
        clone = gp.clone_with_theta(theta)
        assert memoized == clone.log_marginal_likelihood()
        # Second evaluation is a cache hit returning the identical float.
        assert gp.log_marginal_likelihood(theta) == memoized
        assert gp._lml_cache.hits >= 1


class TestModelStack:
    @pytest.fixture()
    def fitted(self):
        gp, x, y = make_gp(n=35, dim=4, seed=11)
        gp.fit(x, y)
        rng = np.random.default_rng(12)
        thetas = [gp.get_theta() + rng.normal(0, 0.3, gp.n_hyperparameters) for _ in range(5)]
        return gp, thetas

    def test_batched_ei_matches_per_model_loop(self, fitted):
        gp, thetas = fitted
        stack = ModelStack.from_gp(gp, thetas)
        xs = np.random.default_rng(13).random((40, 4))
        best = float(np.min(gp.standardized_targets) * gp.target_std + gp.target_mean)
        batched = stack.acquisition(xs, best)
        # Historic reference: fitted clones, Python loop, running sum.
        from repro.bo.acquisition import expected_improvement

        total = np.zeros(len(xs))
        for theta in thetas:
            clone = gp.clone_with_theta(theta)
            mean, std = clone.predict(xs)
            total += expected_improvement(mean, std, best)
        np.testing.assert_allclose(batched, total / len(thetas), rtol=1e-7, atol=1e-12)
        # On the stack's own posteriors, the one-pass EI equals the
        # per-model running total exactly.
        means, stds = stack.predict(xs)
        total = np.zeros(len(xs))
        for s in range(stack.n_models):
            total += expected_improvement(means[s], stds[s], best)
        assert np.array_equal(batched, total / stack.n_models)

    def test_predict_matches_clones(self, fitted):
        gp, thetas = fitted
        stack = ModelStack.from_gp(gp, thetas)
        xs = np.random.default_rng(14).random((11, 4))
        means, stds = stack.predict(xs)
        for i, theta in enumerate(thetas):
            clone = gp.clone_with_theta(theta)
            mean, std = clone.predict(xs)
            np.testing.assert_allclose(means[i], mean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(stds[i], std, rtol=1e-6, atol=1e-9)

    def test_extend_matches_rebuild(self, fitted):
        gp, thetas = fitted
        stack = ModelStack.from_gp(gp, thetas)
        x_new = np.random.default_rng(15).random((3, 4))
        y_new = np.sin(3 * x_new[:, 0]) + 0.5 * x_new[:, 1]
        gp.extend(x_new, y_new)
        stack.extend(x_new, gp.standardized_targets, gp.target_mean, gp.target_std)
        rebuilt = ModelStack.from_gp(gp, thetas)
        xs = np.random.default_rng(16).random((7, 4))
        m_inc, s_inc = stack.predict(xs)
        m_ref, s_ref = rebuilt.predict(xs)
        np.testing.assert_allclose(m_inc, m_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(s_inc, s_ref, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("kernel_cls", [Matern52Kernel, RBFKernel])
    @pytest.mark.parametrize("dim", [4, 39])
    def test_cross_covariance_slices_equal_kernels(self, kernel_cls, dim):
        gp, x, y = make_gp(n=30, dim=dim, seed=18, kernel_cls=kernel_cls)
        gp.fit(x, y)
        rng = np.random.default_rng(19)
        thetas = [gp.get_theta() + rng.normal(0, 0.3, gp.n_hyperparameters) for _ in range(8)]
        stack = ModelStack.from_gp(gp, thetas)
        kernels = []
        for theta in thetas:
            kernel = gp.kernel.clone()
            kernel.set_theta(theta[:-1])
            kernels.append(kernel)
        x_star = rng.random((50, dim))
        cross = stack.cross_covariance(x_star)
        assert cross.shape == (8, 30, 50)
        for s, kernel in enumerate(kernels):
            assert np.array_equal(cross[s], kernel(x, x_star))
        # The stored training side grows with extend.
        x_new = rng.random((2, dim))
        gp.extend(x_new, np.sin(x_new[:, 0]))
        stack.extend(x_new, gp.standardized_targets, gp.target_mean, gp.target_std)
        cross = stack.cross_covariance(x_star)
        for s, kernel in enumerate(kernels):
            assert np.array_equal(cross[s], kernel(gp.training_inputs, x_star))

    def test_requires_fitted_gp_and_samples(self):
        gp, _, _ = make_gp()
        with pytest.raises(RuntimeError):
            ModelStack.from_gp(gp, [np.zeros(5)])
        gp2, x, y = make_gp(n=8, dim=3, seed=17)
        gp2.fit(x, y)
        with pytest.raises(ValueError):
            ModelStack.from_gp(gp2, [])


class TestSliceChain:
    @pytest.fixture()
    def fitted_gp(self):
        gp, x, y = make_gp(n=20, dim=2, seed=18)
        return gp.fit(x, y)

    def test_deterministic_under_seed(self, fitted_gp):
        a, state_a = slice_sample_chain(fitted_gp, n_samples=4, burn_in=5, rng=0)
        b, state_b = slice_sample_chain(fitted_gp, n_samples=4, burn_in=5, rng=0)
        np.testing.assert_array_equal(np.stack(a), np.stack(b))
        np.testing.assert_array_equal(state_a, state_b)

    def test_warm_start_resumes_from_state(self, fitted_gp):
        _, state = slice_sample_chain(fitted_gp, n_samples=3, burn_in=8, rng=1)
        warm, _ = slice_sample_chain(
            fitted_gp, n_samples=3, burn_in=0, rng=2, initial_theta=state
        )
        cold, _ = slice_sample_chain(fitted_gp, n_samples=3, burn_in=0, rng=2)
        # Same draws, different starting states => different chains.
        assert not np.allclose(np.stack(warm), np.stack(cold))

    def test_samples_are_fresh_states_not_duplicates(self, fitted_gp):
        samples, _ = slice_sample_chain(fitted_gp, n_samples=6, burn_in=4, rng=3)
        assert len(samples) == 6
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                assert samples[i] is not samples[j]

    def test_invalid_burn_in(self, fitted_gp):
        with pytest.raises(ValueError):
            slice_sample_chain(fitted_gp, n_samples=2, burn_in=-1)

    def test_initial_theta_shape_checked(self, fitted_gp):
        with pytest.raises(ValueError):
            slice_sample_chain(fitted_gp, n_samples=2, initial_theta=np.zeros(2))

    def test_gp_state_untouched(self, fitted_gp):
        before = fitted_gp.get_theta().copy()
        slice_sample_chain(fitted_gp, n_samples=3, burn_in=3, rng=4)
        np.testing.assert_array_equal(fitted_gp.get_theta(), before)


class TestLMLAlong:
    """``log_marginal_likelihood(theta, along=j)`` assembles the
    covariance from a base built once per (other coordinates, ``j``):
    every value must equal a fresh full-kernel evaluation."""

    @staticmethod
    def fresh_lml(kernel_cls, x, y, extra, theta):
        gp = GaussianProcess(kernel_cls(dim=x.shape[1]))
        return gp.fit(x, y, extra_noise=extra).log_marginal_likelihood(theta)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("with_extra", [False, True])
    def test_matches_fresh_evaluation(self, kernel_cls, dim, with_extra):
        rng = np.random.default_rng(30)
        x = rng.random((20, dim))
        y = np.sin(3 * x[:, 0]) + 0.1 * rng.normal(size=20)
        gp = GaussianProcess(kernel_cls(dim=dim))
        # Per-row extra noise, as donor rows carry in the transfer prior.
        extra = np.where(np.arange(20) % 3 == 0, 0.5, 0.0) if with_extra else None
        gp.fit(x, y, extra_noise=extra)
        theta = gp.get_theta() + rng.normal(0.0, 0.3, size=dim + 2)
        # Signal, first and last lengthscale, noise; each coordinate is
        # moved several times, so all but the first call reuse the base.
        for along in sorted({0, 1, dim, dim + 1}):
            for value in theta[along] + rng.normal(0.0, 1.0, size=4):
                moved = theta.copy()
                moved[along] = value
                assert gp.log_marginal_likelihood(moved, along=along) == pytest.approx(
                    self.fresh_lml(kernel_cls, x, y, extra, moved), rel=1e-9
                )

    def test_base_is_dropped_when_the_data_changes(self):
        gp, x, y = make_gp(n=30, dim=3, seed=32)
        gp.fit(x[:20], y[:20])
        theta = gp.get_theta() + 0.3
        gp.log_marginal_likelihood(theta, along=2)  # base over x[:20]
        # A refit on other inputs of the same size must not reuse it ...
        gp.fit(x[10:], y[10:])
        theta[2] += 0.7
        assert gp.log_marginal_likelihood(theta, along=2) == pytest.approx(
            self.fresh_lml(Matern52Kernel, x[10:], y[10:], None, theta), rel=1e-9
        )
        # ... nor an extend.
        gp.extend(x[:10], y[:10])
        theta[2] += 0.4
        x_all, y_all = np.vstack([x[10:], x[:10]]), np.concatenate([y[10:], y[:10]])
        assert gp.log_marginal_likelihood(theta, along=2) == pytest.approx(
            self.fresh_lml(Matern52Kernel, x_all, y_all, None, theta), rel=1e-9
        )

    def test_along_is_validated(self):
        gp, x, y = make_gp(n=10, dim=2, seed=33)
        gp.fit(x, y)
        with pytest.raises(ValueError):
            gp.log_marginal_likelihood(gp.get_theta(), along=gp.n_hyperparameters)

    def test_non_pd_covariance_reads_as_minus_inf(self, monkeypatch):
        import repro.bo.gp as gp_module
        from repro.bo.mcmc import _log_posterior

        gp, x, y = make_gp(n=10, seed=34)
        gp.fit(x, y)
        theta = gp.get_theta()
        assert np.isfinite(_log_posterior(gp, theta, 1))

        def not_pd(a, clean=True):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp_module, "chol_lower", not_pd)
        moved = theta.copy()
        moved[1] += 0.5
        assert _log_posterior(gp, moved, 1) == -np.inf


class _ScriptedGenerator:
    """Stands in for ``np.random.Generator`` in one slice update: scripted
    ``random()`` draws, and ``uniform`` records the bracket it shrinks."""

    def __init__(self, randoms):
        self.randoms = list(randoms)
        self.brackets = []

    def random(self):
        return self.randoms.pop(0)

    def uniform(self, low, high):
        self.brackets.append((low, high))
        return 0.5 * (low + high)


class TestStepOut:
    """Neal (2003), figure 3: the step-out limit ``m`` is split at random,
    ``J = floor(m V)`` steps to the left and ``m - 1 - J`` to the right."""

    def expansions(self, monkeypatch, v, log_posterior):
        monkeypatch.setattr(mcmc, "_log_posterior", log_posterior)
        offset = 0.25
        # u for the slice level, then U for the offset, then V.
        gen = _ScriptedGenerator([0.5, offset, v])
        mcmc._slice_sample_coordinate(None, np.zeros(3), 1, gen)
        low, high = gen.brackets[0]
        width = mcmc.STEP_WIDTH
        left = (-offset * width - low) / width
        right = (high - (1.0 - offset) * width) / width
        return round(left), round(right), mcmc.STEP_OUT_LIMIT

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.5, 0.999])
    def test_limit_is_split_by_v(self, monkeypatch, v):
        # A flat posterior: every step-out step is taken until the limit.
        left, right, m = self.expansions(monkeypatch, v, lambda gp, theta, along=None: 0.0)
        assert left == int(np.floor(m * v))
        assert left + right == m - 1

    def test_expansions_stop_at_the_slice_edge(self, monkeypatch):
        def boxed(gp, theta, along=None):
            return 0.0 if abs(theta[1]) < 2.5 else -np.inf

        for v in (0.1, 0.5, 0.9):
            left, right, m = self.expansions(monkeypatch, v, boxed)
            assert left + right <= m - 1
            assert left <= int(np.floor(m * v))
            # The bracket ends where the box does, unless the limit bound.
            assert left <= 3 / mcmc.STEP_WIDTH and right <= 3 / mcmc.STEP_WIDTH


def synthetic_observations(seed=20, n=30):
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    datasizes = rng.choice([100.0, 300.0, 500.0], size=n)
    durations = 100.0 * (1 + 4 * (points[:, 0] - 0.7) ** 2) * datasizes / 100.0
    return points, datasizes, durations


class TestDAGPEngine:
    def test_extend_matches_fit_point_estimate(self):
        points, datasizes, durations = synthetic_observations()
        inc = DatasizeAwareGP(config_dim=2, n_mcmc=0)
        inc.fit(points[:22], datasizes[:22], durations[:22])
        inc.extend(points[22:], datasizes[22:], durations[22:])
        ref = DatasizeAwareGP(config_dim=2, n_mcmc=0).fit(points, datasizes, durations)
        xs = np.random.default_rng(21).random((10, 2))
        m_inc, s_inc = inc.predict(xs, 300.0)
        m_ref, s_ref = ref.predict(xs, 300.0)
        np.testing.assert_allclose(m_inc, m_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(s_inc, s_ref, rtol=1e-7, atol=1e-10)
        best = float(durations.min())
        np.testing.assert_allclose(
            inc.acquisition(xs, 300.0, best), ref.acquisition(xs, 300.0, best),
            rtol=1e-7, atol=1e-12,
        )

    def test_extend_with_mcmc_keeps_acquisition_sane(self):
        points, datasizes, durations = synthetic_observations(seed=22)
        model = DatasizeAwareGP(config_dim=2, n_mcmc=4)
        model.fit(points[:20], datasizes[:20], durations[:20], rng=0)
        model.extend(points[20:], datasizes[20:], durations[20:], rng=0)
        xs = np.random.default_rng(23).random((12, 2))
        ei = model.acquisition(xs, 300.0, float(durations.min()))
        assert ei.shape == (12,)
        assert np.all(np.isfinite(ei)) and np.all(ei >= -1e-12)
        assert model.n_observations == 30

    def test_mcmc_refresh_cadence(self):
        """The samples are reused until MCMC_REFRESH_ROWS rows have
        arrived, then re-drawn by resuming the previous chain."""
        last = 30 + MCMC_REFRESH_ROWS - 1  # the row that completes a refresh
        points, datasizes, durations = synthetic_observations(seed=24, n=last + 1)
        model = DatasizeAwareGP(config_dim=2, n_mcmc=3)
        model.fit(points[:30], datasizes[:30], durations[:30], rng=1)
        thetas_after_fit = [t.copy() for t in model._theta_samples]
        chain_state = model._mcmc_state.copy()
        # The extends before the refresh row reuse the fit's samples
        # (rank-1 stack updates only); the refresh row re-samples.
        for row in range(30, last):
            model.extend(points[row:row + 1], datasizes[row:row + 1], durations[row:row + 1],
                         rng=1)
            assert all(
                np.array_equal(a, b) for a, b in zip(thetas_after_fit, model._theta_samples)
            )
        model.extend(points[last:last + 1], datasizes[last:last + 1], durations[last:last + 1],
                     rng=5)
        resumed, _ = slice_sample_chain(
            model.gp, n_samples=3, burn_in=MCMC_WARM_BURN_IN, rng=5,
            initial_theta=chain_state,
        )
        np.testing.assert_array_equal(np.stack(model._theta_samples), np.stack(resumed))

    def test_stack_drops_samples_it_cannot_factorize(self, monkeypatch):
        """A sample the chain returns but the stack cannot factorize is
        dropped; with none left the stack uses the GP's own
        hyper-parameters instead of raising."""
        points, datasizes, durations = synthetic_observations(seed=26)
        model = DatasizeAwareGP(config_dim=2, n_mcmc=3)
        model.fit(points, datasizes, durations, rng=0)
        good = [t.copy() for t in model._theta_samples[:2]]
        # Huge signal and lengthscales, negligible noise: a covariance of
        # all-equal entries, singular to working precision.
        singular = np.concatenate([[40.0], np.full(3, 40.0), [-80.0]])
        with pytest.raises(np.linalg.LinAlgError):
            ModelStack.from_gp(model.gp, [singular])
        draws = iter([[good[0], singular, good[1]], [singular]])
        monkeypatch.setattr(
            "repro.core.dagp.slice_sample_chain",
            lambda gp, **kw: (next(draws), good[1].copy()),
        )
        model._sample_hyperparameters(0, resume=True)
        assert model._stack.n_models == 2
        np.testing.assert_array_equal(np.stack(model._theta_samples), np.stack(good))
        model._sample_hyperparameters(0, resume=True)
        assert model._stack.n_models == 1
        np.testing.assert_array_equal(model._theta_samples[0], model.gp.get_theta())

    def test_extend_redraws_when_a_stacked_model_fails(self, monkeypatch):
        """A rank-k stack update that is not positive definite falls back
        to drawing the samples again."""
        points, datasizes, durations = synthetic_observations(seed=27)
        model = DatasizeAwareGP(config_dim=2, n_mcmc=3)
        model.fit(points[:29], datasizes[:29], durations[:29], rng=0)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(model._stack, "extend", fail)
        model.extend(points[29:], datasizes[29:], durations[29:], rng=0)
        assert model._rows_at_draw == 30
        assert model._stack.n_samples == 30

    def test_fidelity_toggle_carries_hyperparameters(self):
        """Satellite fix: toggling the fidelity column on/off must not
        reset the learned kernel hyper-parameters to the constructor
        defaults on the shared (config + datasize) dimensions."""
        points, datasizes, durations = synthetic_observations(seed=25)
        model = DatasizeAwareGP(config_dim=2, n_mcmc=0)
        model.fit(points, datasizes, durations)
        learned = np.array([0.11, 0.22, 0.33])  # config x2 + datasize
        model.gp.kernel.lengthscales = learned.copy()
        model.gp.kernel.signal_variance = 2.5
        fidelities = np.zeros(30)
        fidelities[:5] = 1.0
        model.fit(points, datasizes, durations, fidelities=fidelities)
        assert model._with_fidelity
        assert model.gp.kernel.dim == 4
        np.testing.assert_array_equal(model.gp.kernel.lengthscales[:3], learned)
        assert model.gp.kernel.lengthscales[3] == pytest.approx(0.5)  # fresh axis
        assert model.gp.kernel.signal_variance == pytest.approx(2.5)
        # ...and toggling back off drops the fidelity axis but keeps the rest.
        model.gp.kernel.lengthscales[:] = [0.4, 0.5, 0.6, 0.7]
        model.fit(points, datasizes, durations)
        assert not model._with_fidelity
        assert model.gp.kernel.dim == 3
        np.testing.assert_allclose(model.gp.kernel.lengthscales, [0.4, 0.5, 0.6])

    def test_extend_fidelity_toggle_falls_back_to_fit(self):
        points, datasizes, durations = synthetic_observations(seed=26)
        model = DatasizeAwareGP(config_dim=2, n_mcmc=0)
        model.fit(points[:25], datasizes[:25], durations[:25])
        model.extend(
            points[25:], datasizes[25:], durations[25:], fidelities=np.ones(5)
        )
        assert model._with_fidelity
        assert model.n_observations == 30
        ref = DatasizeAwareGP(config_dim=2, n_mcmc=0).fit(
            points, datasizes, durations,
            fidelities=np.concatenate([np.zeros(25), np.ones(5)]),
        )
        xs = np.random.default_rng(27).random((6, 2))
        np.testing.assert_allclose(
            model.predict(xs, 300.0)[0], ref.predict(xs, 300.0)[0], rtol=1e-9
        )

    def test_surrogate_protocol(self):
        gp, x, y = make_gp()
        dagp = DatasizeAwareGP(config_dim=2)
        assert isinstance(gp, Surrogate)
        assert isinstance(dagp, Surrogate)


class TestIncrementalBOLoop:
    def test_converges_on_quadratic(self):
        loop = BOLoop(dim=2, n_init=3, min_iterations=5, max_iterations=20,
                      n_mcmc=4, rng=0)
        trace = loop.minimize(quadratic, 100.0)
        _, duration = trace.best(100.0)
        assert duration < 12.0  # optimum is 10

    def test_budget_respected(self):
        loop = BOLoop(dim=2, n_init=3, min_iterations=8, max_iterations=8,
                      n_mcmc=2, ei_threshold=0.0, rng=1)
        trace = loop.minimize(quadratic, 100.0)
        assert trace.n_evaluations == 8

    def test_invalid_mode_rejected(self):
        """The surrogate lifecycle is no longer a setting: passing the
        retired ``surrogate_mode`` keyword fails loudly, whatever its
        value, instead of being silently ignored."""
        for mode in ("full", "incremental"):
            with pytest.raises(TypeError):
                BOLoop(dim=2, surrogate_mode=mode)
            with pytest.raises(TypeError):
                LOCAT(None, None, surrogate_mode=mode)


#: Captured on the incremental engine (one surrogate grown by extends
#: per BO loop) with the exact setups below; any change to a float or
#: an RNG draw of either trajectory must re-pin these deliberately.
PINNED_BO_LOOP = {
    "points": [
        [0.8789872291071514, 0.27109007973342414],
        [0.08992890458795677, 0.9709185257592405],
        [0.3469911746453982, 0.5355452585890599],
        [0.22279143552845215, 0.28182810633472577],
        [0.2745676578042237, 0.3232826456095444],
        [0.46551460344090934, 0.4395869134482585],
        [0.5672629011845808, 0.2892206846885119],
    ],
    "durations": [
        13.36061994958997,
        14.942615333345683,
        10.576897393383414,
        10.062913801471392,
        10.011888856161427,
        10.46879590358213,
        10.715456519881833,
    ],
    "ei_values": [
        0.02821184417355568,
        0.07445831781966677,
        0.06436010140487733,
        0.06526810504681008,
        0.07186186136348562,
    ],
    "stopped_by_ei": True,
}

PINNED_LOCAT_DURATIONS = [
    105.2736750449609,
    75.66955769421257,
    216.0672438303209,
    100.92531795465439,
    345.1488918823474,
    1990.9731010956084,
    80.04118290146772,
    74.87506764615252,
    71.85471556872619,
    73.54082552973142,
    79.91522137824101,
    71.84318488008265,
    72.29482117887312,
    74.40417963768779,
    79.56183770035993,
    70.28704762225328,
    73.91424942319844,
]

PINNED_LOCAT_BEST = 73.91424942319844

#: A deployed small-budget tenant (``n_mcmc=4``, ``replay_eval="race"``)
#: fed an abrupt-skew stream until its first drift retune completes: the
#: production durations it measured, each observe's (retuned, trigger,
#: promotion phase), the retune's (live evaluations, best duration), and
#: the configuration deployed afterwards.  Covers the drift retune path
#: (a partial session with replay racing, pre-drift rows as a
#: low-fidelity prior, the promotion gate), which the two pins above do
#: not reach; both its sessions also run ``ModelStack.extend``.
PINNED_DRIFT_DURATIONS = [
    49.46093558187738,
    51.052497079856494,
    48.8329689718956,
    50.05385127694253,
    48.99863060929082,
    46.40805004865463,
    49.502009770488044,
    47.586491559292845,
    171.33147380425171,
]
PINNED_DRIFT_DECISIONS = [(False, "none", None)] * 8 + [(True, "drift", "promoted")]
PINNED_DRIFT_RETUNE = (2, 53.07548187105478)
PINNED_DRIFT_DEPLOYED = {
    "broadcast.blockSize": 3,
    "default.parallelism": 100,
    "driver.cores": 16,
    "driver.memory": 27,
    "executor.cores": 10,
    "executor.instances": 9,
    "executor.memory": 48,
    "executor.memoryOverhead": 1820,
    "io.compression.zstd.bufferSize": 63,
    "io.compression.zstd.level": 3,
    "kryoserializer.buffer": 64,
    "kryoserializer.buffer.max": 70,
    "locality.wait": 1,
    "memory.fraction": 0.5529398163855587,
    "memory.storageFraction": 0.7232386487016782,
    "memory.offHeap.size": 0,
    "reducer.maxSizeInFlight": 38,
    "scheduler.revive.interval": 2,
    "shuffle.file.buffer": 89,
    "shuffle.io.numConnectionsPerPeer": 2,
    "shuffle.sort.bypassMergeThreshold": 400,
    "sql.autoBroadcastJoinThreshold": 1024,
    "sql.cartesianProductExec.buffer.in.memory.threshold": 3428,
    "sql.codegen.maxFields": 168,
    "sql.inMemoryColumnarStorage.batchSize": 11817,
    "sql.shuffle.partitions": 679,
    "storage.memoryMapThreshold": 6,
    "broadcast.compress": True,
    "memory.offHeap.enabled": False,
    "rdd.compress": True,
    "shuffle.compress": True,
    "shuffle.spill.compress": True,
    "sql.codegen.aggregate.map.twolevel.enable": True,
    "sql.inMemoryColumnarStorage.compressed": True,
    "sql.inMemoryColumnarStorage.partitionPruning": True,
    "sql.join.preferSortMergeJoin": False,
    "sql.retainGroupColumns": False,
    "sql.sort.enableRadixSort": False,
}


class TestPinnedTrajectories:
    def test_bo_loop_trajectory_bit_for_bit(self):
        loop = BOLoop(dim=2, n_init=3, min_iterations=5, max_iterations=9,
                      n_mcmc=4, rng=0)
        trace = loop.minimize(quadratic, 100.0)
        assert trace.stopped_by_ei == PINNED_BO_LOOP["stopped_by_ei"]
        assert [list(map(float, p)) for p in trace.points] == PINNED_BO_LOOP["points"]
        assert [float(d) for d in trace.durations] == PINNED_BO_LOOP["durations"]
        assert [float(e) for e in trace.ei_values] == PINNED_BO_LOOP["ei_values"]

    def test_locat_session_bit_for_bit(self):
        simulator = SparkSQLSimulator(get_cluster("x86"))
        locat = LOCAT(
            simulator,
            get_application("join"),
            n_qcsa=8,
            n_iicp=8,
            max_iterations=6,
            min_iterations=3,
            n_mcmc=2,
            use_polish=False,
            rng=7,
        )
        result = locat.tune(150.0)
        durations = [float(t.duration_s) for t in locat.objective.history]
        assert durations == PINNED_LOCAT_DURATIONS
        assert float(result.best_duration_s) == PINNED_LOCAT_BEST

    def test_drift_retune_bit_for_bit(self, monkeypatch):
        # Pinned with a drift-retune budget of the full 6 iterations.
        monkeypatch.setattr(LOCAT, "n_adapt_iterations", 6)
        cluster = get_cluster("x86")
        app = get_application("join")
        locat = LOCAT(
            DriftingSimulator(cluster),
            app,
            n_qcsa=10,
            n_iicp=8,
            max_iterations=6,
            min_iterations=3,
            n_mcmc=4,
            replay_eval="race",
            rng=3,
        )
        controller = OnlineController(locat, capture_replay_trace=False)
        controller.observe(100.0)
        scenario = build_scenario("abrupt_skew", n_steps=30, onset=8, shift=0.5)
        runs = ScenarioStream(scenario, app, cluster, seed=11, trace=locat.replay_trace)
        durations, decisions, retune = [], [], None
        for step in scenario.steps:
            locat.simulator.set_step(step)
            measured = runs.measure(step, controller.deployed_config)
            durations.append(float(measured))
            decision = controller.observe(step.datasize_gb, duration_s=measured)
            phase = decision.promotion["phase"] if decision.promotion else None
            decisions.append((decision.retuned, decision.trigger, phase))
            if decision.retuned:
                retune = (decision.result.evaluations, float(decision.result.best_duration_s))
                break
        assert durations == PINNED_DRIFT_DURATIONS
        assert decisions == PINNED_DRIFT_DECISIONS
        assert retune == PINNED_DRIFT_RETUNE
        assert config_to_dict(controller.deployed_config) == PINNED_DRIFT_DEPLOYED
