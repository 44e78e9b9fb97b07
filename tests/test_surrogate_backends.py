"""Tests for the scalable surrogate backend behind the Surrogate protocol.

Four layers of guarantees:

* **Algebraic equivalence** — ``SparseGP.extend`` across an
  inducing-point re-selection matches a from-scratch fit, and the
  sparse posterior tracks the exact GP's.
* **Policy** — the exact/sparse switchover point is pinned, and every
  ``DatasizeAwareGP`` transitions exactly there.
* **Bit-for-bit default** — a tuning session stays on the exact
  backend: a policy that can never switch reproduces the unconfigured
  seeded BO trajectory float for float.
* **No backend setting** — the retired ``surrogate_backend`` keyword,
  tenant key, service default and CLI flag are all rejected, the tenant
  key before the store write (HTTP 400, no poisoned meta).
"""

import numpy as np
import pytest

from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Matern52Kernel
from repro.core.dagp import DatasizeAwareGP
from repro.core.tuner import BOLoop
from repro.service import HistoryStore, ServiceError, TuningClient, TuningRegistry, TuningService
from repro.surrogate import BackendPolicy, LMLCache, SparseGP

#: Small LOCAT settings so tuning sessions stay cheap in tests.
TINY_TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}


def quadratic(point, datasize):
    """Minimum 10*ds at point = 0.3 (per dimension)."""
    return float(10.0 * (datasize / 100.0) * (1.0 + np.sum((point - 0.3) ** 2)))


def make_data(n=25, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.normal(size=n)
    return x, y


def make_kernel(dim=3):
    return Matern52Kernel(dim=dim, lengthscale=0.4)


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = LMLCache(maxsize=2)
        a, b, c = (np.array([float(i)]) for i in range(3))
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        assert cache.get(a) == 1.0  # refresh a: b is now the LRU entry
        cache.put(c, 3.0)
        assert cache.get(b) is None
        assert cache.get(a) == 1.0 and cache.get(c) == 3.0
        assert cache.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = LMLCache(maxsize=2)
        a, b = np.array([0.0]), np.array([1.0])
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        cache.put(a, 1.5)
        assert cache.evictions == 0
        assert cache.get(a) == 1.5 and cache.get(b) == 2.0

    def test_stats_and_counters_survive_clear(self):
        cache = LMLCache(maxsize=1)
        theta = np.array([0.5])
        assert cache.get(theta) is None
        cache.put(theta, -1.0)
        assert cache.get(theta) == -1.0
        cache.put(np.array([0.7]), -2.0)
        cache.clear()
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 1, "evictions": 1, "size": 0, "maxsize": 1}


class TestSparseGP:
    def test_extend_across_reselection_matches_fresh_fit(self):
        """Growing past the re-selection threshold rebuilds from the full
        history with a freshly strided inducing set — exactly what a
        from-scratch fit on the concatenated data produces."""
        x, y = make_data(n=45, seed=13)
        gp = SparseGP(make_kernel(), noise_variance=1e-3, n_inducing=12)
        gp.fit(x[:20], y[:20])
        gp.extend(x[20:], y[20:])  # 45 >= 2 * 20 triggers re-selection
        ref = SparseGP(make_kernel(), noise_variance=1e-3, n_inducing=12).fit(x, y)
        xs = np.random.default_rng(14).random((9, 3))
        np.testing.assert_allclose(gp.predict(xs)[0], ref.predict(xs)[0], atol=1e-7)
        np.testing.assert_allclose(gp.predict(xs)[1], ref.predict(xs)[1], atol=1e-7)

    def test_tracks_exact_gp_closely(self):
        x, y = make_data(n=200, seed=15)
        sparse = SparseGP(make_kernel(), noise_variance=1e-3, n_inducing=64).fit(x, y)
        exact = GaussianProcess(make_kernel(), noise_variance=1e-3).fit(x, y)
        xs = np.random.default_rng(16).random((64, 3))
        rmse = float(np.sqrt(np.mean((sparse.predict(xs)[0] - exact.predict(xs)[0]) ** 2)))
        assert rmse < 0.35 * float(np.std(exact.predict(xs)[0]))

    def test_no_mcmc_support(self):
        gp = SparseGP(make_kernel(), n_inducing=8)
        assert gp.supports_mcmc is False


class TestBackendPolicy:
    def test_switchover_points_pinned(self):
        policy = BackendPolicy()
        assert policy.select(1) == "exact"
        assert policy.select(512) == "exact"
        assert policy.select(513) == "sparse"
        assert policy.select(50_000) == "sparse"

    def test_custom_thresholds(self):
        policy = BackendPolicy(n_exact=10)
        assert [policy.select(n) for n in (10, 11)] == ["exact", "sparse"]

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendPolicy(n_exact=0)
        with pytest.raises(ValueError):
            BackendPolicy(n_inducing=1)
        with pytest.raises(ValueError, match="backend"):
            BackendPolicy.forced("auto")

    def test_forced_policies(self):
        exact = BackendPolicy.forced("exact")
        assert [exact.select(n) for n in (2, 513, 10**7)] == ["exact"] * 3
        sparse = BackendPolicy.forced("sparse", n_inducing=16)
        assert [sparse.select(n) for n in (2, 513)] == ["sparse"] * 2
        assert sparse.n_inducing == 16
        assert exact.n_inducing == BackendPolicy().n_inducing


class TestDAGPBackends:
    def test_auto_transitions_at_policy_thresholds(self):
        policy = BackendPolicy(n_exact=20, n_inducing=8)
        rng = np.random.default_rng(17)

        def batch(n):
            points = rng.random((n, 3))
            durations = 50.0 + 10.0 * np.sum((points - 0.3) ** 2, axis=1)
            return points, np.full(n, 100.0), durations

        model = DatasizeAwareGP(3, n_mcmc=0, backend_policy=policy)
        model.fit(*batch(10))
        assert model.active_backend == "exact"
        model.extend(*batch(10))  # n = 20: at the threshold, still exact
        assert model.active_backend == "exact"
        model.extend(*batch(1))  # n = 21: crosses into sparse
        assert model.active_backend == "sparse"
        assert isinstance(model.gp, SparseGP)
        model.extend(*batch(20))  # later extends stay sparse
        assert model.active_backend == "sparse"
        assert model.n_observations == 41
        # The model keeps producing usable predictions across transitions.
        mean = model.predict(rng.random((5, 3)), 100.0)[0]
        assert np.all(np.isfinite(mean))

    def test_invalid_backend_rejected(self):
        # The backend is no longer named: the history size picks it.
        with pytest.raises(TypeError, match="backend"):
            DatasizeAwareGP(3, backend="exact")
        with pytest.raises(TypeError, match="surrogate_backend"):
            BOLoop(dim=2, surrogate_backend="exact")

    def test_exact_backend_bit_for_bit(self):
        """The default policy keeps a session on the exact backend: a
        policy that can never switch must not change a single float of
        the unconfigured seeded trajectory."""
        default = BOLoop(dim=2, n_init=3, min_iterations=6, max_iterations=6,
                         n_mcmc=4, ei_threshold=0.0, rng=19).minimize(quadratic, 100.0)
        explicit = BOLoop(dim=2, n_init=3, min_iterations=6, max_iterations=6,
                          n_mcmc=4, ei_threshold=0.0,
                          backend_policy=BackendPolicy.forced("exact"),
                          rng=19).minimize(quadratic, 100.0)
        assert default.n_evaluations == explicit.n_evaluations
        assert np.array_equal(np.stack(default.points), np.stack(explicit.points))
        assert default.durations == explicit.durations

    def test_sparse_backend_still_converges(self):
        policy = BackendPolicy.forced("sparse", n_inducing=8)
        loop = BOLoop(dim=2, n_init=3, min_iterations=10, max_iterations=16,
                      n_mcmc=2, backend_policy=policy, rng=21)
        trace = loop.minimize(quadratic, 100.0)
        _, duration = trace.best(100.0)
        assert duration < 13.0  # optimum is 10


class TestServiceBackendSetting:
    def test_invalid_backend_rejected_before_persisting(self, tmp_path):
        """Value (not just key) validation must run before the store
        write: a rejected registration that left its meta behind would
        crash every later rehydration of the whole service."""
        store = HistoryStore(tmp_path / "store")
        registry = TuningRegistry(store)
        for value in ("exact", "sparse", "turbo"):
            with pytest.raises(ValueError, match="unknown tuner settings.*surrogate_backend"):
                registry.register("bad", "scan", tuner={"surrogate_backend": value})
        assert "bad" not in registry
        assert not store.has_app("bad")
        # The store stays rehydratable.
        TuningRegistry(HistoryStore(tmp_path / "store"))

    def test_invalid_registry_default_rejected(self, tmp_path):
        # There is no service-wide backend default to set any more.
        with pytest.raises(TypeError, match="default_surrogate_backend"):
            TuningRegistry(HistoryStore(tmp_path / "store"), default_surrogate_backend="sparse")

    def test_http_400_before_store_write(self, tmp_path):
        """The HTTP layer mirror of the registry test: the retired
        tuner.surrogate_backend answers 400 and leaves no tenant meta,
        so a restart of the same store rehydrates cleanly."""
        store_dir = str(tmp_path / "store")
        with TuningService(store_dir, port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client.register_app(
                    "bad", "join", tuner={**TINY_TUNER, "surrogate_backend": "sparse"}
                )
            assert excinfo.value.status == 400
            assert "surrogate_backend" in str(excinfo.value)
            client.register_app("good", "join", tuner=TINY_TUNER)
            client.close()
        # The poisoned registration left nothing behind: a restart
        # rehydrates only the valid tenant.
        restarted = TuningService(store_dir, port=0, n_workers=1).start()
        try:
            assert restarted.registry.app_ids() == ["good"]
        finally:
            restarted.close()


class TestCLIBackendFlags:
    def test_unknown_backend_rejected(self):
        """Neither ``repro tune`` nor ``repro serve`` takes a backend."""
        from repro.cli import build_parser

        for command in ("tune", "serve"):
            for value in ("exact", "sparse", "auto"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--surrogate-backend", value])
