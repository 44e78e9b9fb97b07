"""Tests for Kernel PCA and its pre-image reconstruction."""

import numpy as np
import pytest

from repro.ml.kpca import KernelPCA


@pytest.fixture()
def ring_data():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, 60)
    radius = 0.35 + 0.02 * rng.normal(size=60)
    return 0.5 + np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


class TestFitTransform:
    def test_latent_shape(self, ring_data):
        kpca = KernelPCA(n_components=2).fit(ring_data)
        latents = kpca.transform(ring_data)
        assert latents.shape == (60, 2)
        assert kpca.n_components_ == 2

    def test_component_cap_at_n_minus_one(self):
        x = np.random.default_rng(1).random((5, 10))
        kpca = KernelPCA(n_components=50).fit(x)
        assert kpca.n_components_ <= 4

    def test_latents_centered(self, ring_data):
        kpca = KernelPCA(n_components=3).fit(ring_data)
        latents = kpca.transform(ring_data)
        np.testing.assert_allclose(latents.mean(axis=0), 0.0, atol=1e-8)

    def test_first_component_has_highest_variance(self, ring_data):
        kpca = KernelPCA(n_components=3).fit(ring_data)
        variances = kpca.transform(ring_data).var(axis=0)
        assert variances[0] >= variances[1] >= variances[2]

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            KernelPCA(n_components=2).fit(np.zeros((1, 3)))

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            KernelPCA(n_components=2).transform(np.zeros((1, 2)))

    @pytest.mark.parametrize("kernel", ["gaussian", "polynomial", "perceptron"])
    def test_all_kernels_fit(self, ring_data, kernel):
        kpca = KernelPCA(kernel=kernel, n_components=2).fit(ring_data)
        latents = kpca.transform(ring_data)
        assert np.all(np.isfinite(latents))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            KernelPCA(n_components=2, kernel="spectral")


class TestPreimage:
    def test_training_points_roundtrip_exactly(self, ring_data):
        # The pre-image seeds from the nearest training point, so training
        # latents must invert to themselves — the property LOCAT's latent
        # codec depends on.
        kpca = KernelPCA(n_components=3).fit(ring_data)
        latents = kpca.transform(ring_data[:5])
        rebuilt = kpca.inverse_transform(latents)
        np.testing.assert_allclose(rebuilt, ring_data[:5], atol=1e-9)

    def test_preimage_in_unit_cube(self, ring_data):
        kpca = KernelPCA(n_components=2).fit(ring_data)
        low, high = kpca.latent_bounds()
        rng = np.random.default_rng(2)
        z = low + rng.random((10, 2)) * (high - low)
        points = kpca.inverse_transform(z)
        assert np.all(points >= 0) and np.all(points <= 1)

    def test_batched_preimage_matches_rowwise(self, ring_data):
        # The vectorized coordinate descent solves every row of a batch
        # simultaneously; per-row results must be exactly what a
        # one-row-at-a-time call produces (per-row steps and convergence
        # are independent).
        kpca = KernelPCA(n_components=3).fit(ring_data)
        low, high = kpca.latent_bounds()
        rng = np.random.default_rng(7)
        z = low + rng.random((9, 3)) * (high - low)
        batched = kpca.inverse_transform(z)
        rowwise = np.vstack([kpca.inverse_transform(z[i : i + 1]) for i in range(len(z))])
        np.testing.assert_array_equal(batched, rowwise)

    def test_train_latents_cached_at_fit(self, ring_data):
        kpca = KernelPCA(n_components=2).fit(ring_data)
        np.testing.assert_allclose(kpca._train_latents, kpca.transform(ring_data))
        # latent_bounds reuses the cache instead of re-projecting.
        low, high = kpca.latent_bounds()
        assert np.all(low < high)

    def test_local_continuity(self, ring_data):
        # Nearby latents decode to nearby inputs (minimum-movement
        # pre-image) — required for BO exploitation.
        kpca = KernelPCA(n_components=2).fit(ring_data)
        z = kpca.transform(ring_data[3:4])
        base = kpca.inverse_transform(z)[0]
        jittered = kpca.inverse_transform(z + 0.01)[0]
        assert np.linalg.norm(jittered - base) < 0.3

    def test_wrong_latent_dim_rejected(self, ring_data):
        kpca = KernelPCA(n_components=2).fit(ring_data)
        with pytest.raises(ValueError):
            kpca.inverse_transform(np.zeros((1, 5)))

    def test_latent_bounds_cover_training(self, ring_data):
        kpca = KernelPCA(n_components=2).fit(ring_data)
        low, high = kpca.latent_bounds()
        latents = kpca.transform(ring_data)
        assert np.all(latents >= low) and np.all(latents <= high)


class TestValidation:
    def test_invalid_n_components(self):
        with pytest.raises(ValueError):
            KernelPCA(n_components=0)


class TestBatchedEncode:
    """One KPCA pass for many rows (``IICPResult.encode_many``)."""

    @pytest.fixture()
    def iicp(self):
        from repro.core.iicp import CPSResult, IICPResult, run_cpe
        from repro.sparksim.configspace import ConfigSpace

        space = ConfigSpace("x86")
        rng = np.random.default_rng(4)
        configs = [space.sample(rng) for _ in range(24)]
        names = tuple(space.names[:12])
        cps = CPSResult(scc={n: 1.0 for n in names}, selected=names, threshold=0.2)
        cpe = run_cpe(space, configs, cps, n_components=5)
        donors = [space.sample(rng) for _ in range(7)]
        result = IICPResult(cps=cps, cpe=cpe, space=space, base_config=configs[0])
        return result, configs, donors

    def test_encode_many_matches_rowwise_encode(self, iicp):
        result, configs, donors = iicp
        mixed = donors[:3] + configs + donors[3:]
        rowwise = np.stack([result.encode(c) for c in mixed])
        np.testing.assert_allclose(result.encode_many(mixed), rowwise, rtol=0, atol=1e-12)
