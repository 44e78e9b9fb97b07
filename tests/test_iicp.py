"""Tests for IICP: CPS (Spearman selection) and CPE (KPCA extraction)."""

import numpy as np
import pytest

from repro.bo.lhs import latin_hypercube
from repro.core.iicp import IICPResult, run_cpe, run_cps
from repro.core.locat import LOCAT


@pytest.fixture()
def lhs_samples(sim_x86, join_app):
    """30 LHS configurations with durations on HiBench Join at 300 GB."""
    gen = np.random.default_rng(5)
    configs, durations = [], []
    for point in latin_hypercube(30, sim_x86.space.dim, gen):
        config = sim_x86.space.decode(point)
        configs.append(config)
        durations.append(sim_x86.run(join_app, config, 300.0, rng=gen).duration_s)
    return configs, np.array(durations)


class TestCPS:
    def test_selects_subset_in_table_order(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations)
        assert 0 < len(cps.selected) < 38
        order = {n: i for i, n in enumerate(sim_x86.space.names)}
        indices = [order[n] for n in cps.selected]
        assert indices == sorted(indices)

    def test_scc_covers_all_parameters(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations)
        assert set(cps.scc) == set(sim_x86.space.names)
        assert all(-1.0 <= v <= 1.0 for v in cps.scc.values())

    def test_threshold_filters(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations, threshold=0.2)
        for name in cps.selected:
            assert abs(cps.scc[name]) >= 0.2 or len(cps.selected) == 5

    def test_min_selected_guard(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations, threshold=0.999, min_selected=5)
        assert len(cps.selected) == 5

    def test_important_params_found_for_join(self, sim_x86, lhs_samples):
        # Memory/parallelism parameters dominate HiBench Join (Table 3).
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations)
        top10 = set(cps.top(10))
        key = {"sql.shuffle.partitions", "executor.memory", "executor.cores"}
        assert len(key & top10) >= 2

    def test_ranked_sorted_by_strength(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations)
        strengths = [abs(cps.scc[n]) for n in cps.ranked]
        assert strengths == sorted(strengths, reverse=True)

    def test_too_few_samples_rejected(self, sim_x86):
        with pytest.raises(ValueError):
            run_cps(sim_x86.space, [sim_x86.space.default()] * 2, [1.0, 2.0])


class TestCPE:
    def test_extraction_reduces_dimension(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples
        cps = run_cps(sim_x86.space, configs, durations)
        cpe = run_cpe(sim_x86.space, configs, cps, n_components=8)
        assert cpe.n_components == 8
        assert cpe.kernel == "gaussian"


class TestIICPResult:
    @pytest.fixture()
    def iicp_result(self, sim_x86, lhs_samples):
        configs, durations = lhs_samples[0][:20], lhs_samples[1][:20]
        cps = run_cps(sim_x86.space, configs, durations)
        cpe = run_cpe(sim_x86.space, configs, cps, n_components=8)
        return IICPResult(
            cps=cps, cpe=cpe, space=sim_x86.space, base_config=sim_x86.space.default()
        )

    def test_encode_decode_shapes(self, iicp_result, sim_x86, rng):
        config = sim_x86.space.sample(rng)
        latent = iicp_result.encode(config)
        assert latent.shape == (iicp_result.n_components,)
        rebuilt = iicp_result.decode(latent)
        assert sim_x86.space.is_valid(rebuilt)

    def test_training_config_roundtrips_selected_params(self, iicp_result, lhs_samples):
        # A config in the KPCA training set must decode back to itself on
        # the selected parameters (the base covers the rest).
        config = lhs_samples[0][0]
        rebuilt = iicp_result.decode(iicp_result.encode(config))
        for name in iicp_result.selected:
            assert rebuilt[name] == config[name], name

    def test_unselected_come_from_base(self, iicp_result, lhs_samples):
        config = lhs_samples[0][5]
        rebuilt = iicp_result.decode(iicp_result.encode(config))
        base = iicp_result.base_config
        unselected = set(iicp_result.space.names) - set(iicp_result.selected)
        resource_coupled = {"executor.memory", "executor.memoryOverhead",
                            "memory.offHeap.size", "executor.instances"}
        for name in unselected - resource_coupled:  # repair may adjust these
            assert rebuilt[name] == base[name], name

    def test_latent_bounds_contain_training_images(self, iicp_result, lhs_samples):
        low, high = iicp_result.latent_bounds()
        for config in lhs_samples[0][:20]:
            z = iicp_result.encode(config)
            assert np.all(z >= low - 1e-9) and np.all(z <= high + 1e-9)

    def test_uses_only_first_n_samples(self, sim_x86, join_app):
        """LOCAT's CPS reads the first ``n_iicp`` bootstrap samples only."""
        locat = LOCAT(sim_x86, join_app, n_qcsa=12, n_iicp=8, n_mcmc=0, rng=5)
        locat.bootstrap(100.0)
        assert locat.objective.n_evaluations == 12
        first = locat.objective.history[:8]
        cps = run_cps(sim_x86.space, [t.config for t in first], [t.duration_s for t in first])
        assert locat.iicp_result.cps == cps
