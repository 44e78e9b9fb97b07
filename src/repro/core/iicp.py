"""Identifying Important Configuration Parameters (paper section 3.3).

Two stages over a sample matrix S' = {t_i, conf_i, ds}:

* **CPS** (Configuration Parameter Selection): Spearman correlation of
  each parameter's values against execution time; parameters with
  |SCC| < 0.2 are eliminated (the common poor-correlation boundary).
* **CPE** (Configuration Parameter Extraction): Kernel PCA with a
  Gaussian kernel over the CPS survivors; the resulting components are
  the "new parameters" BO tunes.  Concrete configurations are recovered
  from latent points via the KPCA pre-image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.kpca import KernelPCA
from repro.sparksim.configspace import ConfigSpace, Configuration
from repro.stats.correlation import spearman

#: The paper's empirically determined sample count (section 5.3, Figure 9).
DEFAULT_N_IICP = 20

#: |SCC| below this marks a poorly correlated (unimportant) parameter.
DEFAULT_SCC_THRESHOLD = 0.2


@dataclass(frozen=True)
class CPSResult:
    """Outcome of the Spearman selection step.

    ``scc`` has every parameter's correlation; ``selected`` keeps
    Table-2 order; ``ranked`` sorts by |SCC| descending (Table 3's
    "top-5 important configurations" view).
    """

    scc: dict[str, float]
    selected: tuple[str, ...]
    threshold: float

    @property
    def ranked(self) -> list[str]:
        return sorted(self.scc, key=lambda n: -abs(self.scc[n]))

    def top(self, k: int) -> list[str]:
        return self.ranked[:k]


@dataclass(frozen=True)
class CPEResult:
    """Outcome of the KPCA extraction step."""

    kpca: KernelPCA
    n_components: int
    kernel: str


@dataclass(frozen=True)
class IICPResult:
    """CPS + CPE combined: the latent tuning space and its codecs."""

    cps: CPSResult
    cpe: CPEResult
    space: ConfigSpace
    base_config: Configuration

    @property
    def selected(self) -> tuple[str, ...]:
        return self.cps.selected

    @property
    def n_components(self) -> int:
        return self.cpe.n_components

    def encode(self, config: Configuration) -> np.ndarray:
        """Configuration -> latent vector (CPS subset, then KPCA)."""
        subset = self.space.encode_subset(config, list(self.selected))
        return self.cpe.kpca.transform(subset[None, :])[0]

    def decode(self, latent: np.ndarray) -> Configuration:
        """Latent vector -> concrete configuration (KPCA pre-image).

        Unselected parameters keep their ``base_config`` values; the
        resulting configuration is repaired against the space's resource
        constraints.
        """
        latent = np.asarray(latent, dtype=float)
        point = self.cpe.kpca.inverse_transform(latent[None, :])[0]
        return self.space.decode_subset(point, list(self.selected), base=self.base_config)

    def latent_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned search box for BO in the latent space."""
        return self.cpe.kpca.latent_bounds()


def run_cps(
    space: ConfigSpace,
    configs: list[Configuration],
    durations: np.ndarray | list[float],
    threshold: float = DEFAULT_SCC_THRESHOLD,
    min_selected: int = 5,
) -> CPSResult:
    """Spearman-correlation parameter selection over the sample matrix.

    Keeps parameters with |SCC| >= ``threshold``; if fewer than
    ``min_selected`` survive (tiny or degenerate samples), the top
    ``min_selected`` by |SCC| are kept so CPE always has a workable
    input dimension.
    """
    if len(configs) < 3:
        raise ValueError("CPS needs at least three samples")
    durations = np.asarray(durations, dtype=float).ravel()
    if durations.shape[0] != len(configs):
        raise ValueError("configs and durations must have the same length")

    encoded = np.stack([space.encode(c) for c in configs])
    scc: dict[str, float] = {}
    for j, name in enumerate(space.names):
        column = encoded[:, j]
        scc[name] = spearman(column, durations) if np.ptp(column) > 1e-12 else 0.0

    selected = [n for n in space.names if abs(scc[n]) >= threshold]
    if len(selected) < min_selected:
        by_strength = sorted(space.names, key=lambda n: -abs(scc[n]))
        chosen = set(by_strength[:min_selected])
        selected = [n for n in space.names if n in chosen]
    return CPSResult(scc=scc, selected=tuple(selected), threshold=threshold)


def run_cpe(
    space: ConfigSpace,
    configs: list[Configuration],
    cps: CPSResult,
    n_components: int,
    kernel: str = "gaussian",
) -> CPEResult:
    """Kernel-PCA extraction of ``n_components`` over the CPS-selected parameters."""
    subset = np.stack([space.encode_subset(c, list(cps.selected)) for c in configs])
    kpca = KernelPCA(kernel=kernel, n_components=n_components)
    kpca.fit(subset)
    return CPEResult(kpca=kpca, n_components=kpca.n_components_, kernel=kernel)
