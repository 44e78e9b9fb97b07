"""Tuneful (Fekry et al. 2020): significance-aware incremental tuning.

Tuneful runs in two phases:

1. **Significance analysis** via one-at-a-time (OAT) perturbation: each
   parameter is swept over a few values while the others stay at their
   defaults, and the parameters whose sweep moves execution time the
   most are declared significant.  The paper (section 6.1) criticizes
   exactly this: the number of OAT runs grows linearly with the number
   of parameters, so the phase dominates the budget in high dimensions.
2. **GP-BO** over the significant subspace.

Tuneful is not datasize-aware: every (application, datasize) pair pays
the full two-phase cost.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineTuner
from repro.bo.optimize import BASELINE_POOL
from repro.core.tuner import BOLoop
from repro.sparksim.configspace import Configuration, PARAMETERS, PARAMETER_INDEX


class Tuneful(BaselineTuner):
    """OAT significance analysis + GP-BO over the significant parameters."""

    NAME = "Tuneful"

    def __init__(
        self,
        *args,
        oat_levels: int = 4,
        n_significant: int = 10,
        bo_iterations: int = 60,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if oat_levels < 2:
            raise ValueError("oat_levels must be at least 2")
        self.oat_levels = oat_levels
        self.n_significant = n_significant
        self.bo_iterations = bo_iterations

    # ------------------------------------------------------------------
    def _significance_analysis(self, datasize_gb: float) -> list[str]:
        """OAT sweep: one run per (parameter, level); rank by time range.

        The sweep is anchored at the lower-quartile point of every range
        — the modest starting configuration a user would deploy — rather
        than at Spark defaults (which describe a tiny cluster and would
        place every sweep run in the same pathological corner).
        """
        names = self.subspace if self.subspace else self.space.names
        base = self.space.decode(np.full(self.space.dim, 0.4))
        spans: dict[str, float] = {}
        for name in names:
            lo, hi = self.space.bounds(name)
            levels = np.linspace(lo, hi, self.oat_levels)
            durations = []
            param = PARAMETERS[PARAMETER_INDEX[name]]
            for level in levels:
                value = bool(level >= 0.5 * (lo + hi)) if param.kind == "bool" else level
                config = self.space.repair(base.replace(**{name: value}))
                durations.append(self.evaluate(config, datasize_gb))
            spans[name] = float(np.ptp(durations))
        ranked = sorted(spans, key=lambda n: -spans[n])
        return ranked[: self.n_significant]

    def _optimize(self, datasize_gb: float) -> tuple[Configuration, dict]:
        significant = self._significance_analysis(datasize_gb)

        def evaluate(point: np.ndarray, ds: float) -> float:
            config = self.space.decode_subset(point, significant)
            return self.evaluate(config, ds)

        loop = BOLoop(
            dim=len(significant),
            n_init=3,
            min_iterations=self.bo_iterations,
            max_iterations=self.bo_iterations,
            ei_threshold=0.0,
            n_mcmc=0,  # Tuneful uses point-estimate GP hyper-parameters
            pool=BASELINE_POOL,
            rng=self.rng,
        )
        trace = loop.minimize(evaluate, datasize_gb)
        best_point, _ = trace.best(datasize_gb)
        best_config = self.space.decode_subset(best_point, significant)
        return best_config, {"significant": significant}
