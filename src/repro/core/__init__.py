"""LOCAT core: the paper's primary contribution.

* :mod:`repro.core.qcsa` — Query Configuration Sensitivity Analysis,
* :mod:`repro.core.iicp` — Identifying Important Configuration
  Parameters (CPS via Spearman correlation + CPE via Kernel PCA),
* :mod:`repro.core.dagp` — the Datasize-Aware Gaussian Process surrogate,
* :mod:`repro.core.tuner` — the EI-MCMC BO loop with LOCAT's stop rule,
* :mod:`repro.core.locat` — the end-to-end orchestrator,
* :mod:`repro.core.drift` — the Page–Hinkley drift detector of the
  online controller (:mod:`repro.core.online`).
"""

from repro.core.dagp import DatasizeAwareGP
from repro.core.datasize import normalize_datasize
from repro.core.drift import DriftDetector, DurationPrediction, PageHinkleyDetector
from repro.core.iicp import CPEResult, CPSResult, IICPResult
from repro.core.locat import LOCAT
from repro.core.objective import SparkSQLObjective, Trial
from repro.core.parallel import EvalRequest, ParallelEvaluator
from repro.core.qcsa import QCSA, QCSAResult
from repro.core.result import TuningResult

__all__ = [
    "CPEResult",
    "CPSResult",
    "DatasizeAwareGP",
    "DriftDetector",
    "DurationPrediction",
    "EvalRequest",
    "IICPResult",
    "LOCAT",
    "PageHinkleyDetector",
    "ParallelEvaluator",
    "QCSA",
    "QCSAResult",
    "SparkSQLObjective",
    "Trial",
    "TuningResult",
    "normalize_datasize",
]
