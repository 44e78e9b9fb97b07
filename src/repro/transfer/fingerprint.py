"""Workload fingerprints: a compact, comparable signature of an application.

The paper's portability claim (section 5.10, Figure 21) is that LOCAT's
importance structure — which queries are configuration-sensitive, which
parameters matter — carries across clusters and workloads.  To *exploit*
that claim the tuning service needs a cheap way to decide how alike two
workloads are **before** spending a single cluster run on the new one.

A :class:`WorkloadFingerprint` is that signature.  It has two parts:

* a **static** part computed from the :class:`~repro.sparksim.query.Application`
  plan alone — the query-category mix (selection/join/aggregation, the
  taxonomy of section 5.11), the stage-kind histogram, and scalar
  intensities (shuffle volume, input volume, CPU weight, skew, broadcast
  build-side size), all expressed as fractions of the input datasize so
  the signature is datasize-free;
* an optional **dynamic** part (:attr:`seconds_per_gb`) filled in from
  early observations — the median observed duration per input GB — which
  separates workloads whose plans look alike but whose runtime weight
  differs.

:func:`fingerprint_similarity` maps two fingerprints to ``[0, 1]``
(1.0 for identical signatures).  Donor selection
(:mod:`repro.transfer.donor`) ranks candidate donors by it and the
transfer bootstrap in :class:`~repro.core.locat.LOCAT` re-checks it with
the dynamic part filled in before transplanting any history.

The static part depends only on the application, so the service
stores no fingerprints: donor ranking recomputes each tenant's from the
benchmark it registered with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import median

from repro.sparksim.query import Application, StageKind

#: Query categories of the paper's section 5.11 taxonomy.
QUERY_CATEGORIES = ("selection", "join", "aggregation")

#: Stage kinds, in enum declaration order (stable across processes).
STAGE_KINDS = tuple(kind.value for kind in StageKind)

#: Relative weight of each fingerprint component in the similarity score.
#: The two mixes dominate (they encode what the workload *does*); the
#: scalar intensities refine; the dynamic part is a small tie-breaker and
#: is skipped (with weights renormalized) when either side lacks it.
_WEIGHTS = {
    "category_mix": 0.25,
    "stage_kind_mix": 0.25,
    "shuffle_intensity": 0.15,
    "input_intensity": 0.10,
    "cpu_intensity": 0.10,
    "skew": 0.05,
    "broadcast_mb": 0.05,
    "seconds_per_gb": 0.05,
}

#: Floor used when comparing scalar intensities, so two near-zero values
#: compare as similar instead of dividing noise by noise.
_SCALAR_FLOOR = 1e-3


@dataclass(frozen=True)
class WorkloadFingerprint:
    """The query-mix / stage-kind / volume signature of one application.

    All volume figures are fractions of the application input datasize
    (mirroring :class:`~repro.sparksim.query.Stage`), so fingerprints of
    the same application at different datasizes are identical except for
    the dynamic :attr:`seconds_per_gb` component.
    """

    benchmark: str
    n_queries: int
    #: Fraction of queries per category; every category key is present.
    category_mix: dict[str, float] = field(default_factory=dict)
    #: Fraction of stages per :class:`StageKind`; every kind key is present.
    stage_kind_mix: dict[str, float] = field(default_factory=dict)
    #: Mean per-query total shuffle volume (fraction of input datasize).
    shuffle_intensity: float = 0.0
    #: Mean per-query total bytes read (fraction of input datasize).
    input_intensity: float = 0.0
    #: Input-weighted mean stage CPU weight.
    cpu_intensity: float = 1.0
    #: Mean stage skew in [0, 1].
    skew: float = 0.0
    #: Mean broadcast build-side size (MB) over stages that have one.
    broadcast_mb: float = 0.0
    #: Median observed duration per input GB (dynamic part; None until
    #: early observations exist).  Units are whatever the observations
    #: were — a coarse magnitude signal, not a calibrated predictor.
    seconds_per_gb: float | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_application(cls, app: Application, benchmark: str | None = None) -> "WorkloadFingerprint":
        """Compute the static fingerprint of an application plan."""
        queries = app.queries
        category_mix = {c: 0.0 for c in QUERY_CATEGORIES}
        for query in queries:
            category_mix[query.category] += 1.0 / len(queries)

        stages = [s for q in queries for s in q.stages]
        stage_kind_mix = {k: 0.0 for k in STAGE_KINDS}
        for stage in stages:
            stage_kind_mix[stage.kind.value] += 1.0 / len(stages)

        total_input = sum(s.input_fraction for s in stages)
        cpu = (
            sum(s.cpu_weight * s.input_fraction for s in stages) / total_input
            if total_input > 0
            else float(sum(s.cpu_weight for s in stages)) / len(stages)
        )
        broadcast_sides = [s.small_side_mb for s in stages if s.small_side_mb > 0]
        return cls(
            benchmark=benchmark if benchmark is not None else app.name,
            n_queries=len(queries),
            category_mix=category_mix,
            stage_kind_mix=stage_kind_mix,
            shuffle_intensity=sum(q.total_shuffle_fraction for q in queries) / len(queries),
            input_intensity=sum(q.total_input_fraction for q in queries) / len(queries),
            cpu_intensity=cpu,
            skew=sum(s.skew for s in stages) / len(stages),
            broadcast_mb=sum(broadcast_sides) / len(broadcast_sides) if broadcast_sides else 0.0,
        )

    def with_observations(
        self, datasizes_gb: list[float], durations_s: list[float]
    ) -> "WorkloadFingerprint":
        """Fill the dynamic part from early (datasize, duration) pairs."""
        if len(datasizes_gb) != len(durations_s):
            raise ValueError("datasizes and durations must have the same length")
        if not durations_s:
            return self
        rates = [
            float(duration) / float(ds)
            for ds, duration in zip(datasizes_gb, durations_s)
            if float(ds) > 0 and float(duration) > 0
        ]
        if not rates:
            return self
        return replace(self, seconds_per_gb=float(median(rates)))


def _mix_similarity(a: dict[str, float], b: dict[str, float]) -> float:
    """1 - half the L1 distance between two distributions (both sum to 1)."""
    keys = set(a) | set(b)
    distance = sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
    return max(0.0, 1.0 - 0.5 * distance)


def _scalar_similarity(a: float, b: float, floor: float = _SCALAR_FLOOR) -> float:
    """min/max ratio similarity with a floor for near-zero magnitudes."""
    hi = max(abs(a), abs(b), floor)
    return max(0.0, 1.0 - abs(a - b) / hi)


def fingerprint_similarity(a: WorkloadFingerprint, b: WorkloadFingerprint) -> float:
    """Similarity of two fingerprints in ``[0, 1]`` (1.0 when identical).

    A weighted blend of the mix similarities and scalar-intensity
    ratios (:data:`_WEIGHTS`); the dynamic ``seconds_per_gb`` component
    only participates when both fingerprints carry it.
    """
    scores = {
        "category_mix": _mix_similarity(a.category_mix, b.category_mix),
        "stage_kind_mix": _mix_similarity(a.stage_kind_mix, b.stage_kind_mix),
        "shuffle_intensity": _scalar_similarity(a.shuffle_intensity, b.shuffle_intensity),
        "input_intensity": _scalar_similarity(a.input_intensity, b.input_intensity),
        "cpu_intensity": _scalar_similarity(a.cpu_intensity, b.cpu_intensity),
        "skew": _scalar_similarity(a.skew, b.skew),
        "broadcast_mb": _scalar_similarity(a.broadcast_mb, b.broadcast_mb, floor=1.0),
    }
    if a.seconds_per_gb is not None and b.seconds_per_gb is not None:
        scores["seconds_per_gb"] = _scalar_similarity(a.seconds_per_gb, b.seconds_per_gb)
    total_weight = sum(_WEIGHTS[name] for name in scores)
    return sum(_WEIGHTS[name] * score for name, score in scores.items()) / total_weight
