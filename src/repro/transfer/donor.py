"""Donor selection: which tenant's history should warm-start a new one?

Given a target workload's :class:`~repro.transfer.fingerprint.WorkloadFingerprint`
and a populated :class:`~repro.service.store.HistoryStore`, this module
ranks the registered applications as transfer donors and packages the
winner's persisted history into a :class:`TransferPlan` that
:class:`~repro.core.locat.LOCAT` can consume (``transfer_from=``).

The policy has two gates, mirroring the two halves of the paper's
portability result (Figure 21):

1. **Fingerprint similarity** (workload shape): donors are ranked by
   :func:`~repro.transfer.fingerprint.fingerprint_similarity` between
   the target's static fingerprint and each donor's fingerprint
   (recomputed from its benchmark, with the dynamic part filled in from
   its run table).  Donors
   below ``min_similarity``, without bootstrap artifacts, or with too
   few tuning observations are not candidates at all.
2. **Importance-profile agreement** (:func:`cps_agreement`): after the
   target's *reduced* bootstrap, LOCAT compares its provisional CPS
   against the donor's persisted CPS.  Low agreement means the borrowed
   parameter-importance structure does not hold for this tenant and the
   transplant is rejected (the bootstrap then completes cold).

Everything here reads the store; nothing writes.  The store argument is
duck-typed (any object with ``list_apps`` / ``app_meta`` /
``load_artifacts`` / ``observations``) so this module does not import
:mod:`repro.service`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.iicp import CPSResult
from repro.sparksim.configspace import Configuration
from repro.sparksim.serialize import config_from_dict
from repro.sparksim.workloads import get_application
from repro.stats.correlation import spearman
from repro.transfer.fingerprint import WorkloadFingerprint, fingerprint_similarity

#: Donors below this fingerprint similarity are never proposed.
DEFAULT_MIN_SIMILARITY = 0.35

#: Transplants whose CPS agreement falls below this are rejected.
DEFAULT_MIN_AGREEMENT = 0.25

#: A donor needs at least this many persisted tuning observations.
DEFAULT_MIN_OBSERVATIONS = 6

#: How many donor observations a plan transplants (the run-table tail
#: plus the donor's best row): enough to shape a GP prior, small enough
#: that the surrogate engine's warm fits stay cheap.  Donor rows enter
#: the DAGP once, as warm data at the first fit of a session's BO loop;
#: the engine's incremental ``extend`` path then appends only the
#: session's own observations (donor rows are never re-transplanted),
#: so the transplant size bounds a one-off cost, not a per-iteration
#: one.
DEFAULT_MAX_OBSERVATIONS = 30


@dataclass(frozen=True)
class DonorCandidate:
    """One ranked potential donor (no history loaded yet)."""

    app_id: str
    benchmark: str
    similarity: float
    fingerprint: WorkloadFingerprint
    cps: CPSResult
    n_observations: int


@dataclass(frozen=True)
class TransferPlan:
    """Everything LOCAT needs to warm-start from one donor.

    ``observations`` are raw ``(config, datasize_gb, rqa_duration_s)``
    tuples from the donor's run table — durations in the *donor's* RQA
    units; LOCAT bias-corrects them against its own bootstrap samples
    before they enter the GP (see ``LOCAT._accept_transfer``).
    """

    donor_app_id: str
    donor_benchmark: str
    similarity: float
    cps: CPSResult
    fingerprint: WorkloadFingerprint
    observations: tuple[tuple[Configuration, float, float], ...]
    min_similarity: float = DEFAULT_MIN_SIMILARITY
    min_agreement: float = DEFAULT_MIN_AGREEMENT


def cps_agreement(a: CPSResult, b: CPSResult) -> float:
    """Agreement of two importance profiles in ``[0, 1]``.

    Half Jaccard overlap of the selected parameter sets, half rank
    agreement (Spearman over |SCC| on the shared parameter names,
    negative correlation clamped to zero).  1.0 means the profiles
    select the same parameters in the same importance order.
    """
    selected_a, selected_b = set(a.selected), set(b.selected)
    union = selected_a | selected_b
    jaccard = len(selected_a & selected_b) / len(union) if union else 0.0

    common = sorted(set(a.scc) & set(b.scc))
    if len(common) >= 3:
        rank = spearman(
            [abs(a.scc[name]) for name in common],
            [abs(b.scc[name]) for name in common],
        )
        rank = max(0.0, float(rank))
    else:
        rank = jaccard  # too few shared names for a meaningful rank
    return 0.5 * jaccard + 0.5 * rank


def stored_fingerprint(store, app_id: str, rows: list | None = None) -> WorkloadFingerprint:
    """An application's fingerprint with its dynamic part filled in.

    The static part depends only on the benchmark named in the
    application's metadata; the run table's tuning rows fill in the
    dynamic ``seconds_per_gb`` component.  Pass ``rows`` when the
    caller already read the tuning rows, so ranking does not re-parse
    every candidate's run table.
    """
    benchmark = store.app_meta(app_id)["benchmark"]
    fingerprint = WorkloadFingerprint.from_application(
        get_application(benchmark), benchmark=benchmark
    )
    if rows is None:
        rows = store.observations(app_id, source="tuning")
    if rows:
        fingerprint = fingerprint.with_observations(
            [r.datasize_gb for r in rows], [r.duration_s for r in rows]
        )
    return fingerprint


def donor_candidate(
    store,
    target: WorkloadFingerprint,
    app_id: str,
    min_observations: int = DEFAULT_MIN_OBSERVATIONS,
) -> DonorCandidate | None:
    """One application as a scored donor candidate, or None if ineligible.

    Eligibility: bootstrap artifacts (a persisted CPS) present and at
    least ``min_observations`` tuning rows.  Loads only this app's
    files — pinning a donor does not scan the store.
    """
    try:
        _, cps = store.load_artifacts(app_id)
        if cps is None:
            return None
        rows = store.observations(app_id, source="tuning")
        if len(rows) < min_observations:
            return None
        fingerprint = stored_fingerprint(store, app_id, rows=rows)
    except (ValueError, KeyError, json.JSONDecodeError, OSError):
        # Any unreadable persisted state (corrupt run table, truncated
        # artifacts/meta JSON) makes this tenant ineligible
        # to donate — it must not break *other* tenants' registrations
        # or rehydrations (the donor ranking scans the whole store).
        # The owning tenant's own rehydration surfaces the error.
        return None
    return DonorCandidate(
        app_id=app_id,
        benchmark=fingerprint.benchmark,
        similarity=fingerprint_similarity(target, fingerprint),
        fingerprint=fingerprint,
        cps=cps,
        n_observations=len(rows),
    )


def rank_donors(
    store,
    target: WorkloadFingerprint,
    exclude: tuple[str, ...] = (),
    min_observations: int = DEFAULT_MIN_OBSERVATIONS,
) -> list[DonorCandidate]:
    """All eligible donors, best fingerprint similarity first.

    Eligibility as in :func:`donor_candidate`, minus the excluded ids.
    Ties break on app id for a deterministic ranking.
    """
    candidates = [
        candidate
        for app_id in store.list_apps()
        if app_id not in exclude
        for candidate in [donor_candidate(store, target, app_id, min_observations)]
        if candidate is not None
    ]
    return sorted(candidates, key=lambda c: (-c.similarity, c.app_id))


def select_donor(
    store,
    target: WorkloadFingerprint,
    exclude: tuple[str, ...] = (),
    min_similarity: float = DEFAULT_MIN_SIMILARITY,
    min_observations: int = DEFAULT_MIN_OBSERVATIONS,
) -> DonorCandidate | None:
    """The best eligible donor above ``min_similarity``, or None."""
    ranked = rank_donors(store, target, exclude=exclude, min_observations=min_observations)
    if ranked and ranked[0].similarity >= min_similarity:
        return ranked[0]
    return None


def build_transfer_plan(
    store,
    candidate: DonorCandidate,
    max_observations: int = DEFAULT_MAX_OBSERVATIONS,
    min_similarity: float = DEFAULT_MIN_SIMILARITY,
    min_agreement: float = DEFAULT_MIN_AGREEMENT,
) -> TransferPlan:
    """Load the donor's history tail and package it for LOCAT.

    Keeps the last ``max_observations`` tuning rows (the donor's most
    recent — and therefore most converged — exploration) plus its
    all-time best row if the tail does not already contain it.
    """
    if max_observations < 1:
        raise ValueError("max_observations must be at least 1")
    rows = store.observations(candidate.app_id, source="tuning")
    if not rows:
        raise ValueError(f"donor {candidate.app_id!r} has no tuning observations")
    tail = rows[-max_observations:]
    best = min(rows, key=lambda r: r.duration_s)
    if best not in tail:
        # Displace the oldest tail row; [-0:] would keep the whole tail.
        tail = [best] + (tail[-(max_observations - 1):] if max_observations > 1 else [])
    return TransferPlan(
        donor_app_id=candidate.app_id,
        donor_benchmark=candidate.benchmark,
        similarity=candidate.similarity,
        cps=candidate.cps,
        fingerprint=candidate.fingerprint,
        observations=tuple(
            (config_from_dict(r.config), r.datasize_gb, r.duration_s) for r in tail
        ),
        min_similarity=min_similarity,
        min_agreement=min_agreement,
    )
