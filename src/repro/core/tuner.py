"""The BO loop: LHS start points, EI-MCMC iterations, LOCAT's stop rule.

The loop is space-agnostic: it searches an axis-aligned box (the unit
hypercube for raw encoded configurations, or the IICP latent box) and
delegates evaluation to a caller-provided function, so LOCAT, the
ablations, and the BO-based baselines all share it.

Stop condition (paper section 3.4): at least ``min_iterations`` BO
iterations, then stop once the maximal expected improvement drops below
``ei_threshold``.  Because the surrogate models *log* durations, an EI
below 0.1 literally means "under ~10% expected improvement", matching
the paper's "EI drops below 10%" rule.

Each :meth:`BOLoop.minimize` call grows one surrogate
(:mod:`repro.surrogate`): the first iteration fits a
:class:`DatasizeAwareGP` on everything observed so far, and every later
iteration appends the new observations via exact rank-k Cholesky
updates and re-samples the hyper-parameters only every few iterations.
Per-iteration surrogate cost is O(n^2) amortized instead of a
from-scratch O(n^3) refit with an MCMC chain.

The GP implementation underneath is picked by history size
(:mod:`repro.surrogate.policy`): exact up to the policy's ``n_exact``
rows, sparse (bounded per-decision cost) above.  A tuning session's few
dozen evaluations stay far below that threshold, so a session runs on
the exact GP; the sparse side serves long-lived service tenants whose
warm histories reach thousands of rows.  ``backend_policy`` overrides
the default threshold.

Warm observations may carry a *fidelity* (``warm_fidelities``): rows at
fidelity 0 are the caller's own observations, rows at fidelity > 0 are
low-fidelity prior data transplanted from another application (see
:mod:`repro.transfer`).  Donor rows inform the surrogate — the DAGP
gains a fidelity input column — but are quarantined from every decision
that must reflect the target application alone: the EI incumbent, the
acquisition search's exploitation anchors, the "covered at this
datasize" checks, and the returned :meth:`BOTrace.best` all consider
fidelity-0 rows only (:meth:`BOTrace.own_indices`).
Omitting ``warm_fidelities`` (or passing zeros) is bit-for-bit the
pre-transfer loop.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.bo.lhs import latin_hypercube
from repro.bo.optimize import maximize_acquisition
from repro.core.dagp import DatasizeAwareGP
from repro.core.datasize import normalize_datasize
from repro.stats.sampling import ensure_rng
from repro.surrogate.policy import BackendPolicy

#: Paper defaults (section 3.4).
DEFAULT_N_INIT = 3
DEFAULT_MIN_ITERATIONS = 10
DEFAULT_EI_THRESHOLD = 0.1


@dataclass
class BOTrace:
    """Everything the BO loop observed, in evaluation order.

    ``fidelities`` parallels ``durations``: 0.0 for the caller's own
    observations, > 0 for low-fidelity donor rows seeded via
    ``warm_fidelities`` (an empty list means all rows are fidelity 0 —
    traces built before the transfer extension stay valid).
    """

    points: list[np.ndarray] = field(default_factory=list)
    datasizes: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    fidelities: list[float] = field(default_factory=list)
    ei_values: list[float] = field(default_factory=list)
    stopped_by_ei: bool = False

    @property
    def n_evaluations(self) -> int:
        return len(self.durations)

    def fidelity_of(self, index: int) -> float:
        """Fidelity of one row (0.0 when the trace carries no fidelities)."""
        return self.fidelities[index] if index < len(self.fidelities) else 0.0

    def own_indices(self, datasize_gb: float | None = None) -> list[int]:
        """Indices of own (fidelity-0) rows, optionally only those at one datasize.

        ``datasize_gb`` must be canonical (:func:`normalize_datasize`),
        as every recorded datasize is.
        """
        return [
            i
            for i, ds in enumerate(self.datasizes)
            # Exact: 0.0 is the stored own-row sentinel and both sizes are
            # canonical values no arithmetic has touched.
            # repro: allow[float-eq]
            if self.fidelity_of(i) == 0.0 and (datasize_gb is None or ds == datasize_gb)
        ]

    def best(self, datasize_gb: float | None = None) -> tuple[np.ndarray, float]:
        """Best own (point, duration); optionally restricted to one datasize.

        Only fidelity-0 rows compete: a donor application's duration is
        not comparable to the target's and must never anchor the EI
        incumbent.  Raises when no own evaluation matches — silently
        widening to all datasizes would let a cheaper datasize's
        duration masquerade as the EI incumbent and trigger a spurious
        early stop (adaptation sessions warm-start from other sizes).
        """
        if not self.durations:
            raise RuntimeError("no evaluations recorded")
        indices = self.own_indices()
        if not indices:
            raise RuntimeError("no own (fidelity-0) evaluations recorded")
        if datasize_gb is not None:
            datasize_gb = normalize_datasize(datasize_gb)
            indices = self.own_indices(datasize_gb)
            if not indices:
                raise RuntimeError(
                    f"no evaluations recorded at datasize {datasize_gb} GB "
                    f"(observed sizes: {sorted(set(self.datasizes))})"
                )
        best_i = min(indices, key=lambda i: self.durations[i])
        return self.points[best_i], self.durations[best_i]


class BOLoop:
    """Expected-improvement BO over a box, with datasize-aware surrogate.

    ``bounds`` is a (low, high) pair of arrays; omit it for the unit
    hypercube.  ``n_mcmc=0`` disables hyper-parameter marginalization
    (the plain-EI ablation).
    """

    def __init__(
        self,
        dim: int,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
        n_init: int = DEFAULT_N_INIT,
        min_iterations: int = DEFAULT_MIN_ITERATIONS,
        max_iterations: int = 40,
        ei_threshold: float = DEFAULT_EI_THRESHOLD,
        n_mcmc: int = 8,
        n_candidates: int = 384,
        backend_policy: BackendPolicy | None = None,
        rng: int | np.random.Generator | None = None,
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        n_init = min(n_init, max_iterations)  # small budgets shrink the design
        self.dim = dim
        if bounds is None:
            self.low = np.zeros(dim)
            self.high = np.ones(dim)
        else:
            self.low = np.asarray(bounds[0], dtype=float)
            self.high = np.asarray(bounds[1], dtype=float)
            if self.low.shape != (dim,) or self.high.shape != (dim,):
                raise ValueError("bounds must match dim")
            if np.any(self.high <= self.low):
                raise ValueError("bounds must have positive extent")
        self.n_init = n_init
        self.min_iterations = min_iterations
        self.max_iterations = max_iterations
        self.ei_threshold = ei_threshold
        self.n_mcmc = n_mcmc
        self.n_candidates = n_candidates
        self.backend_policy = backend_policy
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def _to_unit(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.low) / (self.high - self.low)

    def _from_unit(self, unit: np.ndarray) -> np.ndarray:
        return self.low + np.asarray(unit, dtype=float) * (self.high - self.low)

    # ------------------------------------------------------------------
    def minimize(
        self,
        evaluate: Callable[[np.ndarray, float], float],
        datasize_gb: float,
        warm_points: np.ndarray | None = None,
        warm_datasizes: np.ndarray | None = None,
        warm_durations: np.ndarray | None = None,
        warm_fidelities: np.ndarray | None = None,
    ) -> BOTrace:
        """Run BO at ``datasize_gb``; warm data seeds the surrogate.

        ``evaluate(point, datasize)`` must return a positive duration.
        Warm observations (possibly at other datasizes — the DAGP
        transfer) count toward the surrogate but not the iteration or
        stop-rule budget.  ``warm_fidelities`` (optional, parallel to
        the warm arrays) marks rows transplanted from a donor
        application with values > 0: those rows inform the surrogate
        only and never the incumbent, the stop rule, or the datasize
        coverage checks.
        """
        datasize_gb = normalize_datasize(datasize_gb)

        trace = BOTrace()

        def observe(point: np.ndarray, duration: float) -> None:
            trace.points.append(np.asarray(point, dtype=float))
            trace.datasizes.append(datasize_gb)
            trace.durations.append(float(duration))
            trace.fidelities.append(0.0)

        if warm_points is not None:
            warm_points = np.atleast_2d(np.asarray(warm_points, dtype=float))
            warm_datasizes = np.asarray(warm_datasizes, dtype=float).ravel()
            warm_durations = np.asarray(warm_durations, dtype=float).ravel()
            if warm_fidelities is None:
                warm_fidelities = np.zeros(len(warm_points))
            else:
                warm_fidelities = np.asarray(warm_fidelities, dtype=float).ravel()
            if not (
                len(warm_points) == len(warm_datasizes) == len(warm_durations)
                == len(warm_fidelities)
            ):
                raise ValueError("warm arrays must have equal length")
            for p, d, y, f in zip(warm_points, warm_datasizes, warm_durations, warm_fidelities):
                trace.points.append(np.asarray(p, dtype=float))
                trace.datasizes.append(normalize_datasize(d))
                trace.durations.append(float(y))
                trace.fidelities.append(float(f))
        n_warm = trace.n_evaluations
        any_transfer = any(f > 0 for f in trace.fidelities)

        # Initial design: LHS over the box (skipped when own warm data at
        # the target datasize already covers it — donor rows don't count).
        n_init = max(0, self.n_init - len(trace.own_indices(datasize_gb)))
        if n_init:
            for unit in latin_hypercube(n_init, self.dim, self.rng):
                point = self._from_unit(unit)
                observe(point, float(evaluate(point, datasize_gb)))

        # The EI incumbent must live at the target datasize.  Without an
        # own observation there (warm data entirely at other sizes or
        # entirely from a donor, and a zero-size initial design)
        # re-measure the best warm point at the target instead of letting
        # a cheaper datasize's — or another application's — duration
        # anchor the acquisition.  Donor rows may *nominate* the point
        # (their best config is exactly what transfer should try first)
        # but the duration used is a fresh own measurement.
        if trace.n_evaluations and not trace.own_indices(datasize_gb):
            candidates = trace.own_indices() or list(range(trace.n_evaluations))
            best_warm = trace.points[min(candidates, key=lambda i: trace.durations[i])]
            observe(best_warm, float(evaluate(best_warm, datasize_gb)))

        iterations = 0
        model = DatasizeAwareGP(
            self.dim, n_mcmc=self.n_mcmc, backend_policy=self.backend_policy
        )
        n_modeled = 0
        while trace.n_evaluations - n_warm < self.max_iterations:
            unit_points = self._to_unit(np.stack(trace.points))
            if not model.is_fitted:
                model.fit(
                    unit_points,
                    np.array(trace.datasizes),
                    np.array(trace.durations),
                    rng=self.rng,
                    fidelities=np.array(trace.fidelities) if any_transfer else None,
                )
            elif trace.n_evaluations > n_modeled:
                # New observations are always the caller's own (fidelity
                # 0); the engine appends them with exact rank-k updates.
                model.extend(
                    unit_points[n_modeled:],
                    np.array(trace.datasizes[n_modeled:]),
                    np.array(trace.durations[n_modeled:]),
                    rng=self.rng,
                )
            n_modeled = trace.n_evaluations
            _, best_duration = trace.best(datasize_gb)

            def score(unit_candidates: np.ndarray) -> np.ndarray:
                return model.acquisition(unit_candidates, datasize_gb, best_duration)

            # The cheapest own rows at the target datasize anchor the search
            # (``best`` above guarantees one); donor, pre-drift and other-size
            # durations are on other scales.
            own = np.asarray(trace.own_indices(datasize_gb))
            anchors = unit_points[own[np.argsort(np.asarray(trace.durations)[own])[:3]]]
            unit_point, ei = maximize_acquisition(
                score,
                self.dim,
                n_candidates=self.n_candidates,
                anchors=anchors,
                rng=self.rng,
            )
            trace.ei_values.append(float(ei))
            iterations += 1
            if iterations >= self.min_iterations and ei < self.ei_threshold:
                trace.stopped_by_ei = True
                break

            point = self._from_unit(unit_point)
            observe(point, float(evaluate(point, datasize_gb)))
        return trace
