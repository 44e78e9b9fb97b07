"""Acquisition maximization over the unit hypercube.

One pass: uniform rows of the box plus Gaussian jitter around the
anchors (the best configurations seen), scored in a single vectorized
call; the argmax row wins.  An :class:`AcquisitionPool` sizes the two
parts.  LOCAT's bootstrap search in the full 38-dim space scores jitter
alone (:data:`BOOTSTRAP_POOL`: 0 uniform, 48 jitter rows); its latent
search, and any ``BOLoop`` built without a pool, scores 96 uniform and
96 jitter rows (:data:`LATENT_POOL`).  Tuneful's and GBO-RL's loops keep
the 384 + 96 rows from before the sweep (:data:`BASELINE_POOL`): the
sweep ran LOCAT alone, so the baselines search exactly as they did.

The sizes come from ``benchmarks/sweep_acquisition_pool.py``: 12
variants of uniform rows, bootstrap {192, 48, 0} x latent {384, 192,
96, 48}, over 72 cold TPC-DS sessions, 72 adaptation sequences and 72
race-mode drift streams, each on a selection and a held-out seed.  No
variant was worse than the old (192, 384) pool beyond about two
standard errors on any seed but one (drift seed 56 for (192, 192)), and
(0, 96) was the cheapest: a cold session took 0.232 s against 0.292 s.
In the bootstrap search the uniform rows never won (all 192 argmax rows
of 8 cold sessions were jitter rows).

There is deliberately no local refinement after the pool.  A
coordinate-descent polish of up to 20 sweeps used to follow it, and in
the 38-dim bootstrap search it ran all 20 sweeps on every call, scoring
three quarters of a cold TPC-DS session's acquisition points.  Over 72
seeded cold sessions tuned quality did not depend on it: the geomean
tuned duration was 1214.4 / 1248.4 s with 20 sweeps and 1201.5 /
1199.9 s with none (capped at 8, 5 or 3 sweeps: 1209.6, 1198.9 and
1198.9 s), with simulated overhead and evaluations per session within
1.5% for every variant.  So the search is the pool alone.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.stats.sampling import ensure_rng


class AcquisitionPool(NamedTuple):
    """The rows one acquisition search scores."""

    #: Rows drawn uniformly from the unit box.
    uniform: int
    #: Rows of Gaussian jitter (sigma 0.08) split evenly over the anchors.
    jitter: int


#: The full-space search of LOCAT's bootstrap (38 dims on TPC-DS).
BOOTSTRAP_POOL = AcquisitionPool(uniform=0, jitter=48)
#: LOCAT's latent search, and any ``BOLoop`` built without a pool.
LATENT_POOL = AcquisitionPool(uniform=96, jitter=96)
#: Tuneful's and GBO-RL's loops keep the pool from before the sweep,
#: which ran LOCAT's searches only.
BASELINE_POOL = AcquisitionPool(uniform=384, jitter=96)


def maximize_acquisition(
    score: Callable[[np.ndarray], np.ndarray],
    dim: int,
    pool: AcquisitionPool = LATENT_POOL,
    anchors: np.ndarray | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize ``score`` (vectorized over rows) on ``[0, 1]^dim``.

    ``anchors`` are promising points (e.g. the best configurations seen);
    each gets ``max(1, pool.jitter // len(anchors))`` Gaussian
    perturbations, which join ``pool.uniform`` uniform rows so that
    exploitation near the incumbent is always represented.  ``score`` is
    called exactly once, on the whole pool.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    has_anchors = anchors is not None and len(anchors) > 0
    if pool.uniform <= 0 and not has_anchors:
        raise ValueError("the pool is empty: no uniform rows and no anchors to jitter")
    gen = ensure_rng(rng)

    pools = [gen.random((pool.uniform, dim))]
    if has_anchors:
        anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        repeats = max(1, pool.jitter // anchors.shape[0])
        jitter = gen.normal(0.0, 0.08, size=(anchors.shape[0] * repeats, dim))
        pools.append(np.clip(np.repeat(anchors, repeats, axis=0) + jitter, 0.0, 1.0))
    candidates = np.vstack(pools)

    values = np.asarray(score(candidates), dtype=float)
    best_index = int(np.argmax(values))
    return candidates[best_index].copy(), float(values[best_index])
