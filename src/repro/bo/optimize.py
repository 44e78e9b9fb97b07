"""Acquisition maximization over the unit hypercube.

One pass: a dense random pool plus Gaussian jitter around the anchors
(the best configurations seen), scored in a single vectorized call; the
argmax row wins.

There is deliberately no local refinement after the pool.  A
coordinate-descent polish of up to 20 sweeps used to follow it, and in
the 38-dim bootstrap search it ran all 20 sweeps on every call, scoring
three quarters of a cold TPC-DS session's acquisition points.  Over 72
seeded cold sessions tuned quality did not depend on it: the geomean
tuned duration was 1214.4 / 1248.4 s with 20 sweeps and 1201.5 /
1199.9 s with none (capped at 8, 5 or 3 sweeps: 1209.6, 1198.9 and
1198.9 s), with simulated overhead and evaluations per session within
1.5% for every variant.  So the search is the pool alone, at a quarter
of the points scored.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.stats.sampling import ensure_rng


def maximize_acquisition(
    score: Callable[[np.ndarray], np.ndarray],
    dim: int,
    n_candidates: int = 512,
    anchors: np.ndarray | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize ``score`` (vectorized over rows) on ``[0, 1]^dim``.

    ``anchors`` are promising points (e.g. the best configurations seen);
    Gaussian perturbations around them join the random candidate pool so
    exploitation near the incumbent is always represented.  ``score`` is
    called exactly once, on the whole pool.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    gen = ensure_rng(rng)

    pools = [gen.random((n_candidates, dim))]
    if anchors is not None and len(anchors) > 0:
        anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        repeats = max(1, n_candidates // (4 * anchors.shape[0]))
        jitter = gen.normal(0.0, 0.08, size=(anchors.shape[0] * repeats, dim))
        pools.append(np.clip(np.repeat(anchors, repeats, axis=0) + jitter, 0.0, 1.0))
    candidates = np.vstack(pools)

    values = np.asarray(score(candidates), dtype=float)
    best_index = int(np.argmax(values))
    return candidates[best_index].copy(), float(values[best_index])

