"""Seeded random-number helpers.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`; this module centralises the conversion so
experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(
    rng: int | tuple[int, ...] | list[int] | np.random.Generator | None,
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed, a
    sequence of integers (a seed key, as accepted by
    :func:`numpy.random.default_rng` — used by the replay subsystem to pin a
    recorded environment draw), or an existing generator (returned unchanged
    so callers can share state).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, (tuple, list)):
        if not rng or not all(isinstance(s, (int, np.integer)) for s in rng):
            raise TypeError("a seed sequence must be a non-empty sequence of ints")
        return np.random.default_rng(tuple(int(s) for s in rng))
    raise TypeError(
        f"rng must be None, an int seed, a seed sequence, or a Generator, got {type(rng)!r}"
    )

