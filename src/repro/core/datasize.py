"""Canonical datasize identity.

Datasize is the key every layer groups observations by: the objective's
trial history, the BO trace, LOCAT's observation list, and the service's
persistent run table all compare datasizes with ``==``.  Clients reach
those layers through JSON (``100`` vs ``100.0`` vs a string from a query
parameter) and through numpy scalars, so a raw float comparison can
silently split one logical history into two — the DAGP then warm-starts
from half its data and the EI incumbent can anchor on the wrong subset.

:func:`normalize_datasize` is the single canonicalization point: every
store/compare boundary converts through it, so two datasizes are the
same history key if and only if their normalized floats are equal.

The boundary contract: a layer normalizes exactly once, where a
datasize *enters* it, and may compare with ``==`` afterwards.  The
boundaries that normalize today are ``SparkSQLObjective.execute``
(objective), ``BOLoop.minimize`` and ``BOTrace.best`` (tuner),
``LOCAT.tune``/``bootstrap``/``restore`` (orchestrator, including
transplanted donor observations),
``OnlineController.observe``/``would_retune``/``restore_state``
(online), the HTTP observe handlers (the service server, so a bad
datasize is a 400 before anything is queued), and ``ObservationRecord``
(the service store, so JSON round trips through ``runs.jsonl`` cannot
fork a history).  Everything
in between passes already-normalized floats.  Note the distinction
from :func:`repro.core.dagp.datasize_coordinate`, which is the GP's
*feature scaling* of an already-normalized datasize, not its identity.
"""

from __future__ import annotations

import math

#: Decimal places kept on a normalized datasize.  Real datasizes are
#: "300 GB"-shaped; a micro-GB (kilobyte) resolution is far below any
#: meaningful distinction while absorbing float artifacts introduced by
#: JSON round-trips or unit arithmetic upstream.
_DECIMALS = 6


def normalize_datasize(value: "float | int | str") -> float:
    """Canonical float for a datasize in GB.

    Accepts ints, floats, numpy scalars, and numeric strings; rejects
    non-finite and non-positive values.  Equal logical datasizes map to
    the identical float, so ``==`` on normalized values is a safe
    history-grouping key.
    """
    try:
        ds = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"datasize must be numeric, got {value!r}") from None
    if not math.isfinite(ds):
        raise ValueError(f"datasize must be finite, got {value!r}")
    ds = round(ds, _DECIMALS)
    # Positivity is checked on the *rounded* value: a sub-resolution
    # positive input would otherwise normalize to a degenerate 0.0 key.
    if ds <= 0:
        raise ValueError(f"datasize must be positive, got {value!r}")
    return ds
