"""Sharded multi-worker tuning service.

One :class:`~repro.service.server.TuningService` process per shard,
tenants partitioned by a stable hash of the application id, and a thin
front-end router that proxies each request to the owning worker over a
persistent local connection:

* :mod:`repro.service.sharding.shard` — the shard map: a fixed slot
  ring (``stable_slot``) so an application's slot never depends on the
  worker count, per-worker data directories, and offline reshard
  planning for worker-count changes;
* :mod:`repro.service.sharding.worker` — worker lifecycle: spawn a
  service process per shard, health-check it, restart it (rehydrating
  tenant state from its shard's store) after a crash, and drain it
  gracefully on shutdown;
* :mod:`repro.service.sharding.frontend` —
  :class:`ShardedTuningService`, the HTTP front end that routes
  tenant-scoped requests to the owning shard and answers ``GET /apps``
  and ``GET /jobs`` by fan-out merge.

With ``workers=1`` the sharded stack is byte-for-byte compatible with
the single-process service: requests are proxied verbatim to the one
worker and job ids carry no shard prefix.
"""

from repro.service.sharding.frontend import ShardedTuningService
from repro.service.sharding.shard import (
    N_SLOTS,
    ShardMap,
    apply_reshard,
    check_store_layout,
    plan_reshard,
    stable_slot,
)
from repro.service.sharding.worker import (
    WorkerHandle,
    WorkerSpec,
    WorkerSupervisor,
    default_service,
)

__all__ = [
    "N_SLOTS",
    "ShardMap",
    "ShardedTuningService",
    "WorkerHandle",
    "WorkerSpec",
    "WorkerSupervisor",
    "apply_reshard",
    "check_store_layout",
    "default_service",
    "plan_reshard",
    "stable_slot",
]
