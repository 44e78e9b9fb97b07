"""Tuning-as-a-service: run LOCAT as a long-lived, multi-tenant service.

The paper's deployment story is an application that "runs repeatedly
many times" in production.  This package provides the substrate that
story needs and the in-process classes leave out:

* :mod:`repro.service.store` — a persistent tuning-history store: one
  append-only JSON-lines run table per application, plus the QCSA/CPS
  artifacts needed to warm-start a restarted tuner without re-paying
  the bootstrap;
* :mod:`repro.service.registry` — the multi-tenant application
  registry: one rehydratable :class:`~repro.core.online.OnlineController`
  session per registered application, with optional cross-application
  transfer warm-starts (``warm_start="transfer"`` borrows the most
  similar tenant's history via :mod:`repro.transfer`);
* :mod:`repro.service.scheduler` — a thread-pool job scheduler running
  tuning sessions concurrently across tenants while serializing jobs
  within each application, oldest submission first;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only JSON-over-HTTP API and its keep-alive Python client
  (persistent connections, one transparent retry on idempotent
  transport failures);
* :mod:`repro.service.sharding` — the multi-worker deployment: a
  routing front end over ``N`` worker processes, each a full
  :class:`TuningService` owning a stable-hash shard of the tenants,
  with crash supervision (restart + store rehydration) and graceful
  drain.  ``--workers 1`` is byte-identical to the plain service.

Start a service with ``python -m repro serve --store ./tuning-store``
(add ``--workers N`` to shard across processes); see ``examples/tuning_service.py`` for an end-to-end walkthrough, and
``docs/architecture.md`` / ``docs/history-store.md`` for the data flow
and the on-disk schema.
"""

from repro.service.client import ServiceError, TuningClient
from repro.service.registry import AppSession, QuarantinedApplicationError, TuningRegistry
from repro.service.scheduler import Job, JobScheduler, SchedulerSaturatedError
from repro.service.server import TuningService
from repro.service.sharding import ShardedTuningService
from repro.service.store import CorruptRunTableError, HistoryStore, ObservationRecord

__all__ = [
    "AppSession",
    "CorruptRunTableError",
    "HistoryStore",
    "Job",
    "JobScheduler",
    "ObservationRecord",
    "QuarantinedApplicationError",
    "SchedulerSaturatedError",
    "ServiceError",
    "ShardedTuningService",
    "TuningClient",
    "TuningRegistry",
    "TuningService",
]
