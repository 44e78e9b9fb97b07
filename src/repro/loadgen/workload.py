"""Workload definition: operation mixes and tenant provisioning.

A load run needs tenants that are *past* their bootstrap — the first
observe of a fresh tenant runs a whole tuning session, which would
swamp steady-state numbers.  :func:`provision_tenants` registers each
tenant with a deliberately small tuner, pays that bootstrap up front,
and records the resulting baseline duration; during the measured run
every reported duration wobbles a couple of percent around the
baseline — far inside what the Page–Hinkley drift detector tolerates,
so a retune in the measured window is a failure (the driver records
it as an ``error``).  What remains is exactly the steady-state serving
path: ingest, persist, status, config.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.service.sharding.shard import stable_slot

#: Operations a mix may weight.
OPS = ("observe", "status", "config")

#: Small-but-real tuner for load-test tenants: a full QCSA/IICP/BO
#: pass, sized so the one-off bootstrap costs well under a second.
LOADGEN_TUNER = {
    "n_qcsa": 8,
    "n_iicp": 6,
    "max_iterations": 4,
    "min_iterations": 2,
    "n_mcmc": 0,
    "use_polish": False,
}

@dataclass(frozen=True)
class OpMix:
    """Normalized operation weights, sampled per request."""

    weights: tuple[tuple[str, float], ...]

    @classmethod
    def parse(cls, spec: str) -> "OpMix":
        """Parse ``"observe=0.90,status=0.05,config=0.05"``.

        Weights are normalized, so they need not sum to one; unknown
        operations and non-positive totals are rejected.
        """
        weights: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in OPS:
                raise ValueError(
                    f"bad mix component {part!r}: expected <op>=<weight> with op in {OPS}"
                )
            weights[name] = weights.get(name, 0.0) + float(value)
        total = sum(weights.values())
        if total <= 0:
            raise ValueError(f"mix {spec!r} has no positive weight")
        return cls(tuple((op, weights[op] / total) for op in OPS if weights.get(op, 0) > 0))

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one operation according to the weights."""
        u = rng.random()
        acc = 0.0
        for op, weight in self.weights:
            acc += weight
            if u < acc:
                return op
        return self.weights[-1][0]

    def __str__(self) -> str:
        return ",".join(f"{op}={weight:g}" for op, weight in self.weights)


#: The canonical mix for the service-load benchmark: ingest-dominated
#: with a trickle of status and config reads.
OBSERVE_HEAVY = OpMix.parse("observe=0.90,status=0.05,config=0.05")


@dataclass(frozen=True)
class TenantPlan:
    """One provisioned tenant, ready for steady-state load."""

    app_id: str
    benchmark: str
    datasize_gb: float
    #: The deployed configuration's runtime from the bootstrap —
    #: steady-state observes report small wobbles around it.
    baseline_duration_s: float

    def sample_duration(self, rng: np.random.Generator, wobble: float = 0.02) -> float:
        """A plausible production runtime for the next observe."""
        return self.baseline_duration_s * rng.uniform(1.0 - wobble, 1.0 + wobble)


def balanced_tenant_ids(n: int, prefix: str = "tenant", balance_over: int = 4) -> list[str]:
    """Tenant ids whose shard slots cycle round-robin mod ``balance_over``.

    Generated ids are filtered by :func:`stable_slot` so that for any
    worker count dividing ``balance_over`` the tenants spread evenly
    across shards — a worker-count sweep then measures scaling, not the
    luck of the hash draw.
    """
    ids: list[str] = []
    candidate = 0
    while len(ids) < n:
        app_id = f"{prefix}-{candidate:04d}"
        candidate += 1
        if stable_slot(app_id) % balance_over == len(ids) % balance_over:
            ids.append(app_id)
    return ids


def provision_tenants(
    client,
    n_tenants: int,
    benchmark: str = "join",
    datasize_gb: float = 10.0,
    seed: int = 1,
    tuner: dict | None = None,
    controller: dict | None = None,
    prefix: str = "tenant",
    balance_over: int = 4,
    concurrency: int = 8,
) -> list[TenantPlan]:
    """Register ``n_tenants`` and pay their bootstraps up front.

    Returns one :class:`TenantPlan` per tenant with the baseline
    duration extracted from the bootstrap decision.  Bootstraps run
    ``concurrency`` at a time — on a sharded service they land on
    different workers and overlap.
    """
    tenant_ids = balanced_tenant_ids(n_tenants, prefix=prefix, balance_over=balance_over)
    tuner = dict(LOADGEN_TUNER if tuner is None else tuner)
    controller = dict(controller or {})
    for i, app_id in enumerate(tenant_ids):
        client.register_app(
            app_id,
            benchmark=benchmark,
            seed=seed + i,
            tuner=tuner,
            controller=controller,
        )

    plans: list[TenantPlan | None] = [None] * n_tenants
    errors: list[Exception] = []
    semaphore = threading.Semaphore(max(concurrency, 1))

    def bootstrap(index: int, app_id: str) -> None:
        with semaphore:
            try:
                job = client.observe(app_id, datasize_gb=datasize_gb)
                baseline = job["decision"]["tuning"]["best_duration_s"]
                plans[index] = TenantPlan(
                    app_id=app_id,
                    benchmark=benchmark,
                    datasize_gb=datasize_gb,
                    baseline_duration_s=float(baseline),
                )
            except Exception as exc:  # propagate after joining
                errors.append(exc)

    threads = [
        threading.Thread(target=bootstrap, args=(i, app_id), daemon=True)
        for i, app_id in enumerate(tenant_ids)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"{len(errors)} tenant bootstraps failed: {errors[0]}") from errors[0]
    return [plan for plan in plans if plan is not None]
