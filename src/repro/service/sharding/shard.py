"""Stable tenant-to-shard routing.

Routing happens in two steps.  First an application id maps to one of
:data:`N_SLOTS` fixed *slots* via a cryptographic hash — this mapping
depends only on the id, never on the worker count, process, machine, or
Python hash seed, so it is stable across restarts by construction.
Second, a slot maps to a shard by ``slot % n_workers``.  Only the
second step changes when the worker count changes, and because every
application's data lives in a self-contained per-app directory under
its shard's store, a worker-count change is an offline directory move
(:func:`plan_reshard` / :func:`apply_reshard`), not a rehash of live
state.  Until that move is made, :func:`check_store_layout` keeps a
service from starting on a store whose tenants sit where it would not
look for them.
"""

from __future__ import annotations

import hashlib
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

#: Size of the fixed slot ring.  64 slots over at most a handful of
#: workers keeps the per-shard tenant imbalance small without making
#: the reshard plan long.
N_SLOTS = 64


def stable_slot(app_id: str, n_slots: int = N_SLOTS) -> int:
    """Map an application id to a slot on the fixed ring.

    SHA-256 over the UTF-8 id, so the answer is identical across
    processes, restarts, machines, and worker counts — unlike
    ``hash()``, which is salted per process.
    """
    digest = hashlib.sha256(app_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_slots


@dataclass(frozen=True)
class ShardMap:
    """Slot ring → shard assignment for a fixed worker count."""

    n_workers: int
    n_slots: int = N_SLOTS

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_slots < self.n_workers:
            raise ValueError(
                f"n_slots ({self.n_slots}) must be >= n_workers ({self.n_workers})"
            )

    def shard_of(self, app_id: str) -> int:
        """The shard owning ``app_id`` under this worker count."""
        return stable_slot(app_id, self.n_slots) % self.n_workers

    def shard_dir(self, root: str | Path, shard: int) -> Path:
        """The store directory for one shard under the service root."""
        if not 0 <= shard < self.n_workers:
            raise ValueError(f"shard {shard} out of range for {self.n_workers} workers")
        return Path(root) / f"shard-{shard:02d}"

    def assignments(self) -> dict[int, list[int]]:
        """Shard → sorted list of slots it owns."""
        table: dict[int, list[int]] = {shard: [] for shard in range(self.n_workers)}
        for slot in range(self.n_slots):
            table[slot % self.n_workers].append(slot)
        return table


_SHARD_DIR_RE = re.compile(r"shard-\d+")


def check_store_layout(root: str | Path, shard_map: ShardMap | None) -> None:
    """Refuse a store whose tenants a service would not find.

    ``shard_map`` is the layout the service reads: None for the plain
    single-process service (tenant directories directly under
    ``root``), else one ``shard-NN/`` directory per worker, each holding
    the tenants :meth:`ShardMap.shard_of` assigns to it.  A tenant
    anywhere else would be missing from ``GET /apps``, answer 404, and
    be forked by a client that re-registers it, so this raises
    :class:`ValueError` naming every misplaced tenant instead.
    """
    root = Path(root)
    if not root.is_dir():
        return
    misplaced: list[str] = []
    for entry in sorted(root.iterdir()):
        if (entry / "app.json").exists():
            if shard_map is not None:
                misplaced.append(entry.name)
            continue
        if not entry.is_dir() or _SHARD_DIR_RE.fullmatch(entry.name) is None:
            continue
        for app_dir in sorted(entry.iterdir()):
            if (app_dir / "app.json").exists() and (
                shard_map is None
                or app_dir.parent != shard_map.shard_dir(root, shard_map.shard_of(app_dir.name))
            ):
                misplaced.append(f"{entry.name}/{app_dir.name}")
    if misplaced:
        layout = (
            "the plain layout" if shard_map is None
            else f"the layout of {shard_map.n_workers} shard(s)"
        )
        raise ValueError(
            f"store {str(root)!r} does not match {layout}; misplaced tenants: "
            f"{', '.join(misplaced)}.  Restart with the worker count that wrote "
            "the store (1 for tenants directly under it), or move tenants "
            "between shard directories while the service is stopped with "
            "repro.service.sharding.apply_reshard(plan_reshard(root, old, new))."
        )


@dataclass(frozen=True)
class ReshardMove:
    """One application directory move in a reshard plan."""

    app_id: str
    source: Path
    destination: Path


@dataclass
class ReshardPlan:
    """Directory moves taking a store from one worker count to another."""

    old_map: ShardMap
    new_map: ShardMap
    moves: list[ReshardMove] = field(default_factory=list)


def plan_reshard(root: str | Path, old_workers: int, new_workers: int) -> ReshardPlan:
    """Plan the directory moves for a worker-count change.

    Scans every ``shard-*/`` app directory under ``root`` and records a
    move for each application whose owning shard differs under the new
    worker count.  Pure planning — nothing on disk changes.
    """
    old_map = ShardMap(old_workers)
    new_map = ShardMap(new_workers)
    plan = ReshardPlan(old_map=old_map, new_map=new_map)
    root = Path(root)
    for shard in range(old_workers):
        shard_dir = old_map.shard_dir(root, shard)
        if not shard_dir.is_dir():
            continue
        for app_dir in sorted(p for p in shard_dir.iterdir() if p.is_dir()):
            app_id = app_dir.name
            new_shard = new_map.shard_of(app_id)
            if new_shard != shard or new_workers < old_workers:
                destination = new_map.shard_dir(root, new_shard) / app_id
                if destination != app_dir:
                    plan.moves.append(
                        ReshardMove(app_id=app_id, source=app_dir, destination=destination)
                    )
    return plan


def apply_reshard(plan: ReshardPlan) -> int:
    """Execute a reshard plan; returns the number of directories moved.

    Must run while the service is stopped — application directories are
    self-contained (run table + artifacts + deployment state), so a
    plain move transfers the whole tenant.
    """
    for move in plan.moves:
        if move.destination.exists():
            raise FileExistsError(
                f"reshard target already exists for {move.app_id!r}: {move.destination}"
            )
    for move in plan.moves:
        move.destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(move.source), str(move.destination))
    return len(plan.moves)
