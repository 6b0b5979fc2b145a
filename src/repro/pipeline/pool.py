"""The rebuild loop: one dead disk, its stripes recovered chunk by chunk.

Every whole-disk rebuild in the repo runs :meth:`PoolRebuild.rebuild` —
the pool rebuild, the single-array :class:`~repro.pipeline.engine.RebuildPipeline`
(a flat placement over the array's own ``n`` disks), the serving rebuild
and the benchmarks.  A pool disk appears only in the stripes the
placement put on it, so the rebuild starts from the placement's inverse
map (disk -> affected stripes), groups those stripes by the logical role
the dead disk plays, slices each group into :class:`StripeChunk` batches
and drives each group through one compiled
:class:`~repro.codec.batch.BatchReconstructor` plan.  On the rotated
array the role groups are exactly the rotation classes (``s % n``).
Reads are billed to the surviving *pool* disks through the placement
table, which is the quantity declustering improves: flat placement
concentrates every read on the dead disk's ``w - 1`` group mates, a
declustered map fans the same reads out pool-wide and the max-per-disk
load (the rebuild-time bound when disks are equally fast) drops by the
declustering factor.

The loop reads bytes only through its source's ``gather(stripe_ids,
out)`` (whole stripes in logical element order, into a reused buffer) and
``role_rows(stripe_ids, role)`` (one role's rows, the ground truth);
:class:`~repro.placement.pool.PoolStore` and the array image view in
:mod:`repro.pipeline.engine` implement both.

When the placement carries a topology (:meth:`PlacementMap.attach_topology`),
every billed read is *also* billed up the tree through a
:class:`~repro.obs.LinkLoadMap` — per disk, per machine NIC, per rack
uplink — and a :class:`~repro.topology.TopologyAwarePlanner` can replace
the scalar per-role scheme with per-rack-signature schemes that minimise
the lexicographic max-per-{uplink, NIC, disk} load.  The executed billing
must match the planner's analytic loads exactly (``read_loads`` /
``link_read_loads``); the benchmarks enforce that contract.

The dead disk's rows are poisoned in every gathered chunk, and every
recovered row is verified byte-identical against the source before the
result is returned — a placement bug surfaces as a mismatch count, never
as silent corruption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.codec.batch import BatchReconstructor
from repro.placement.map import plan_read_loads, role_groups
from repro.placement.pool import PoolStore
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme


@dataclass(frozen=True)
class StripeChunk:
    """One batch of the rebuild loop, handed to both hooks.

    Attributes
    ----------
    chunk_id:
        Dense sequence number in emission order.
    role:
        Logical role the dead disk plays in every stripe of the chunk
        (one scheme, one compiled plan).
    stripe_ids:
        Ascending stripe indices, ``len <= chunk_stripes``.
    """

    chunk_id: int
    role: int
    stripe_ids: np.ndarray

    @property
    def n_stripes(self) -> int:
        return len(self.stripe_ids)


@dataclass
class PoolRebuildResult:
    """Outcome of rebuilding one dead disk."""

    dead_disk: int
    rows: np.ndarray               #: recovered rows, ``(affected, k, esz)``
    stripe_ids: np.ndarray         #: affected stripes, ascending
    reads_per_disk: np.ndarray     #: element reads billed per pool disk
    mismatches: int                #: rows that failed byte verification
    stats: Dict[str, Any] = field(default_factory=dict)
    link_loads: Optional["obs.LinkLoadMap"] = None  #: per-link billing, when
                                                    #: a topology is attached

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    @property
    def image(self) -> np.ndarray:
        """Recovered rows in stripe order, ``(affected * k, esz)`` — the
        rebuilt disk image when the dead disk holds every stripe."""
        return self.rows.reshape(-1, self.rows.shape[-1])

    @property
    def max_read_load(self) -> int:
        return int(self.reads_per_disk.max())

    @property
    def read_spread(self) -> float:
        """max / mean-over-busy-disks (1.0 = perfectly even fan-out)."""
        busy = self.reads_per_disk[self.reads_per_disk > 0]
        return float(self.max_read_load / busy.mean()) if busy.size else 1.0


class PoolRebuild:
    """Rebuild dead disks of a :class:`~repro.placement.pool.PoolStore`.

    Parameters
    ----------
    store:
        The byte source: an encoded pool store, or anything with its
        ``code``, ``placement``, ``k_rows``, ``element_size``,
        ``gather`` and ``role_rows``.
    chunk_stripes:
        Affected stripes recovered per batch-kernel call.
    planner / plan_cache / algorithm / depth:
        Scheme search configuration: a pre-built planner (its cached
        schemes are reused), or a fresh one with that persistent plan
        store, algorithm and depth.
    topo_planner:
        Optional :class:`~repro.topology.TopologyAwarePlanner`; requires
        the store's placement to have that planner's topology attached.
        Stripes are then grouped by (role, rack signature) and each group
        gets its lexicographically link-optimal scheme.
    throttle:
        Optional hook called with each :class:`StripeChunk` *before* it
        is gathered.  Blocking inside the hook delays rebuild work without
        touching anything else — the admission point the serving QoS
        throttle plugs into.
    on_chunk:
        Optional hook called with ``(chunk, rows)`` after each chunk is
        recovered, verified and billed; ``rows`` is the chunk's
        ``(n_stripes, k_rows, element_size)`` recovered block, a view
        valid only for the duration of the callback (copy to keep).
        Chunks arrive in ``chunk_id`` order.
    """

    def __init__(
        self,
        store: PoolStore,
        chunk_stripes: int = 256,
        planner: Optional[RecoveryPlanner] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        topo_planner=None,
        throttle: Optional[Callable[[StripeChunk], None]] = None,
        on_chunk: Optional[Callable[[StripeChunk, np.ndarray], None]] = None,
    ) -> None:
        if chunk_stripes < 1:
            raise ValueError(f"chunk_stripes must be >= 1, got {chunk_stripes}")
        self.store = store
        self.chunk_stripes = chunk_stripes
        self.throttle = throttle
        self.on_chunk = on_chunk
        self.planner = planner or RecoveryPlanner(
            store.code, algorithm=algorithm, depth=depth, plan_cache=plan_cache
        )
        if topo_planner is not None:
            # fail fast on a planner/placement topology mismatch
            store.placement.require_leaf_of_disk(topo_planner.topology)
        self.topo_planner = topo_planner

    # ------------------------------------------------------------------
    def stripe_groups(
        self, dead_disk: int
    ) -> Iterator[Tuple[int, np.ndarray, RecoveryScheme]]:
        """``(role, stripe_ids, scheme)`` execution groups for a rebuild.

        The single unit both the executed rebuild and the analytic load
        computations iterate, so their billing agrees by construction.
        With a topology-aware planner attached the groups split further
        by rack signature; otherwise one group per logical role.
        """
        placement = self.store.placement
        if self.topo_planner is not None:
            yield from self.topo_planner.stripe_groups(placement, dead_disk)
            return
        for role, stripe_ids in role_groups(placement, dead_disk):
            yield role, stripe_ids, self.planner.scheme_for_disk(role)

    def read_loads(self, dead_disk: int) -> np.ndarray:
        """Planned per-pool-disk reads for a rebuild (no bytes moved)."""
        groups = (
            (role, ids, scheme.loads)
            for role, ids, scheme in self.stripe_groups(dead_disk)
        )
        return plan_read_loads(groups, self.store.placement, dead_disk)

    def link_read_loads(self, dead_disk: int) -> "obs.LinkLoadMap":
        """Planned per-link loads (requires an attached topology)."""
        from repro.topology.planner import link_loads

        return link_loads(self.store.placement, self.read_loads(dead_disk))

    # ------------------------------------------------------------------
    def rebuild(self, dead_disk: int) -> PoolRebuildResult:
        """Recover every row the dead disk held, billing reads per disk."""
        store = self.store
        placement = store.placement
        # ascending: the inverse map scans the table row-major
        all_stripes, _ = placement.roles_of_disk(dead_disk)
        k, esz = store.k_rows, store.element_size

        rows = np.empty((len(all_stripes), k, esz), dtype=np.uint8)
        # per-chunk buffers, reused for every chunk
        buf_stripes = min(self.chunk_stripes, len(all_stripes))
        in_buf = np.empty(
            (buf_stripes, placement.width * k, esz), dtype=np.uint8
        )
        out_buf = np.empty((buf_stripes, k, esz), dtype=np.uint8)
        loadmap = obs.DiskLoadMap(placement.n_pool)
        linkmap = None
        leaf = per_leaf = None
        if placement.topology is not None:
            linkmap = obs.LinkLoadMap(placement.topology)
            leaf = placement.leaf_of_disk
            per_leaf = np.zeros(placement.topology.n_disks, dtype=np.int64)
        mismatches = 0
        n_chunks = 0
        # plan every group up front: the timed loop only moves bytes
        groups = list(self.stripe_groups(dead_disk))
        t0 = time.perf_counter()
        with obs.span(
            "placement.rebuild",
            placement=placement.name,
            pool=placement.n_pool,
            affected=len(all_stripes),
        ):
            for role, group_ids, scheme in groups:
                recon = BatchReconstructor(scheme)
                loads = np.asarray(scheme.loads, dtype=np.int64)
                read_roles = np.flatnonzero(loads)
                for lo in range(0, len(group_ids), self.chunk_stripes):
                    chunk = StripeChunk(
                        n_chunks, role, group_ids[lo : lo + self.chunk_stripes]
                    )
                    if self.throttle is not None:
                        self.throttle(chunk)
                    ids = chunk.stripe_ids
                    batch = store.gather(ids, in_buf[: len(ids)])
                    # poison the dead rows: any scheme that accidentally
                    # reads them fails verification instead of passing
                    batch[:, role * k : (role + 1) * k] = 0xAA
                    out = out_buf[: len(ids)]
                    recon.recover_batch_into(batch, out)
                    rows[np.searchsorted(all_stripes, ids)] = out
                    truth = store.role_rows(ids, role)
                    if not np.array_equal(out, truth):
                        mismatches += int((out != truth).any(axis=(1, 2)).sum())
                    # bill every read to the pool disk serving it
                    hosts = placement.disk_of_role(ids[:, None], read_roles)
                    per_disk = np.bincount(
                        hosts.reshape(-1),
                        weights=np.broadcast_to(loads[read_roles], hosts.shape)
                        .reshape(-1),
                        minlength=placement.n_pool,
                    ).astype(np.int64)
                    loadmap.add_vector(per_disk)
                    if linkmap is not None:
                        per_leaf[leaf] = per_disk
                        linkmap.add_vector(per_leaf)
                    if self.on_chunk is not None:
                        self.on_chunk(chunk, out)
                    n_chunks += 1
                    obs.count("placement.chunks")
        wall_s = time.perf_counter() - t0

        loadmap.publish("placement.rebuild_reads")
        if linkmap is not None:
            linkmap.publish("placement.rebuild_links")
        obs.count("placement.rebuilds")
        obs.count("placement.stripes", len(all_stripes))
        rebuilt_bytes = rows.nbytes
        stats = {
            "placement": placement.name,
            "n_pool": placement.n_pool,
            "width": placement.width,
            "affected_stripes": int(len(all_stripes)),
            "groups": len(groups),
            "chunks": n_chunks,
            "chunk_stripes": self.chunk_stripes,
            "rebuilt_bytes": int(rebuilt_bytes),
            "wall_s": wall_s,
            "rebuilt_mb_s": (rebuilt_bytes / 2**20) / wall_s if wall_s > 0 else 0.0,
            "read_load": loadmap.summary(),
        }
        if linkmap is not None:
            stats["link_load"] = linkmap.summary()
            stats["topology"] = placement.topology.spec()
        return PoolRebuildResult(
            dead_disk=dead_disk,
            rows=rows,
            stripe_ids=all_stripes,
            reads_per_disk=loadmap.reads,
            mismatches=mismatches,
            stats=stats,
            link_loads=linkmap,
        )


def rebuild_pool_disk(
    store: PoolStore,
    dead_disk: int,
    chunk_stripes: int = 256,
    plan_cache: Optional[SchemePlanCache] = None,
    algorithm: str = "u",
    depth: int = 1,
    topo_planner=None,
) -> PoolRebuildResult:
    """One-call pool rebuild (see :class:`PoolRebuild`)."""
    engine = PoolRebuild(
        store,
        chunk_stripes=chunk_stripes,
        plan_cache=plan_cache,
        algorithm=algorithm,
        depth=depth,
        topo_planner=topo_planner,
    )
    return engine.rebuild(dead_disk)


def compare_placements(
    store_factory: Callable[[str], PoolStore],
    names: List[str],
    dead_disk: int = 0,
    **kwargs: Any,
) -> Dict[str, PoolRebuildResult]:
    """Rebuild the same dead disk under several placements (benchmark core)."""
    return {
        name: rebuild_pool_disk(store_factory(name), dead_disk, **kwargs)
        for name in names
    }
