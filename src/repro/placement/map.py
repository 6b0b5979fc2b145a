"""Stripe-to-disk placement over a large disk pool.

The paper balances rebuild reads across the ``n`` surviving disks of *one*
array.  A storage fleet has hundreds of disks and only ``w`` of them hold
any given stripe — so which ``w`` the placement picks decides how far one
dead disk's rebuild fans out.  This module is that decision, behind one
interface:

* :class:`FlatPlacement` — fixed RAID groups (the classic baseline): the
  pool is carved into ``n_pool // w`` disjoint groups and every stripe
  lives entirely inside one group.  A dead disk's rebuild reads all land
  on its ``w - 1`` group mates, no matter how big the pool is.
* :class:`DeclusteredPlacement` — parity declustering via a cyclic block
  design: one base block with (greedily) distinct pairwise differences is
  translated around the pool, so the set of disks co-placed with any one
  disk spans up to ``w * (w - 1)`` neighbours and rebuild reads spread
  pool-wide (Dau et al., *Parity Declustering via t-designs*).
* :class:`D3Placement` — deterministic-distribution layout in the spirit
  of D3 (Xu et al., arXiv:2004.03998): stripes walk the pool with a
  start offset and a stride that cycles through the units mod ``n_pool``,
  pairing every disk with every other at equal rates without any stored
  randomness.
* :class:`RandomPlacement` — seeded uniform-random ``w``-subsets; the
  declustering upper bound the combinatorial layouts are judged against.
* :class:`RackAwarePlacement` — topology-aware declustering: slots walk
  the racks round-robin (capping co-located roles per rack at
  ``ceil(w / racks)``) while a D3-style cycling coprime stride spreads
  the intra-rack picks, so rebuild reads decluster across disks *and*
  rack uplinks at once.  Requires a :class:`~repro.topology.Topology`.

A placement may carry a topology mapping (:meth:`PlacementMap.attach_topology`:
pool disk -> tree leaf), which is what lets the pool rebuild bill element
reads up the tree and the topology-aware planner pick schemes per rack
signature.

Every strategy materialises a ``(n_stripes, w)`` table of pool-disk ids
(position = *slot*), validated to hold ``w`` distinct disks per stripe.
Within a stripe the logical role ``l`` sits at slot ``(l + s) % w`` — the
paper's per-stripe rotation (and its dedicated-parity hotspot fix), so the
rotated single array is exactly ``make_placement("flat", n, n_stripes, n)``.
The inverse map (disk -> affected stripes) is exactly what a rebuild needs
to know.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np


class PlacementMap:
    """One stripe->disk placement: the table plus both lookup directions.

    Parameters
    ----------
    n_pool:
        Disks in the pool.
    table:
        ``(n_stripes, width)`` integer array; row ``s`` lists the pool
        disks hosting stripe ``s`` in slot order.
    name:
        Strategy name (surfaced in stats/benchmarks).
    group_starts:
        Optional ascending stripe indices where a *placement group* (a
        run of stripes sharing one disk set) begins.  Used to align
        serving shard bounds to group boundaries; strategies whose disk
        set changes every stripe leave it ``None`` (any bound aligns).
    """

    def __init__(
        self,
        n_pool: int,
        table: np.ndarray,
        name: str,
        group_starts: Optional[np.ndarray] = None,
    ) -> None:
        table = np.ascontiguousarray(table, dtype=np.int32)
        if table.ndim != 2:
            raise ValueError(f"table must be 2-D, got shape {table.shape}")
        n_stripes, width = table.shape
        if n_stripes < 1 or width < 1:
            raise ValueError(f"empty placement table {table.shape}")
        if width > n_pool:
            raise ValueError(
                f"stripe width {width} exceeds pool size {n_pool}"
            )
        if table.min() < 0 or table.max() >= n_pool:
            raise ValueError("placement table references disks outside the pool")
        srt = np.sort(table, axis=1)
        if (srt[:, 1:] == srt[:, :-1]).any():
            dup = int(np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0][0])
            raise ValueError(f"stripe {dup} places two roles on one disk")
        self.n_pool = n_pool
        self.table = table
        self.name = name
        self.group_starts = (
            None
            if group_starts is None
            else np.ascontiguousarray(group_starts, dtype=np.int64)
        )
        #: optional datacenter tree + pool-disk -> tree-leaf map, set by
        #: :meth:`attach_topology`
        self.topology = None
        self.leaf_of_disk: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_stripes(self) -> int:
        return int(self.table.shape[0])

    @property
    def width(self) -> int:
        return int(self.table.shape[1])

    # ------------------------------------------------------------------
    # forward map
    # ------------------------------------------------------------------
    def disks_for_stripe(self, stripe: int) -> np.ndarray:
        """Ordered pool disks hosting one stripe (slot order)."""
        return self.table[stripe]

    def slot_of_role(
        self, stripes: "int | np.ndarray", role: "int | np.ndarray"
    ) -> np.ndarray:
        """Slot a logical role occupies in each stripe (the rotation)."""
        return (np.asarray(role) + np.asarray(stripes)) % self.width

    def disk_of_role(
        self, stripes: "int | np.ndarray", role: "int | np.ndarray"
    ) -> np.ndarray:
        """Pool disk serving logical role ``role`` of each stripe."""
        stripes = np.asarray(stripes)
        return self.table[stripes, self.slot_of_role(stripes, role)]

    # ------------------------------------------------------------------
    # inverse map (what a rebuild iterates)
    # ------------------------------------------------------------------
    def stripes_of_disk(self, disk: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(stripe_ids, slots)`` of every placement touching ``disk``."""
        if not 0 <= disk < self.n_pool:
            raise IndexError(f"pool disk {disk} out of range [0, {self.n_pool})")
        stripes, slots = np.nonzero(self.table == disk)
        return stripes.astype(np.int64), slots.astype(np.int64)

    def roles_of_disk(self, disk: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(stripe_ids, logical_roles)`` this disk plays — rebuild's view."""
        stripes, slots = self.stripes_of_disk(disk)
        return stripes, (slots - stripes) % self.width

    def stripes_per_disk(self) -> np.ndarray:
        """How many stripes each pool disk hosts (capacity balance)."""
        return np.bincount(self.table.reshape(-1), minlength=self.n_pool)

    # ------------------------------------------------------------------
    # topology integration
    # ------------------------------------------------------------------
    def attach_topology(
        self, topology, leaf_of_disk: Optional[np.ndarray] = None
    ) -> "PlacementMap":
        """Map the pool's disks onto a datacenter topology tree.

        ``leaf_of_disk[d]`` is the tree leaf (topology disk id) hosting
        pool disk ``d``; the default identity map requires the tree to
        have exactly ``n_pool`` leaves.  Returns ``self`` for chaining.
        """
        if leaf_of_disk is None:
            if topology.n_disks != self.n_pool:
                raise ValueError(
                    f"topology has {topology.n_disks} leaves but the pool "
                    f"has {self.n_pool} disks (pass leaf_of_disk)"
                )
            leaf_of_disk = np.arange(self.n_pool, dtype=np.int64)
        else:
            leaf_of_disk = np.ascontiguousarray(leaf_of_disk, dtype=np.int64)
            if leaf_of_disk.shape != (self.n_pool,):
                raise ValueError(
                    f"leaf_of_disk must have shape ({self.n_pool},), got "
                    f"{leaf_of_disk.shape}"
                )
            if leaf_of_disk.min() < 0 or leaf_of_disk.max() >= topology.n_disks:
                raise ValueError("leaf_of_disk references leaves outside the tree")
            if len(np.unique(leaf_of_disk)) != self.n_pool:
                raise ValueError("leaf_of_disk maps two pool disks to one leaf")
        self.topology = topology
        self.leaf_of_disk = leaf_of_disk
        return self

    def require_leaf_of_disk(self, topology=None) -> np.ndarray:
        """The pool-disk -> leaf map; raises when no topology is attached."""
        if self.topology is None or self.leaf_of_disk is None:
            raise ValueError(
                "placement has no topology attached (call attach_topology)"
            )
        if topology is not None and topology is not self.topology:
            raise ValueError("placement is attached to a different topology")
        return self.leaf_of_disk

    # ------------------------------------------------------------------
    # serving integration
    # ------------------------------------------------------------------
    def shard_bounds(self, n_shards: int) -> np.ndarray:
        """Stripe-range shard bounds aligned to placement-group starts.

        A shard never splits a placement group: each even-split boundary
        is snapped to the *nearer* of the surrounding group starts (ties
        snap up), so a boundary just past a group start no longer drags
        almost a whole extra group into the preceding shard.  Strategies
        without fixed groups (``group_starts is None``) return the plain
        even split.  Bounds are monotone; with more shards than groups
        the trailing shards come out empty — the serving layer tolerates
        that.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        n = self.n_stripes
        targets = np.asarray(
            [i * n // n_shards for i in range(n_shards + 1)], dtype=np.int64
        )
        if self.group_starts is None:
            return targets
        allowed = np.unique(np.append(self.group_starts, n))
        up = np.clip(np.searchsorted(allowed, targets), 0, len(allowed) - 1)
        down = np.maximum(up - 1, 0)
        nearer_down = (targets - allowed[down]) < (allowed[up] - targets)
        snapped = allowed[np.where(nearer_down, down, up)]
        snapped[0], snapped[-1] = 0, n
        return np.maximum.accumulate(snapped)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _check_geometry(n_pool: int, n_stripes: int, width: int) -> None:
    if width < 2:
        raise ValueError(f"stripe width must be >= 2, got {width}")
    if n_pool < width:
        raise ValueError(f"pool of {n_pool} disks cannot host width-{width} stripes")
    if n_stripes < 1:
        raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")


def FlatPlacement(n_pool: int, n_stripes: int, width: int) -> PlacementMap:
    """Fixed RAID groups: contiguous stripe runs on disjoint disk groups.

    ``n_pool // width`` groups; leftover disks sit idle (exactly what a
    fixed-group fleet does with spares).  The rebuild of a dead disk
    reads only from its own group — the baseline declustering beats.
    """
    _check_geometry(n_pool, n_stripes, width)
    n_groups = n_pool // width
    s = np.arange(n_stripes, dtype=np.int64)
    group = s * n_groups // n_stripes if n_stripes >= n_groups else s % n_groups
    table = (group[:, None] * width + np.arange(width, dtype=np.int64)[None, :])
    starts = np.flatnonzero(np.diff(group, prepend=group[0] - 1) != 0)
    return PlacementMap(n_pool, table, "flat", group_starts=starts)


def _difference_base_block(n_pool: int, width: int) -> np.ndarray:
    """Greedy base block whose pairwise differences mod ``n_pool`` are as
    distinct as possible (a Sidon-set approximation — the cyclic
    block-design ingredient)."""
    offsets = [0]
    diffs = set()
    cand = 1
    while len(offsets) < width and cand < n_pool:
        new = []
        ok = True
        for o in offsets:
            for d in ((cand - o) % n_pool, (o - cand) % n_pool):
                if d in diffs or d == 0:
                    ok = False
                    break
                new.append(d)
            if not ok:
                break
        if ok:
            offsets.append(cand)
            diffs.update(new)
        cand += 1
    if len(offsets) < width:
        # dense regime (w(w-1) ~ n_pool): fall back to any unused offsets —
        # differences repeat, which only means some neighbour pairs carry
        # double weight, never an invalid stripe
        unused = [c for c in range(n_pool) if c not in offsets]
        offsets.extend(unused[: width - len(offsets)])
    return np.asarray(sorted(offsets[:width]), dtype=np.int64)


def DeclusteredPlacement(n_pool: int, n_stripes: int, width: int) -> PlacementMap:
    """Cyclic block-design declustering: translates of a difference block.

    Stripe ``s`` occupies ``(B + s) mod n_pool`` where ``B`` has distinct
    pairwise differences, so any dead disk is co-placed with up to
    ``w * (w - 1)`` distinct neighbours and its rebuild reads spread over
    them near-uniformly.
    """
    _check_geometry(n_pool, n_stripes, width)
    base = _difference_base_block(n_pool, width)
    s = np.arange(n_stripes, dtype=np.int64)
    table = (base[None, :] + s[:, None]) % n_pool
    return PlacementMap(n_pool, table, "declustered")


def D3Placement(n_pool: int, n_stripes: int, width: int) -> PlacementMap:
    """Deterministic distribution: start offset + cycling coprime stride.

    Stripe ``s`` takes disks ``start + j * sigma (mod n_pool)`` with
    ``start = s mod n_pool`` and ``sigma`` drawn round-robin from the
    units mod ``n_pool`` (coprime strides keep the ``w`` picks distinct).
    Successive pool-sized bands use successive strides, so every disk
    pairs with every other at equal rates as the stripe count grows —
    the D3 idea of spreading by arithmetic, not by stored maps.
    """
    _check_geometry(n_pool, n_stripes, width)
    strides = np.asarray(
        [u for u in range(1, n_pool) if math.gcd(u, n_pool) == 1],
        dtype=np.int64,
    )
    if not len(strides):  # n_pool == 1 is excluded by _check_geometry
        strides = np.asarray([1], dtype=np.int64)
    s = np.arange(n_stripes, dtype=np.int64)
    sigma = strides[(s // n_pool) % len(strides)]
    start = s % n_pool
    table = (
        start[:, None] + np.arange(width, dtype=np.int64)[None, :] * sigma[:, None]
    ) % n_pool
    return PlacementMap(n_pool, table, "d3")


def RandomPlacement(
    n_pool: int, n_stripes: int, width: int, seed: int = 0
) -> PlacementMap:
    """Seeded uniform-random ``w``-subsets (the declustering upper bound)."""
    _check_geometry(n_pool, n_stripes, width)
    rng = np.random.default_rng(seed)
    table = np.empty((n_stripes, width), dtype=np.int64)
    # argpartition of a random key matrix gives w distinct picks per
    # stripe; blocked so a million-stripe map never materialises an
    # (n_stripes, n_pool) float matrix
    block = max(1, (1 << 24) // max(n_pool, 1))
    for lo in range(0, n_stripes, block):
        hi = min(lo + block, n_stripes)
        keys = rng.random((hi - lo, n_pool))
        table[lo:hi] = np.argpartition(keys, width - 1, axis=1)[:, :width]
    return PlacementMap(n_pool, table, "random")


def RackAwarePlacement(
    n_pool: int, n_stripes: int, width: int, topology
) -> PlacementMap:
    """Rack-diverse declustering over a datacenter topology.

    Slot ``j`` of stripe ``s`` lands in rack ``(s + j) mod R``, so the
    stripe's roles spread over ``min(w, R)`` racks and no rack hosts more
    than ``ceil(w / R)`` of them — the co-location cap that keeps any one
    top-of-rack uplink out of the rebuild's critical path.  Within the
    rack, the pick walks ``s // R`` offset plus a D3-style cycling
    coprime stride, *plus* a per-(epoch, rack) offset ``e * rack`` that
    decorrelates the host sets of a disk's affected stripes across
    epochs — without it the dead-disk membership constraint pins every
    other slot's host to one disk per stripe-residue, and the rebuild's
    per-disk spread collapses to the flat case.  All offsets are common
    within a rack, so intra-stripe distinctness (the coprime-stride
    argument) is untouched.  The topology is attached to the returned
    map.
    """
    _check_geometry(n_pool, n_stripes, width)
    if topology is None:
        raise ValueError("rack_aware placement requires a topology")
    if topology.n_disks != n_pool:
        raise ValueError(
            f"topology has {topology.n_disks} disks but the pool has {n_pool}"
        )
    n_racks, dpr = topology.n_racks, topology.disks_per_rack
    per_rack = -(-width // n_racks)  # ceil: max co-located roles per rack
    if per_rack > dpr:
        raise ValueError(
            f"width {width} needs {per_rack} disks in one of {n_racks} "
            f"racks but each rack has only {dpr}"
        )
    units = np.asarray(
        [u for u in range(1, dpr) if math.gcd(u, dpr) == 1], dtype=np.int64
    )
    if not len(units):
        units = np.asarray([1], dtype=np.int64)
    s = np.arange(n_stripes, dtype=np.int64)[:, None]
    j = np.arange(width, dtype=np.int64)[None, :]
    epoch = s // (n_racks * dpr)
    sigma = units[epoch % len(units)]
    rack = (s + j) % n_racks
    within = (s // n_racks + (j // n_racks) * sigma + epoch * rack) % dpr
    table = rack * dpr + within
    pm = PlacementMap(n_pool, table, "rack_aware")
    return pm.attach_topology(topology)


_STRATEGIES: Dict[str, Callable[..., PlacementMap]] = {
    "flat": FlatPlacement,
    "declustered": DeclusteredPlacement,
    "d3": D3Placement,
    "random": RandomPlacement,
}

#: strategies that need a datacenter topology to lay stripes out
_TOPO_STRATEGIES: Dict[str, Callable[..., PlacementMap]] = {
    "rack_aware": RackAwarePlacement,
}


def list_placements(include_topology: bool = False) -> List[str]:
    """Registered placement strategy names.

    ``include_topology=True`` adds the strategies that require a
    :class:`~repro.topology.Topology` (e.g. ``rack_aware``).
    """
    names = sorted(_STRATEGIES)
    if include_topology:
        names = sorted({*names, *_TOPO_STRATEGIES})
    return names


def make_placement(
    name: str,
    n_pool: int,
    n_stripes: int,
    width: int,
    seed: int = 0,
    topology=None,
) -> PlacementMap:
    """Build a placement by strategy name (see :func:`list_placements`).

    With ``topology`` given, the tree is attached to the returned map
    (identity leaf mapping), enabling per-link billing; topology-aware
    strategies (``rack_aware``) additionally require it to lay out.
    """
    if name in _TOPO_STRATEGIES:
        if topology is None:
            raise ValueError(
                f"placement {name!r} requires a topology "
                "(pass topology=Topology(...))"
            )
        return _TOPO_STRATEGIES[name](n_pool, n_stripes, width, topology)
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r} "
            f"(choose from {list_placements(include_topology=True)})"
        ) from None
    pm = (
        factory(n_pool, n_stripes, width, seed=seed)
        if name == "random"
        else factory(n_pool, n_stripes, width)
    )
    if topology is not None:
        pm.attach_topology(topology)
    return pm


# ----------------------------------------------------------------------
# rebuild-load analysis (no bytes moved — the planning/benchmark view)
# ----------------------------------------------------------------------
def role_groups(
    placement: PlacementMap, dead_disk: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """``(role, stripe_ids)`` for each logical role ``dead_disk`` plays.

    Stripe ids come out ascending (the inverse map scans the table
    row-major).  On the flat ``n == width`` array these are the rotation
    classes: role ``r`` holds the stripes with ``(dead_disk - s) % n == r``.
    """
    stripes, roles = placement.roles_of_disk(dead_disk)
    for role in np.flatnonzero(np.bincount(roles, minlength=placement.width)):
        yield int(role), stripes[roles == role]


def plan_read_loads(
    groups: Iterable[Tuple[int, np.ndarray, Sequence[int]]],
    placement: PlacementMap,
    dead_disk: int,
) -> np.ndarray:
    """Per-pool-disk element reads of a planned rebuild (no bytes moved).

    ``groups`` iterates ``(role, stripe_ids, loads)``: the stripes in
    which the dead disk plays ``role`` and that role's recovery-scheme
    per-logical-disk read loads (the paper's ``scheme.loads``).
    """
    reads = np.zeros(placement.n_pool, dtype=np.int64)
    for role, stripe_ids, loads in groups:
        if len(loads) != placement.width:
            raise ValueError(
                f"role {role}: expected {placement.width} loads, got {len(loads)}"
            )
        for logical, load in enumerate(loads):
            if load:
                hosts = placement.disk_of_role(stripe_ids, logical)
                reads += load * np.bincount(hosts, minlength=placement.n_pool)
    if reads[dead_disk]:
        raise AssertionError("a recovery scheme read the dead disk")
    return reads


def rebuild_read_loads(
    placement: PlacementMap,
    dead_disk: int,
    loads_by_role: Mapping[int, Sequence[int]],
) -> np.ndarray:
    """Element reads each surviving pool disk serves to rebuild ``dead_disk``.

    ``loads_by_role`` maps the logical role the dead disk plays to that
    role's recovery-scheme read loads — :func:`plan_read_loads` over the
    default :func:`role_groups`.
    """
    groups = (
        (role, ids, loads_by_role[role])
        for role, ids in role_groups(placement, dead_disk)
    )
    return plan_read_loads(groups, placement, dead_disk)
