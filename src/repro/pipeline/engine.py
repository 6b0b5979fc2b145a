"""Whole-disk rebuild of a rotated array image.

The rotated array (:class:`~repro.codec.image.ArrayImageCodec`) is the
flat placement over its own ``n`` disks — role ``l`` of stripe ``s`` sits
on disk ``(l + s) % n``, i.e. ``make_placement("flat", n, n_stripes, n)``.
:class:`RebuildPipeline` therefore runs the one rebuild loop,
:meth:`~repro.pipeline.pool.PoolRebuild.rebuild`, over that placement
through a small view of the disk-major image that gathers each chunk
straight from the per-disk images (no whole-image copy).  Chunking,
poisoning of the dead rows, per-row verification and per-disk billing
all happen there.

Rebuild speed comes from balancing the reads over the surviving disks,
not from spreading the XOR over cores: the kernel already runs at memory
speed, so the rebuild stays in this process (see "Why rebuild runs in
one process" in ``docs/performance.md``).  The per-stripe reference is
:meth:`ArrayImageCodec.recover_disk`.

Planning is delegated to :class:`~repro.recovery.planner.RecoveryPlanner`,
optionally backed by a persistent
:class:`~repro.recovery.plancache.SchemePlanCache` so repeated rebuilds of
the same code skip the C/U search entirely.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.codec.image import ArrayImageCodec
from repro.pipeline.pool import PoolRebuild, PoolRebuildResult, StripeChunk
from repro.placement.map import PlacementMap, make_placement
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner


class _ImageSource:
    """The rebuild loop's byte source over per-disk images.

    ``disks`` is ``(n_disks, n_stripes * k, element_size)``; element row
    ``r`` of stripe ``s`` on disk ``d`` is ``disks[d, s * k + r]``.  Rows
    are gathered by flat row index from a 2-D view of the image (a
    C-contiguous image is never copied whole).
    """

    def __init__(
        self, codec: ArrayImageCodec, disks: np.ndarray, placement: PlacementMap
    ) -> None:
        self.code = codec.code
        self.placement = placement
        self.k_rows = codec.code.layout.k_rows
        self.element_size = codec.element_size
        self._disk_rows = disks.shape[1]
        self._flat = disks.reshape(-1, codec.element_size)

    def _index(self, stripes: np.ndarray, roles) -> np.ndarray:
        """Flat image rows of ``roles`` in ``stripes`` (broadcast), on the
        disks the placement puts them; shape ``(..., k)``."""
        hosts = self.placement.disk_of_role(stripes, roles)
        rows = stripes[..., None] * self.k_rows + np.arange(self.k_rows)
        return hosts[..., None] * self._disk_rows + rows

    def role_rows(self, stripe_ids: np.ndarray, role: int) -> np.ndarray:
        """``(len(stripe_ids), k, esz)`` rows of one role."""
        return self._flat[self._index(stripe_ids, role)]

    def gather(self, stripe_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Whole stripes in logical element order, copied into ``out``."""
        roles = np.arange(self.placement.width)
        idx = self._index(stripe_ids[:, None], roles[None, :])
        # the placement lookup above already rejected bad stripe ids, so
        # "clip" only skips numpy's buffered bounds check
        np.take(self._flat, idx.reshape(-1), axis=0,
                out=out.reshape(-1, self.element_size), mode="clip")
        return out


class RebuildPipeline:
    """Chunked in-process rebuild of one failed physical disk.

    Parameters
    ----------
    codec:
        The array geometry (code, element size, stripe count, rotation).
    chunk_stripes:
        Stripes per chunk (the batch XORed at once).
    planner:
        Optional pre-built planner (its cached schemes are reused).
    plan_cache:
        Optional persistent plan store handed to a freshly built planner.
    algorithm / depth:
        Scheme search configuration when no planner is supplied.
    throttle / on_chunk:
        The rebuild loop's hooks (see
        :class:`~repro.pipeline.pool.PoolRebuild`), each called with a
        :class:`~repro.pipeline.pool.StripeChunk`.  ``throttle`` runs
        before a chunk is gathered — the QoS admission point of
        :mod:`repro.serving`; ``on_chunk(chunk, rows)`` runs after it is
        recovered, in chunk-id order, with a ``(n_stripes, k_rows,
        element_size)`` block.
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        chunk_stripes: int = 64,
        planner: Optional[RecoveryPlanner] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        throttle: Optional[Callable[[StripeChunk], None]] = None,
        on_chunk: Optional[Callable[[StripeChunk, np.ndarray], None]] = None,
    ) -> None:
        if chunk_stripes < 1:
            raise ValueError(f"chunk_stripes must be >= 1, got {chunk_stripes}")
        self.codec = codec
        self.chunk_stripes = min(chunk_stripes, max(1, codec.n_stripes))
        self.throttle = throttle
        self.on_chunk = on_chunk
        self.planner = planner or RecoveryPlanner(
            codec.code, algorithm=algorithm, depth=depth, plan_cache=plan_cache
        )
        n = codec.code.layout.n_disks
        #: the rotated array as a placement over its own disks
        self.placement = make_placement("flat", n, codec.n_stripes, n)

    def rebuild(
        self, disks: np.ndarray, failed_physical: int, patch: bool = False
    ) -> PoolRebuildResult:
        """Rebuild ``disks[failed_physical]`` from the survivors.

        No recovery reads the failed disk's rows (the loop poisons them);
        they are read only as the ground truth each recovered row is
        verified against, so ``mismatches`` counts rows that differ from
        what the failed disk held.  ``result.image`` is the rebuilt disk;
        ``patch=True`` additionally writes it back into ``disks`` in
        place (hot-spare semantics).
        """
        lay = self.codec.code.layout
        if not 0 <= failed_physical < lay.n_disks:
            raise IndexError(f"physical disk {failed_physical} out of range")
        expect = (lay.n_disks, self.codec.n_stripes * lay.k_rows, self.codec.element_size)
        if disks.shape != expect:
            raise ValueError(f"disks shape {disks.shape} != {expect}")

        engine = PoolRebuild(
            _ImageSource(self.codec, disks, self.placement),
            chunk_stripes=self.chunk_stripes,
            planner=self.planner,
            throttle=self.throttle,
            on_chunk=self.on_chunk,
        )
        result = engine.rebuild(failed_physical)
        if patch:
            disks[failed_physical] = result.image
        obs.count("pipeline.rebuilds")
        obs.count("pipeline.stripes", self.codec.n_stripes)
        obs.count("pipeline.bytes", result.rows.nbytes)
        result.stats.update(
            mode="inline-batch",
            stripes=self.codec.n_stripes,
            plan_cache=(
                self.planner.plan_cache.stats()
                if self.planner.plan_cache is not None
                else None
            ),
        )
        return result
