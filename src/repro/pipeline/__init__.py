"""``repro.pipeline`` — whole-disk rebuild engine.

The data plane for single-disk recovery.  :mod:`repro.pipeline.pool`
holds the one rebuild loop — the dead disk's stripes grouped by role,
chunked, recovered through one compiled batch plan per group, verified
and billed per disk through the placement — for a pool disk of a placed
fleet or, via :class:`~repro.pipeline.engine.RebuildPipeline`, a physical
disk of the rotated single array.  Both are wired to the persistent
:class:`~repro.recovery.plancache.SchemePlanCache` so repeated rebuilds
skip scheme search entirely.  See the "Rebuild throughput" section of
``docs/performance.md`` and ``docs/placement.md``.
"""

from repro.pipeline.engine import RebuildPipeline
from repro.pipeline.pool import (
    PoolRebuild,
    PoolRebuildResult,
    StripeChunk,
    compare_placements,
    rebuild_pool_disk,
)

__all__ = [
    "PoolRebuild",
    "PoolRebuildResult",
    "RebuildPipeline",
    "StripeChunk",
    "compare_placements",
    "rebuild_pool_disk",
]
