"""Whole-disk rebuild engine: chunked batch recovery in one process.

``repro.pipeline`` is the data-plane counterpart of the planning layer: it
takes a code, a failed physical disk and an array image and drives the
whole rebuild chunk by chunk —

1. :func:`~repro.pipeline.chunks.iter_chunks` slices the stripe space into
   homogeneous batches (one logical failed role, one compiled plan each);
2. each chunk's surviving elements are gathered into a reusable buffer
   (vectorised, one fancy-index copy per disk);
3. :meth:`~repro.codec.batch.BatchReconstructor.recover_batch_into` XORs
   the buffer straight into an output block, one compiled plan per
   logical role for the whole rebuild;
4. the recovered rows are patched back into the rebuilt disk image in
   chunk order.

Rebuild speed comes from balancing the reads over the surviving disks,
not from spreading the XOR over cores: the kernel already runs at memory
speed, so the chunked path stays in this process (see "Why rebuild runs
in one process" in ``docs/performance.md``).  ``use_batch=False`` drops
to the per-stripe :class:`~repro.codec.reconstructor.Reconstructor` path
(zero-copy in-place patching via ``recover_and_patch(..., out=...)``),
kept as the equivalence oracle.

Planning is delegated to :class:`~repro.recovery.planner.RecoveryPlanner`,
optionally backed by a persistent
:class:`~repro.recovery.plancache.SchemePlanCache` so repeated rebuilds of
the same code skip the C/U search entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.codec.batch import BatchReconstructor
from repro.codec.image import ArrayImageCodec
from repro.codec.reconstructor import Reconstructor
from repro.pipeline.chunks import StripeChunk, iter_chunks
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme


@dataclass
class RebuildResult:
    """Outcome of one whole-disk rebuild."""

    image: np.ndarray                 #: rebuilt disk rows ``(n_stripes*k, esz)``
    reads_per_disk: List[int]         #: element reads billed per physical disk
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def mb_per_s(self) -> float:
        return self.stats.get("rebuilt_mb_s", 0.0)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
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
    throttle:
        Optional hook called with each :class:`StripeChunk` *before* it is
        gathered.  Blocking inside the hook delays rebuild work without
        touching anything else — this is the admission-control point the
        QoS scheduler in :mod:`repro.serving` plugs into.
        Applies to the chunked path (``use_batch=True``).
    on_chunk:
        Optional hook called after each chunk's recovered rows have been
        patched into the rebuilt image, with ``(chunk, rows)`` where
        ``rows`` is a ``(n_stripes, k_rows, element_size)`` view valid
        only for the duration of the callback (copy to keep).  Chunks are
        delivered in chunk-id order.  Applies to the chunked path.
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

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _schemes_for(self, failed_physical: int) -> Dict[int, RecoveryScheme]:
        """One plan per logical role the failed disk plays across stripes."""
        lay = self.codec.code.layout
        needed = {
            (failed_physical - (s % lay.n_disks)) % lay.n_disks
            for s in range(self.codec.n_stripes)
        }
        with obs.span("pipeline.plan", roles=len(needed)):
            return {d: self.planner.scheme_for_disk(d) for d in sorted(needed)}

    # ------------------------------------------------------------------
    # gather / patch-back primitives
    # ------------------------------------------------------------------
    def _gather_chunk(
        self, disks: np.ndarray, chunk: StripeChunk, out: np.ndarray
    ) -> None:
        """Copy a chunk's stripes into ``out`` in logical element order.

        One fancy-index copy per surviving disk; the failed logical disk's
        rows are left stale on purpose — no scheme may read them, so any
        accidental dependence shows up as a byte mismatch, not silence.
        """
        lay = self.codec.code.layout
        k = lay.k_rows
        row_idx = chunk.stripe_ids[:, None] * k + np.arange(k, dtype=np.int64)
        for logical in range(lay.n_disks):
            if logical == chunk.logical_disk:
                continue
            phys = (logical + chunk.rotation) % lay.n_disks
            out[:, logical * k : (logical + 1) * k, :] = disks[phys][row_idx]

    def _patch_chunk(
        self, rebuilt: np.ndarray, chunk: StripeChunk, recovered: np.ndarray
    ) -> None:
        """Scatter a chunk's recovered rows into the rebuilt disk image."""
        k = self.codec.code.layout.k_rows
        row_idx = (
            chunk.stripe_ids[:, None] * k + np.arange(k, dtype=np.int64)
        ).reshape(-1)
        rebuilt[row_idx] = recovered.reshape(-1, self.codec.element_size)

    def _bill_reads(
        self,
        reads_per_disk: List[int],
        chunk: StripeChunk,
        scheme: RecoveryScheme,
    ) -> None:
        lay = self.codec.code.layout
        for logical, load in enumerate(scheme.loads):
            if load:
                phys = (logical + chunk.rotation) % lay.n_disks
                reads_per_disk[phys] += load * chunk.n_stripes

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def rebuild(
        self,
        disks: np.ndarray,
        failed_physical: int,
        use_batch: bool = True,
        patch: bool = False,
    ) -> RebuildResult:
        """Rebuild ``disks[failed_physical]`` from the survivors.

        The failed disk's stored rows are never read.  ``patch=True``
        additionally writes the rebuilt rows back into ``disks`` in place
        (hot-spare semantics).
        """
        lay = self.codec.code.layout
        if not 0 <= failed_physical < lay.n_disks:
            raise IndexError(f"physical disk {failed_physical} out of range")
        expect = (lay.n_disks, self.codec.n_stripes * lay.k_rows, self.codec.element_size)
        if disks.shape != expect:
            raise ValueError(f"disks shape {disks.shape} != {expect}")

        schemes = self._schemes_for(failed_physical)
        chunks = list(
            iter_chunks(
                self.codec.n_stripes, lay.n_disks, failed_physical,
                self.chunk_stripes,
            )
        )
        rebuilt = np.zeros(
            (self.codec.n_stripes * lay.k_rows, self.codec.element_size),
            dtype=np.uint8,
        )
        reads_per_disk = [0] * lay.n_disks

        t0 = time.perf_counter()
        if not use_batch:
            mode = "stripe-loop"
            self._rebuild_per_stripe(disks, failed_physical, schemes, rebuilt,
                                     reads_per_disk)
        else:
            mode = "inline-batch"
            self._rebuild_inline(disks, schemes, chunks, rebuilt, reads_per_disk)
        wall_s = time.perf_counter() - t0

        if patch:
            disks[failed_physical] = rebuilt
        rebuilt_bytes = rebuilt.nbytes
        obs.count("pipeline.rebuilds")
        obs.count("pipeline.stripes", self.codec.n_stripes)
        obs.count("pipeline.bytes", rebuilt_bytes)
        stats = {
            "mode": mode,
            "chunk_stripes": self.chunk_stripes,
            "chunks": len(chunks),
            "stripes": self.codec.n_stripes,
            "rebuilt_bytes": rebuilt_bytes,
            "wall_s": wall_s,
            "rebuilt_mb_s": (rebuilt_bytes / 2**20) / wall_s if wall_s > 0 else 0.0,
            "plan_cache": (
                self.planner.plan_cache.stats()
                if self.planner.plan_cache is not None
                else None
            ),
        }
        return RebuildResult(image=rebuilt, reads_per_disk=reads_per_disk,
                             stats=stats)

    # ------------------------------------------------------------------
    # rebuild paths
    # ------------------------------------------------------------------
    def _rebuild_per_stripe(
        self,
        disks: np.ndarray,
        failed_physical: int,
        schemes: Dict[int, RecoveryScheme],
        rebuilt: np.ndarray,
        reads_per_disk: List[int],
    ) -> None:
        """Per-stripe oracle path (the pre-pipeline engine, kept honest).

        Gathers one stripe at a time and patches it in place through
        :meth:`Reconstructor.recover_and_patch` with ``out=`` — the
        zero-copy variant — then copies only the failed rows out.
        """
        lay = self.codec.code.layout
        k = lay.k_rows
        recons = {d: Reconstructor(s) for d, s in schemes.items()}
        stripe_buf = np.empty(
            (lay.n_elements, self.codec.element_size), dtype=np.uint8
        )
        for s in range(self.codec.n_stripes):
            rot = s % lay.n_disks
            logical = (failed_physical - rot) % lay.n_disks
            scheme = schemes[logical]
            for ld in range(lay.n_disks):
                phys = (ld + rot) % lay.n_disks
                stripe_buf[ld * k : (ld + 1) * k] = disks[phys, s * k : (s + 1) * k]
            recons[logical].recover_and_patch(stripe_buf, out=stripe_buf)
            rebuilt[s * k : (s + 1) * k] = stripe_buf[
                logical * k : (logical + 1) * k
            ]
            for ld, load in enumerate(scheme.loads):
                if load:
                    reads_per_disk[(ld + rot) % lay.n_disks] += load

    def _rebuild_inline(
        self,
        disks: np.ndarray,
        schemes: Dict[int, RecoveryScheme],
        chunks: List[StripeChunk],
        rebuilt: np.ndarray,
        reads_per_disk: List[int],
    ) -> None:
        """Chunked batch path: gather, XOR and patch back one chunk at a time."""
        lay = self.codec.code.layout
        compiled = {d: BatchReconstructor(s) for d, s in schemes.items()}
        in_buf = np.empty(
            (self.chunk_stripes, lay.n_elements, self.codec.element_size),
            dtype=np.uint8,
        )
        out_buf = np.empty(
            (self.chunk_stripes, lay.k_rows, self.codec.element_size),
            dtype=np.uint8,
        )
        for chunk in chunks:
            if self.throttle is not None:
                self.throttle(chunk)
            n = chunk.n_stripes
            self._gather_chunk(disks, chunk, in_buf[:n])
            compiled[chunk.logical_disk].recover_batch_into(
                in_buf[:n], out_buf[:n]
            )
            self._patch_chunk(rebuilt, chunk, out_buf[:n])
            self._bill_reads(reads_per_disk, chunk, schemes[chunk.logical_disk])
            if self.on_chunk is not None:
                self.on_chunk(chunk, out_buf[:n])
            obs.count("pipeline.chunks")


# ----------------------------------------------------------------------
# convenience wrapper
# ----------------------------------------------------------------------
def rebuild_disk(
    codec: ArrayImageCodec,
    disks: np.ndarray,
    failed_physical: int,
    chunk_stripes: int = 64,
    plan_cache: Optional[SchemePlanCache] = None,
    algorithm: str = "u",
    depth: int = 1,
) -> RebuildResult:
    """One-call rebuild of a failed physical disk (see :class:`RebuildPipeline`)."""
    pipe = RebuildPipeline(
        codec,
        chunk_stripes=chunk_stripes,
        plan_cache=plan_cache,
        algorithm=algorithm,
        depth=depth,
    )
    return pipe.rebuild(disks, failed_physical)
