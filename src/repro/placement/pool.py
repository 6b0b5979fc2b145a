"""Byte store for stripes placed over a disk pool.

The single-array codec (:class:`~repro.codec.image.ArrayImageCodec`) keeps
per-disk images because every disk holds every stripe.  In a pool, a disk
holds only the stripes the placement put on it, so the natural storage is
stripe-major: one ``(n_stripes, n_elements, element_size)`` array of
logical elements, with :class:`~repro.placement.map.PlacementMap` deciding
which pool disk *serves* each element.  Reads are billed to pool disks
through that map — the accounting the declustering benchmarks score.

The store is one materialised ndarray, allocated once.
:meth:`PoolStore.encode_random` draws each chunk's data straight into its
data rows, then :meth:`~repro.codec.encoder.StripeCodec.encode_into`
writes the parity rows in place through the same ``xor_batch`` kernel the
rebuild uses, so memory is the store plus one chunk.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from repro import obs
from repro.codec.encoder import StripeCodec
from repro.codes.base import ErasureCode
from repro.placement.map import PlacementMap


class PoolStore:
    """Encoded stripes plus the placement that scatters them over a pool.

    Parameters
    ----------
    code:
        The erasure code; ``code.layout.n_disks`` must equal the
        placement's stripe width.
    placement:
        The stripe->disk map over the pool.
    element_size:
        Bytes per element.  The store holds every stripe in memory
        (:attr:`stored_bytes`), plus one encode chunk while it is filled.
    """

    def __init__(
        self,
        code: ErasureCode,
        placement: PlacementMap,
        element_size: int = 16,
    ) -> None:
        lay = code.layout
        if placement.width != lay.n_disks:
            raise ValueError(
                f"placement width {placement.width} != code width {lay.n_disks}"
            )
        self.code = code
        self.placement = placement
        self.codec = StripeCodec(code, element_size)
        self.element_size = element_size
        self.n_stripes = placement.n_stripes
        self.stripes: Optional[np.ndarray] = None  #: set by :meth:`encode_random`

    # ------------------------------------------------------------------
    @property
    def k_rows(self) -> int:
        return self.code.layout.k_rows

    @property
    def stored_bytes(self) -> int:
        lay = self.code.layout
        return self.n_stripes * lay.n_elements * self.element_size

    def encode_random(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Fill the store with encoded random data.

        Each chunk's data is drawn straight into its data rows; then the
        parity is encoded in place.  The bytes equal those of
        ``codec.encode_batch(rng.integers(0, 256, size=(n_stripes,
        n_data, element_size), dtype=np.uint8))`` for the same generator
        state: a full-range ``uint32`` draw is the same little-endian byte
        stream, and every chunk but the last draws whole words.
        """
        rng = rng or np.random.default_rng()
        codec = self.codec
        n_data, esz = codec.n_data_elements, self.element_size
        stripes = np.empty(
            (self.n_stripes, self.code.layout.n_elements, esz), dtype=np.uint8
        )
        with obs.span("codec.datagen", stripes=self.n_stripes):
            for a in range(0, self.n_stripes, codec.chunk_stripes):
                block = stripes[a : a + codec.chunk_stripes]
                n_bytes = len(block) * n_data * esz
                words = rng.integers(
                    0, 1 << 32, size=-(-n_bytes // 4), dtype=np.uint32
                )
                if sys.byteorder == "big":
                    words.byteswap(inplace=True)
                data = words.view(np.uint8)[:n_bytes]
                codec.place_data(block, data.reshape(len(block), n_data, esz))
        self.stripes = codec.encode_into(stripes)
        return self.stripes

    # ------------------------------------------------------------------
    # the rebuild loop's byte source (see repro.pipeline.pool)
    # ------------------------------------------------------------------
    def _encoded(self) -> np.ndarray:
        if self.stripes is None:
            raise RuntimeError("store is empty — call encode_random() first")
        return self.stripes

    def gather(self, stripe_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy the stripes, in logical element order, into ``out``
        (``(len(stripe_ids), n_elements, element_size)``; the caller may
        scribble on it).  Ids must be in range: "clip" skips numpy's
        buffered bounds check, and :meth:`role_rows` still raises."""
        return np.take(self._encoded(), np.asarray(stripe_ids), axis=0,
                       out=out, mode="clip")

    def role_rows(self, stripe_ids: np.ndarray, role: int) -> np.ndarray:
        """The ``k`` element rows logical ``role`` stores in each stripe.

        Shape ``(len(stripe_ids), k_rows, element_size)`` — the ground
        truth a pool rebuild's output is verified against.
        """
        k = self.k_rows
        return self._encoded()[np.asarray(stripe_ids), role * k : (role + 1) * k]
