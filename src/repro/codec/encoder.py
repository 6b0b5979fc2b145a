"""Stripe encoder: data elements -> full codeword stripe.

A stripe is a 2-D ``uint8`` array of shape ``(n_elements, element_size)``
indexed by global element id (see :class:`~repro.codes.layout.CodeLayout`).

Parity sources come from the generator bit-matrix and are compiled once
into the flat ``(src_off, src_ids)`` plan that
:func:`repro.recovery.ckernel.xor_batch` takes, so encoding and rebuild
share one XOR kernel.  :meth:`StripeCodec.encode_into` writes the parity
rows of a stripe block in place, one cache-sized chunk per kernel call;
without the kernel it folds each parity element with
``np.bitwise_xor.reduce`` (the reference, byte-identical either way).
The per-stripe :meth:`StripeCodec.encode` is the slow reference both are
tested against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.codes.base import ErasureCode
from repro.recovery import ckernel

#: Stripe bytes per encode chunk: enough to amortise one kernel call, few
#: enough that a chunk's data and parity rows stay in cache.
CHUNK_BYTES = 1 << 20



class StripeCodec:
    """Encode/decode one stripe of an erasure code.

    Parameters
    ----------
    code:
        Any :class:`~repro.codes.base.ErasureCode`.
    element_size:
        Bytes per element.  The paper uses 16 MB elements on real disks; the
        test-suite uses small powers of two.
    """

    def __init__(self, code: ErasureCode, element_size: int = 4096) -> None:
        if element_size < 1:
            raise ValueError(f"element_size must be >= 1, got {element_size}")
        self.code = code
        self.element_size = element_size
        #: global eids of data / parity elements (vertical codes interleave)
        self._data_eids = np.asarray(code.data_eids(), dtype=np.int64)
        self._parity_eids = code.parity_eids()
        # per parity element: array of compact data-source indices
        g = code.generator_bitmatrix()
        self._parity_sources: List[np.ndarray] = []
        for row in g.rows:
            sources = []
            r = row
            while r:
                low = r & -r
                sources.append(low.bit_length() - 1)
                r ^= low
            self._parity_sources.append(np.asarray(sources, dtype=np.int64))
        # the same sources as global eids, for in-place encoding of a block
        self._parity_src_eids = [self._data_eids[s] for s in self._parity_sources]
        # flattened kernel plan: output slot i is parity element i
        offs = np.cumsum([0] + [s.size for s in self._parity_sources])
        self._src_off = np.ascontiguousarray(offs, dtype=np.int64)
        self._src_ids = np.ascontiguousarray(
            np.concatenate(self._parity_src_eids), dtype=np.int32
        )
        stripe_bytes = code.layout.n_elements * element_size
        #: stripes per encode chunk; a multiple of 4, so every chunk but the
        #: last holds a whole number of 4-byte words of data
        self.chunk_stripes = max(4, (CHUNK_BYTES // stripe_bytes) & ~3)

    # ------------------------------------------------------------------
    @property
    def n_data_elements(self) -> int:
        """Data elements per stripe (equals ``layout.n_data_elements`` for
        horizontal codes; smaller for vertical codes)."""
        return len(self._data_eids)

    def random_data(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Random data elements, shape ``(n_data_elements, element_size)``."""
        rng = rng or np.random.default_rng()
        return rng.integers(
            0, 256, size=(self.n_data_elements, self.element_size), dtype=np.uint8
        )

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Full stripe from data elements (given in ``data_eids`` order)."""
        lay = self.code.layout
        if data.shape != (self.n_data_elements, self.element_size):
            raise ValueError(
                f"data shape {data.shape} != "
                f"({self.n_data_elements}, {self.element_size})"
            )
        stripe = np.empty((lay.n_elements, self.element_size), dtype=np.uint8)
        stripe[self._data_eids] = data
        for i, sources in enumerate(self._parity_sources):
            if sources.size:
                stripe[self._parity_eids[i]] = np.bitwise_xor.reduce(
                    data[sources], axis=0
                )
            else:
                stripe[self._parity_eids[i]] = 0
        return stripe

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode many stripes at once: ``(n, n_data, esz)`` -> ``(n, n_elements, esz)``.

        Allocates the stripes, copies the data rows in and runs
        :meth:`encode_into`.  Row ``i`` is byte-identical to
        ``encode(data[i])``.
        """
        if data.ndim != 3 or data.shape[1:] != (
            self.n_data_elements, self.element_size
        ):
            raise ValueError(
                f"batch shape {data.shape} != "
                f"(n, {self.n_data_elements}, {self.element_size})"
            )
        stripes = np.empty(
            (data.shape[0], self.code.layout.n_elements, self.element_size),
            dtype=np.uint8,
        )
        self.place_data(stripes, data)
        return self.encode_into(stripes)

    def place_data(self, stripes: np.ndarray, data: np.ndarray) -> None:
        """Write ``data`` (``(n, n_data, esz)``, in ``data_eids`` order)
        into the data rows of the stripe block ``stripes``."""
        stripes[:, self._data_eids] = data

    def encode_into(self, stripes: np.ndarray) -> np.ndarray:
        """Write the parity rows of a stripe block whose data rows are filled.

        ``stripes`` is ``(n, n_elements, element_size)`` ``uint8``; it is
        encoded in place, :attr:`chunk_stripes` stripes per
        :func:`~repro.recovery.ckernel.xor_batch` call through one small
        reused parity scratch.  Where the kernel is unavailable or refuses
        the block, the chunk falls back to the numpy fold.  Returns
        ``stripes``.
        """
        lay = self.code.layout
        if (
            stripes.ndim != 3
            or stripes.shape[1:] != (lay.n_elements, self.element_size)
            or stripes.dtype != np.uint8
        ):
            raise ValueError(
                f"stripe block {stripes.shape} {stripes.dtype} != "
                f"(n, {lay.n_elements}, {self.element_size}) uint8"
            )
        n, step = stripes.shape[0], self.chunk_stripes
        with obs.span("codec.encode", stripes=n):
            scratch = np.empty(
                (min(n, step), len(self._parity_eids), self.element_size),
                dtype=np.uint8,
            )
            for a in range(0, n, step):
                block = stripes[a : a + step]
                parity = scratch[: len(block)]
                if ckernel.xor_batch(block, parity, self._src_off, self._src_ids):
                    block[:, self._parity_eids] = parity
                else:
                    self._fold_into(block)
        return stripes

    def _fold_into(self, block: np.ndarray) -> None:
        """Numpy fold, one ``np.bitwise_xor.reduce`` per parity element;
        reference semantics for the kernel path of :meth:`encode_into`."""
        for eid, sources in zip(self._parity_eids, self._parity_src_eids):
            if sources.size:
                np.bitwise_xor.reduce(block[:, sources], axis=1, out=block[:, eid])
            else:
                block[:, eid] = 0

    def check_stripe(self, stripe: np.ndarray) -> bool:
        """True iff every calculation equation XORs to zero byte-wise."""
        lay = self.code.layout
        if stripe.shape != (lay.n_elements, self.element_size):
            raise ValueError(f"bad stripe shape {stripe.shape}")
        for eq in self.code.parity_equations():
            members = []
            e = eq
            while e:
                low = e & -e
                members.append(low.bit_length() - 1)
                e ^= low
            acc = np.bitwise_xor.reduce(stripe[np.asarray(members)], axis=0)
            if acc.any():
                return False
        return True
