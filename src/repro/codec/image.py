"""Whole-array image codec with rotated stripe placement.

Real arrays store many stripes and rotate the logical-to-physical disk
mapping from stripe to stripe (the stack layout of Hafner et al. [15] the
paper's evaluation uses), so parity traffic — and recovery load — spreads
over all spindles.  This module provides that layout at byte granularity:

* :meth:`ArrayImageCodec.encode_image` turns a flat user buffer into
  per-disk images (``n_disks x (n_stripes*k) x element_size`` bytes),
  one :meth:`~repro.codec.encoder.StripeCodec.encode_batch` and one
  vectorised rotation scatter per encode chunk;
* :meth:`ArrayImageCodec.recover_disk` rebuilds a *physical* disk after
  failure, stripe by stripe, picking the right logical scheme per rotation
  — the byte-level realisation of the paper's experiment loop, and the
  per-stripe reference for the batched :mod:`repro.pipeline` rebuild.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.codec.encoder import StripeCodec
from repro.codec.reconstructor import execute_scheme
from repro.codes.base import ErasureCode
from repro.recovery.planner import RecoveryPlanner


class ArrayImageCodec:
    """Byte-level multi-stripe array with per-stripe rotation.

    Parameters
    ----------
    code:
        The erasure code.
    element_size:
        Bytes per element.
    n_stripes:
        Stripes in the array image.  A full stack is ``n_disks`` stripes.
    """

    def __init__(
        self, code: ErasureCode, element_size: int = 512, n_stripes: int = None
    ) -> None:
        lay_default = [
            code.layout.eid(d, r)
            for d in code.layout.data_disks
            for r in range(code.layout.k_rows)
        ]
        if code.data_eids() != lay_default:
            raise NotImplementedError(
                "ArrayImageCodec supports horizontal codes only (vertical "
                "codes interleave data and parity within disks)"
            )
        self.code = code
        self.codec = StripeCodec(code, element_size)
        self.element_size = element_size
        lay = code.layout
        self.n_stripes = n_stripes if n_stripes is not None else lay.n_disks
        if self.n_stripes < 1:
            raise ValueError("n_stripes must be >= 1")

    # ------------------------------------------------------------------
    @property
    def data_bytes_per_stripe(self) -> int:
        return self.code.layout.n_data_elements * self.element_size

    @property
    def total_data_bytes(self) -> int:
        return self.n_stripes * self.data_bytes_per_stripe

    def rotation_of_stripe(self, stripe: int) -> int:
        """Rotation applied to this stripe's logical-to-physical mapping."""
        return stripe % self.code.layout.n_disks

    def physical_disk(self, logical: int, stripe: int) -> int:
        """Physical disk hosting a logical role in a given stripe."""
        n = self.code.layout.n_disks
        return (logical + self.rotation_of_stripe(stripe)) % n

    def logical_role(self, physical: int, stripe: int) -> int:
        """Logical role a physical disk plays in a given stripe."""
        n = self.code.layout.n_disks
        return (physical - self.rotation_of_stripe(stripe)) % n

    # ------------------------------------------------------------------
    def random_image(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Random user data for the whole array (flat byte buffer)."""
        rng = rng or np.random.default_rng()
        return rng.integers(0, 256, size=self.total_data_bytes, dtype=np.uint8)

    def _rotation_index(self, start: int, stop: int):
        """Index pair ``(physical disk, stripe)`` of shape ``(stop - start,
        n_disks)`` placing logical role ``l`` of stripes ``start..stop-1``
        in the per-disk images viewed as ``(n_disks, n_stripes, k, esz)``."""
        n = self.code.layout.n_disks
        stripe = np.arange(start, stop)[:, None]
        return (np.arange(n)[None, :] + stripe) % n, stripe

    def _by_stripe(self, disks: np.ndarray) -> np.ndarray:
        """The per-disk images viewed as ``(n_disks, n_stripes, k, esz)``."""
        lay = self.code.layout
        return disks.reshape(
            lay.n_disks, self.n_stripes, lay.k_rows, self.element_size
        )

    def encode_image(self, data: np.ndarray) -> np.ndarray:
        """Encode a flat user buffer into per-disk images.

        Returns an array of shape ``(n_disks, n_stripes * k, element_size)``
        where row ``s*k + r`` of disk ``d`` is element row ``r`` of stripe
        ``s`` on that physical disk.  Works one encode chunk of stripes at
        a time, so the only temporary is one chunk of encoded stripes.
        """
        if data.shape != (self.total_data_bytes,):
            raise ValueError(
                f"data must be a flat buffer of {self.total_data_bytes} bytes"
            )
        lay = self.code.layout
        k, esz = lay.k_rows, self.element_size
        per_stripe = data.reshape(self.n_stripes, lay.n_data_elements, esz)
        disks = np.empty((lay.n_disks, self.n_stripes * k, esz), dtype=np.uint8)
        by_stripe = self._by_stripe(disks)
        step = self.codec.chunk_stripes
        for a in range(0, self.n_stripes, step):
            stripes = self.codec.encode_batch(per_stripe[a : a + step])
            phys, stripe = self._rotation_index(a, a + len(stripes))
            by_stripe[phys, stripe] = stripes.reshape(-1, lay.n_disks, k, esz)
        return disks

    def decode_image(self, disks: np.ndarray) -> np.ndarray:
        """Read the user data back out of the per-disk images."""
        phys, stripe = self._rotation_index(0, self.n_stripes)
        data_roles = phys[:, : self.code.layout.n_data]
        return self._by_stripe(disks)[data_roles, stripe].reshape(-1)

    # ------------------------------------------------------------------
    def _logical_stripe(self, disks: np.ndarray, s: int) -> np.ndarray:
        """Assemble stripe ``s`` in logical element order (one slice per disk)."""
        lay = self.code.layout
        k = lay.k_rows
        stripe = np.empty((lay.n_elements, self.element_size), dtype=np.uint8)
        for logical in range(lay.n_disks):
            phys = self.physical_disk(logical, s)
            stripe[logical * k : (logical + 1) * k] = disks[phys, s * k : (s + 1) * k]
        return stripe

    def recover_disk(
        self,
        disks: np.ndarray,
        failed_physical: int,
        planner: Optional[RecoveryPlanner] = None,
    ) -> Dict[str, object]:
        """Rebuild a failed physical disk from the survivors, stripe by stripe.

        The per-stripe reference the batched
        :class:`~repro.pipeline.RebuildPipeline` is checked and timed
        against.  No scheme reads ``disks[failed_physical]``; the rebuilt
        image is returned together with per-physical-disk element read
        counts, so the load balance of the chosen scheme family is
        observable end to end.
        """
        lay = self.code.layout
        k = lay.k_rows
        if not 0 <= failed_physical < lay.n_disks:
            raise IndexError(f"physical disk {failed_physical} out of range")
        planner = planner or RecoveryPlanner(self.code, algorithm="u", depth=1)

        rebuilt = np.zeros((self.n_stripes * k, self.element_size), dtype=np.uint8)
        reads_per_disk = [0] * lay.n_disks
        plans = {}
        for s in range(self.n_stripes):
            role = self.logical_role(failed_physical, s)
            if role not in plans:
                scheme = planner.scheme_for_disk(role)
                plans[role] = (scheme, scheme.loads)
            scheme, loads = plans[role]
            # account reads against *physical* disks
            for ldisk, load in enumerate(loads):
                reads_per_disk[self.physical_disk(ldisk, s)] += load
            recovered = execute_scheme(scheme, self._logical_stripe(disks, s))
            for eid, payload in recovered.items():
                rebuilt[s * k + lay.row_of(eid)] = payload
        return {"image": rebuilt, "reads_per_disk": reads_per_disk}

    def verify_recovery(
        self,
        disks: np.ndarray,
        failed_physical: int,
        planner: Optional[RecoveryPlanner] = None,
    ) -> bool:
        """True iff the rebuilt disk matches the original image bytes."""
        result = self.recover_disk(disks, failed_physical, planner)
        return np.array_equal(result["image"], disks[failed_physical])
