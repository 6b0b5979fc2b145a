"""Scheme execution: rebuild failed elements from surviving bytes.

A :class:`~repro.recovery.scheme.RecoveryScheme` lists one calculation
equation per failed element, in recovery order.  Executing it is pure XOR:
the failed element equals the XOR of every *other* member of its equation —
surviving elements read from disk plus failed elements recovered by earlier
equations (the iteration of Greenan et al. [10], at zero additional read
cost).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.recovery.scheme import RecoveryScheme


def execute_scheme(scheme: RecoveryScheme, stripe: np.ndarray) -> Dict[int, np.ndarray]:
    """Rebuild the failed elements of one stripe.

    Parameters
    ----------
    scheme:
        The recovery plan.
    stripe:
        Full stripe array ``(n_elements, element_size)``.  Failed elements'
        rows are treated as unreadable — their stored content is never
        touched, so callers may pass the intact pre-failure stripe and use
        the result for byte-exact verification.

    Returns
    -------
    dict mapping failed eid -> recovered element bytes.
    """
    lay = scheme.layout
    if stripe.shape[0] != lay.n_elements:
        raise ValueError(
            f"stripe has {stripe.shape[0]} elements, layout needs {lay.n_elements}"
        )
    failed_mask = scheme.failed_mask
    recovered: Dict[int, np.ndarray] = {}
    for f, eq in zip(scheme.failed_eids, scheme.equations):
        members = eq & ~(1 << f)
        acc = np.zeros(stripe.shape[1], dtype=np.uint8)
        m = members
        while m:
            low = m & -m
            eid = low.bit_length() - 1
            m ^= low
            if (failed_mask >> eid) & 1:
                source = recovered[eid]  # guaranteed by recovery order
            else:
                source = stripe[eid]
            np.bitwise_xor(acc, source, out=acc)
        recovered[f] = acc
    return recovered


class Reconstructor:
    """Multi-stripe recovery driver.

    Wraps :func:`execute_scheme` with the bookkeeping a rebuild loop needs:
    count of elements read, verification against the original, and a
    patch mode that returns the stripe with its recovered bytes filled in
    (hot-spare semantics).
    """

    def __init__(self, scheme: RecoveryScheme) -> None:
        self.scheme = scheme
        self.stripes_recovered = 0
        self.elements_read = 0

    def recover_stripe(self, stripe: np.ndarray) -> Dict[int, np.ndarray]:
        """Rebuild one stripe's failed elements; updates counters."""
        out = execute_scheme(self.scheme, stripe)
        self.stripes_recovered += 1
        self.elements_read += self.scheme.total_reads
        return out

    def recover_and_patch(self, stripe: np.ndarray) -> np.ndarray:
        """Rebuild failed elements and return a patched *copy* of the
        stripe (the input is never touched)."""
        out = stripe.copy()
        for eid, data in self.recover_stripe(stripe).items():
            out[eid] = data
        return out

    def verify_stripe(self, stripe: np.ndarray) -> bool:
        """Recover from survivors and compare with the original bytes —
        the paper's post-recovery correctness check (Sec. VI-A)."""
        recovered = self.recover_stripe(stripe)
        return all(np.array_equal(stripe[eid], data) for eid, data in recovered.items())
