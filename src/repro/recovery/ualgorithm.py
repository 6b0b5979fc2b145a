"""U-Algorithm (Sec. IV): unconditional load balance.

Minimize the read load of the most loaded disk outright — even if that means
reading more data in total — then, among ties, read the minimal total
(Sec. IV-B's revision of Algorithm 1).  The paper's bucketed ``rec_list[r]``
traversal in ascending max-column-load order is uniform-cost search on the
lexicographic key ``(max_load, total)``; a binary heap plays the role of the
``k + 1`` sublists.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.codes.base import ErasureCode
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import search_scheme_for_mask


def u_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """U-Scheme for a single failed disk."""
    return u_scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), depth, max_expansions
    )


def u_scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
    weights: Optional[Sequence[float]] = None,
) -> RecoveryScheme:
    """U-Scheme for an arbitrary failed-element set.

    With ``weights`` given, runs the heterogeneous-environment variant of
    Sec. V-D: the key becomes the maximal per-disk read *cost* (load times
    the disk's weight); uniform weights of 1 recover the plain U-Algorithm.
    """
    return search_scheme_for_mask(
        code, failed_mask, "u", depth, max_expansions, weights
    )
