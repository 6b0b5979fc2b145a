"""Khan's algorithm [Khan et al., FAST'12] — the state-of-the-art baseline.

Finds a recovery scheme with the minimal total number of elements read,
without regard to how those reads distribute over disks.  Ties between
minimal-read schemes are broken arbitrarily by search pop order, matching the
paper's observation that "Khan's algorithm has not indicated which recovery
scheme ... should be chosen in case of a tie" (Sec. II-B); like the paper's
own evaluation we therefore take "the first searched suitable recovery scheme
with minimal amount of read data" (Sec. V-A).
"""

from __future__ import annotations

from typing import Optional

from repro.codes.base import ErasureCode
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import search_scheme_for_mask


def khan_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Minimal-total-read scheme for a single failed disk."""
    return khan_scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), depth, max_expansions
    )


def khan_scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Minimal-total-read scheme for an arbitrary failed-element set."""
    return search_scheme_for_mask(
        code, failed_mask, "khan", depth, max_expansions
    )
