"""The production-default ("conventional") repair baseline.

The paper's experiments compare the balanced schemes against what a storage
system ships with today.  For locality codes (Azure-LRC, Xorbas) that is the
*local-group* repair — read only the failed disk's group — not the paper's
naive first-parity scheme, so measuring against naive would overstate the
win.  :func:`conventional_scheme` asks the code for its production repair
equation set via :meth:`ErasureCode.conventional_repair_equations` and
solves it into one equation per failed element; codes without a special
path fall back to the naive scheme, and dense codes where even the naive
scheme does not exist (no single original equation isolates an element)
fall back to a generic Gaussian-elimination solve over all original
equations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.codes.base import ErasureCode
from repro.recovery.naive import naive_scheme_for_mask
from repro.recovery.scheme import RecoveryScheme


def _solve_candidates(
    code: ErasureCode, failed_mask: int, candidates: List[int], source: str
) -> Optional[RecoveryScheme]:
    """Combine ``candidates`` (masks in the calculation-equation space) into
    one equation per failed element via GF(2) elimination on the failed
    bits.  Returns ``None`` when the candidates do not span the failure.
    """
    lay = code.layout
    failed_eids = sorted(
        d * lay.k_rows + r for d, r in lay.iter_elements(failed_mask)
    )
    rows = list(candidates)
    pivots = {}
    for f in failed_eids:
        fbit = 1 << f
        pivot_row = None
        for i, r in enumerate(rows):
            if r & fbit:
                pivot_row = rows.pop(i)
                break
        if pivot_row is None:
            return None
        # eliminate f everywhere; pivot rows keep only their own failed bit
        # (pivot_row carries no earlier failed bits, so none are reintroduced)
        rows = [r ^ pivot_row if r & fbit else r for r in rows]
        for g in pivots:
            if pivots[g] & fbit:
                pivots[g] ^= pivot_row
        pivots[f] = pivot_row
    equations = [pivots[f] for f in failed_eids]
    read_mask = 0
    for eq in equations:
        read_mask |= eq & ~failed_mask
    scheme = RecoveryScheme(
        layout=lay,
        failed_mask=failed_mask,
        failed_eids=failed_eids,
        equations=equations,
        read_mask=read_mask,
        algorithm="conventional",
        metadata={"source": source},
    )
    scheme.validate(code)
    return scheme


def conventional_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 1,
    max_expansions: Optional[int] = None,
) -> RecoveryScheme:
    """The repair a production deployment of ``code`` would run.

    Resolution order:

    1. the code's own :meth:`conventional_repair_equations` (local-group
       repair for LRCs, implied-parity repair for Xorbas parities, ...),
    2. the paper's naive first-parity scheme,
    3. a generic eliminate-and-solve over all original equations (dense
       codes where no single original equation isolates an element).

    ``depth`` and ``max_expansions`` are ignored, as for
    :func:`~repro.recovery.naive.naive_scheme`.
    """
    return conventional_scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), failed_disk=failed_disk
    )


def conventional_scheme_for_mask(
    code: ErasureCode, failed_mask: int, failed_disk: Optional[int] = None
) -> RecoveryScheme:
    """Mask-level variant; the locality path needs ``failed_disk``."""
    if failed_disk is not None:
        candidates = code.conventional_repair_equations(failed_disk)
        if candidates is not None:
            scheme = _solve_candidates(code, failed_mask, candidates, "locality")
            if scheme is not None:
                return scheme
    try:
        base = naive_scheme_for_mask(code, failed_mask)
    except ValueError:
        scheme = _solve_candidates(
            code, failed_mask, code.parity_equations(), "generic"
        )
        if scheme is None:
            raise ValueError(
                f"failure mask {failed_mask:#x} is not recoverable"
            ) from None
        return scheme
    return replace(
        base,
        algorithm="conventional",
        metadata={**base.metadata, "source": "naive"},
    )
