"""Failure escalation: a second disk dies mid-recovery.

The window of vulnerability is not hypothetical — when disk B fails while
disk A's rebuild is underway, the remaining work is a *mixed* situation:
A's already-rebuilt rows are available in memory / on the spare (free), the
rest of A and all of B are lost.  Re-planning from scratch would forget the
free elements; this module plans the continuation properly:

* already-recovered elements of A join the failure mask but receive a
  zero-cost sentinel option ordered before everything else, so the search
  may lean on them exactly like the iteration algorithm leans on
  earlier-recovered elements;
* the resulting scheme's sentinel slots are skipped at execution time and
  their payloads taken from the caller's in-memory copies.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.codes.base import ErasureCode
from repro.equations.enumerate import (
    EquationOption,
    get_recovery_equations,
)
from repro.recovery.multifailure import UnrecoverableError
from repro.recovery.planner import scheme_generator
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import COST_KEYS, cost_key, generate_scheme


def escalation_algorithm(algorithm: str) -> str:
    """The search key that continues a plan made by ``algorithm``.

    A search algorithm (Khan, C, U) keeps its own key; a plan from a
    non-search algorithm (naive, conventional) escalates with U.  An
    unknown name raises :class:`ValueError`.
    """
    scheme_generator(algorithm)
    return algorithm if algorithm in COST_KEYS else "u"


def escalated_scheme(
    code: ErasureCode,
    primary_disk: int,
    recovered_rows: Iterable[int],
    secondary_disk: int,
    algorithm: str = "u",
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Plan the continuation after ``secondary_disk`` fails mid-rebuild.

    Parameters
    ----------
    primary_disk:
        The disk whose rebuild was in progress.
    recovered_rows:
        Rows of the primary disk already rebuilt (available at no read
        cost).
    secondary_disk:
        The newly failed disk.
    algorithm:
        Generator of the interrupted plan; the continuation searches with
        :func:`escalation_algorithm`'s key and is labelled with it.

    Returns a scheme over the *entire* failed element set; slots whose
    element was already recovered carry the sentinel equation ``1 << eid``
    (recognisable by :func:`execute_escalated`).
    """
    lay = code.layout
    algorithm = escalation_algorithm(algorithm)
    if primary_disk == secondary_disk:
        raise ValueError("primary and secondary disks must differ")
    recovered_rows = sorted(set(recovered_rows))
    for row in recovered_rows:
        if not 0 <= row < lay.k_rows:
            raise ValueError(f"row {row} out of range")
    full_mask = lay.disk_mask(primary_disk) | lay.disk_mask(secondary_disk)
    if not code.is_recoverable(full_mask):
        raise UnrecoverableError(
            f"disks {primary_disk} and {secondary_disk} together exceed "
            f"{code.name}'s tolerance"
        )
    free_mask = 0
    for row in recovered_rows:
        free_mask |= 1 << lay.eid(primary_disk, row)

    rec = get_recovery_equations(
        code, full_mask, depth=depth, ensure_complete=True
    )
    # give already-recovered elements a free sentinel option; the sentinel
    # wins any cost comparison (empty read set), so those slots never read
    for i, f in enumerate(rec.failed_eids):
        if (free_mask >> f) & 1:
            rec.options[i] = [EquationOption(0, 1 << f)]

    return generate_scheme(
        rec,
        cost_key(algorithm, lay),
        algorithm=f"escalated_{algorithm}",
        max_expansions=max_expansions,
    )


def execute_escalated(
    scheme: RecoveryScheme,
    stripe: np.ndarray,
    in_memory: Dict[int, np.ndarray],
) -> Dict[int, np.ndarray]:
    """Execute an escalated plan against one stripe.

    ``in_memory`` maps already-recovered eids to their payloads; sentinel
    slots are served from it, everything else XORs like a normal scheme.

    Slots are resolved in *dependency* order, not list order: an equation
    may reference a failed element whose slot appears later in
    ``failed_eids`` (e.g. a sentinel for a high eid feeding a low eid's
    equation), which list-order execution would hit before it exists.  A
    genuinely unsatisfiable plan — circular or missing dependencies —
    raises :class:`ValueError` naming the stuck elements instead of a bare
    ``KeyError``.
    """
    failed_mask = scheme.failed_mask
    out: Dict[int, np.ndarray] = {}
    done_mask = 0
    pending = list(zip(scheme.failed_eids, scheme.equations))
    while pending:
        progressed = False
        still_pending = []
        for f, eq in pending:
            if eq == 1 << f:  # sentinel: already recovered
                if f not in in_memory:
                    raise KeyError(
                        f"element {f} marked in-memory but not supplied"
                    )
                out[f] = in_memory[f]
                done_mask |= 1 << f
                progressed = True
                continue
            deps = eq & failed_mask & ~(1 << f)
            if deps & ~done_mask:  # some failed member not yet recovered
                still_pending.append((f, eq))
                continue
            members = eq & ~(1 << f)
            acc = np.zeros(stripe.shape[1], dtype=np.uint8)
            m = members
            while m:
                low = m & -m
                eid = low.bit_length() - 1
                m ^= low
                source = out[eid] if (failed_mask >> eid) & 1 else stripe[eid]
                np.bitwise_xor(acc, source, out=acc)
            out[f] = acc
            done_mask |= 1 << f
            progressed = True
        if not progressed:
            stuck = sorted(f for f, _ in still_pending)
            missing = {
                f: sorted(
                    _bits((eq & failed_mask & ~(1 << f)) & ~done_mask)
                )
                for f, eq in still_pending
            }
            raise ValueError(
                f"escalated plan is not executable: elements {stuck} wait "
                f"on failed elements that are never recovered before them "
                f"({missing})"
            )
        pending = still_pending
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
