"""Whole-recovery simulation with stack rotation (paper Sec. VI).

The experimental methodology of the paper: 20 *stacks*, each stack holding
every logical-to-physical disk mapping rotation, so a physical disk failure
exercises every logical single-disk-failure situation with equal weight and
the measured speed is independent of which physical disk died.  Recovery
proceeds stripe by stripe — the per-stripe reads are issued in parallel and
the stripe completes when its most loaded disk finishes — and the recovery
speed is recovered bytes over total read time.  Write-back of recovered data
is excluded, exactly as the paper defines recovery time (Sec. I).

:func:`recovery_under_placement` drops the rotation assumption: it prices
each physical disk's recovery under any single-array
:class:`~repro.placement.PlacementMap`, so an unrotated table exposes the
per-situation cost differences that rotation averages away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.codes.base import ErasureCode
from repro.disksim.array import DiskArraySimulator
from repro.disksim.disk import SAVVIO_10K3, DiskParams
from repro.placement.map import PlacementMap
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a simulated whole-disk recovery."""

    recovery_time_s: float
    data_recovered_mb: float
    n_stripes: int

    @property
    def speed_mb_s(self) -> float:
        """Recovery speed — the paper's Figure 4 metric."""
        if self.recovery_time_s == 0:
            return float("inf")
        return self.data_recovered_mb / self.recovery_time_s


def simulate_stack_recovery(
    code: ErasureCode,
    schemes: Sequence[RecoveryScheme],
    stacks: int = 20,
    params: "DiskParams | Sequence[DiskParams]" = SAVVIO_10K3,
) -> RecoveryResult:
    """Simulate recovering one failed physical disk over rotated stripes.

    Parameters
    ----------
    code:
        The erasure code (defines stripe geometry).
    schemes:
        One scheme per *logical* failure situation that occurs in the
        rotation — typically the per-data-disk schemes from a
        :class:`~repro.recovery.planner.RecoveryPlanner`.  Each situation
        appears once per stack, matching the equal-occurrence property of
        stacks.
    stacks:
        How many stacks to process (the paper uses 20).
    params:
        Disk timing model(s).

    Notes
    -----
    Thanks to rotation the result does not depend on which physical disk
    failed, so the simulation simply sums the per-situation stripe times.
    """
    if not schemes:
        raise ValueError("need at least one scheme")
    if stacks < 1:
        raise ValueError(f"stacks must be >= 1, got {stacks}")
    lay = code.layout
    array = DiskArraySimulator(lay.n_disks, params)
    elem_mb = array.disks[0].element_mb

    time_per_stack = 0.0
    recovered_per_stack_mb = 0.0
    for scheme in schemes:
        time_per_stack += array.stripe_recovery_time(lay, scheme.read_mask)
        recovered_per_stack_mb += len(scheme.failed_eids) * elem_mb

    return RecoveryResult(
        recovery_time_s=time_per_stack * stacks,
        data_recovered_mb=recovered_per_stack_mb * stacks,
        n_stripes=len(schemes) * stacks,
    )


def compare_schemes_speed(
    code: ErasureCode,
    schemes_by_algorithm: Dict[str, Sequence[RecoveryScheme]],
    stacks: int = 20,
    params: "DiskParams | Sequence[DiskParams]" = SAVVIO_10K3,
) -> Dict[str, float]:
    """Recovery speed (MB/s) per algorithm for the same failure situations."""
    return {
        alg: simulate_stack_recovery(code, schemes, stacks, params).speed_mb_s
        for alg, schemes in schemes_by_algorithm.items()
    }


@dataclass(frozen=True)
class PlacementRecovery:
    """Per-physical-disk recovery times under one placement."""

    placement: str
    per_disk_time_s: List[float]

    @property
    def worst_s(self) -> float:
        return max(self.per_disk_time_s)

    @property
    def best_s(self) -> float:
        return min(self.per_disk_time_s)

    @property
    def spread(self) -> float:
        """worst/best ratio — 1.0 means placement-independent recovery."""
        if self.best_s == 0:
            return 1.0
        return self.worst_s / self.best_s


def recovery_under_placement(
    code: ErasureCode,
    placement: PlacementMap,
    planner: Optional[RecoveryPlanner] = None,
    params: "DiskParams | Sequence[DiskParams]" = SAVVIO_10K3,
) -> PlacementRecovery:
    """Recovery time of each physical disk of one array under ``placement``.

    ``placement`` must lay every stripe over the whole array
    (``n_pool == width == n_disks``).  ``make_placement("flat", n, s, n)``
    is the paper's rotated layout; a table with ``table[s, j] = (j - s) %
    n`` pins every logical role to one physical disk (no rotation).  A
    disk's time is how often it plays each logical role times that role's
    stripe recovery time.
    """
    lay = code.layout
    n = lay.n_disks
    if placement.n_pool != n or placement.width != n:
        raise ValueError(
            f"placement {placement.name!r} spans {placement.width} of "
            f"{placement.n_pool} disks; a single-array recovery needs "
            f"width == pool == {n}"
        )
    planner = planner or RecoveryPlanner(code, algorithm="u", depth=1)
    array = DiskArraySimulator(n, params)
    role_time_s = np.array(
        [
            array.stripe_recovery_time(lay, planner.scheme_for_disk(r).read_mask)
            for r in range(n)
        ]
    )
    times = [
        float(np.bincount(placement.roles_of_disk(d)[1], minlength=n) @ role_time_s)
        for d in range(n)
    ]
    return PlacementRecovery(placement=placement.name, per_disk_time_s=times)
