"""Fleet-scale durability Monte-Carlo (ROADMAP item 4).

Simulates years of operation for pools of thousands of disks and prices
what faster single-disk recovery is worth in durability nines — the
paper's Sec. I motivation, quantified.  Repair windows are not free
parameters: they come from the recovery planner's load-balanced schemes,
the placement layer's declustering, and (optionally) the topology
makespan simulator, throttled by a :class:`QosPolicy`.

Two engines, one contract: the batched numpy core
(:mod:`repro.fleet.vector`) runs thousands of disk-years per second; the
pure-Python reference (:mod:`repro.fleet.scalar`) replays the same
counter-based randomness event by event for verification, and is the
default under ``REPRO_PURE_PYTHON=1``.

See ``docs/fleet.md`` for the model and the event-core design.
"""

from repro.fleet.crit import StripeCriticality, make_criticality
from repro.fleet.engine import default_engine, run_fleet, simulate_fleet
from repro.fleet.result import FleetResult, wilson_interval
from repro.fleet.windows import (
    QosPolicy,
    RepairWindows,
    price_repair_windows,
    recovery_hours_for_disk,
    uniform_windows,
)

__all__ = [
    "FleetResult",
    "QosPolicy",
    "RepairWindows",
    "StripeCriticality",
    "default_engine",
    "make_criticality",
    "price_repair_windows",
    "recovery_hours_for_disk",
    "run_fleet",
    "simulate_fleet",
    "uniform_windows",
    "wilson_interval",
]
