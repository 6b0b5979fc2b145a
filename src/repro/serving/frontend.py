"""Open-loop (trace-driven) request frontend for the serving engine.

Requests are replayed **open-loop**: every request has a scheduled
arrival instant and its latency is measured from that instant to
completion, so queueing delay under overload shows up in the
percentiles instead of vanishing into reduced offered load (a
closed-loop client simply offers less when the server slows down).

Traces come from the :class:`~repro.disksim.workload.HotspotWorkload` /
:class:`~repro.disksim.workload.SequentialScanWorkload` generators via
:func:`build_workload_requests`, with ``k_rows`` set to the
*disk-global* row count so one generator row is one element address.
:func:`trace_arrays` turns a request list into plain numpy arrays
(arrival seconds, disk, row), and :func:`partition_trace` splits one by
stripe range, so every shard replays exactly its slice of the same
global trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.disksim.workload import (
    HotspotWorkload,
    Request,
    SequentialScanWorkload,
)

#: workload kinds understood by :func:`build_workload_requests`
WORKLOAD_KINDS = ("hotspot", "sequential")


def build_workload_requests(
    kind: str,
    n_disks: int,
    total_rows: int,
    failed_disk: int,
    count: int,
    seed: int = 0,
    rate_per_s: float = 1000.0,
) -> List[Request]:
    """``count`` requests of the named workload shape at ``rate_per_s``.

    ``hotspot`` skews 80% of uniform Poisson traffic onto the failed
    disk (the worst case for degraded service); ``sequential`` scans the
    failed disk front to back (scrub/backup traffic — every read is
    degraded until the rebuild frontier passes it).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    if kind == "hotspot":
        gen = HotspotWorkload(
            rate_per_s=rate_per_s,
            n_disks=n_disks,
            k_rows=total_rows,
            hot_disks=(failed_disk,),
            hot_fraction=0.8,
            seed=seed,
        )
        duration = count / rate_per_s
        reqs = gen.generate(duration)
        while len(reqs) < count:
            duration *= 2
            reqs = gen.generate(duration)
        return reqs[:count]
    if kind == "sequential":
        interval = 1.0 / rate_per_s
        gen = SequentialScanWorkload(
            disk=failed_disk, k_rows=total_rows, interval_s=interval
        )
        return gen.generate(count * interval)[:count]
    raise ValueError(f"unknown workload kind {kind!r} (use {WORKLOAD_KINDS})")


def trace_arrays(
    requests: Sequence[Request],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arrival_s, disk, row)`` arrays for a request sequence.

    Arrivals are shifted so the first request fires at t=0 and sorted —
    an open-loop replay needs monotone schedule times.
    """
    if not requests:
        raise ValueError("trace needs at least one request")
    arr = np.asarray([r.arrival_s for r in requests], dtype=np.float64)
    disks = np.asarray([r.disk for r in requests], dtype=np.int64)
    rows = np.asarray([r.row for r in requests], dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    arr = arr[order] - arr[order[0]]
    return arr, disks[order], rows[order]


def shard_bounds(n_stripes: int, n_shards: int) -> np.ndarray:
    """Stripe-range boundaries: shard ``i`` owns ``[bounds[i], bounds[i+1])``.

    ``n_shards`` may exceed ``n_stripes``: the surplus shards come out
    with empty ranges (repeated bounds), which the replay loop, the
    latency board and the report merge all tolerate — an over-provisioned
    shard count degrades to idle workers, never to a crash.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_stripes < 1:
        raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")
    return np.asarray(
        [i * n_stripes // n_shards for i in range(n_shards + 1)], dtype=np.int64
    )


def partition_trace(
    rows: np.ndarray,
    k_rows: int,
    n_stripes: int,
    n_shards: int,
    bounds: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Per-shard index arrays over one global trace, split by stripe range.

    Every request (any disk) is owned by the shard whose stripe range
    contains ``row // k_rows`` — requests stay in global arrival order
    within each shard because the input is already sorted.  ``bounds``
    overrides the even split (e.g. placement-group-aligned bounds from
    :meth:`repro.placement.PlacementMap.shard_bounds`); empty shards get
    empty index arrays.
    """
    if bounds is None:
        bounds = shard_bounds(n_stripes, n_shards)
    else:
        bounds = np.asarray(bounds, dtype=np.int64)
        if (
            len(bounds) != n_shards + 1
            or bounds[0] != 0
            or bounds[-1] != n_stripes
            or np.any(np.diff(bounds) < 0)
        ):
            raise ValueError(
                f"bounds must be monotone over [0, {n_stripes}] with "
                f"{n_shards + 1} entries, got {bounds.tolist()}"
            )
    stripes = rows // k_rows
    shard_of = np.searchsorted(bounds, stripes, side="right") - 1
    return [np.flatnonzero(shard_of == i) for i in range(n_shards)]
