"""Open-loop (trace-driven) request frontend for the serving stack.

Closed-loop clients (:mod:`repro.serving.clients`) under-report overload:
when the engine slows down, a closed-loop client simply offers less.  The
frontend here replays a request trace **open-loop** — every request has a
scheduled arrival instant and its latency is measured from that instant
to completion, so queueing delay under overload shows up in the
percentiles instead of vanishing into reduced offered load.  This is the
client model the sharded engine's scale grid is scored on, and the same
replay loop drives the single-process :class:`~repro.serving.engine
.ServingEngine` so 1-shard numbers are comparable to the PR 5 engine on
*identical paced traces*.

Traces are plain numpy arrays (arrival seconds, disk, row) built from the
existing :class:`~repro.disksim.workload.Request` generators via
:func:`trace_arrays`; :func:`partition_trace` splits one by stripe range
for the sharded engine, so every shard replays exactly its slice of the
same global trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.disksim.workload import Request
from repro.serving.engine import ServingEngine
from repro.serving.qos import percentile


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


@dataclass
class OpenLoopReport:
    """Latency-percentile accounting for one open-loop replay."""

    served: int
    mismatches: int
    errors: List[str]
    p50_ms: float
    p99_ms: float
    mean_ms: float
    duration_s: float          #: first scheduled arrival -> last completion
    offered_rate_rps: float    #: requests / trace span
    throughput_rps: float      #: requests / duration
    samples: int
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and not self.errors


def replay_open_loop(
    read_fn: Callable[[int, int], np.ndarray],
    arrival_s: np.ndarray,
    disks: np.ndarray,
    rows: np.ndarray,
    expected: Optional[np.ndarray] = None,
    t_start: Optional[float] = None,
) -> OpenLoopReport:
    """Replay one trace open-loop against a single-request read function.

    Requests are issued in schedule order; the loop sleeps until each
    scheduled arrival, but never *discards* lateness — an overloaded
    server accumulates backlog and every queued request's latency grows
    by the wait, exactly like a real frontend's accept queue.
    """
    n = len(arrival_s)
    if not (n == len(disks) == len(rows)):
        raise ValueError("trace arrays must have equal length")
    lat = np.empty(n, dtype=np.float64)
    mismatches = 0
    errors: List[str] = []
    served = 0
    if t_start is None:
        t_start = time.monotonic()
    for i in range(n):
        sched = t_start + arrival_s[i]
        delay = sched - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            data = read_fn(int(disks[i]), int(rows[i]))
        except Exception as exc:
            errors.append(f"{disks[i]}:{rows[i]}: {exc!r}")
            break
        lat[served] = time.monotonic() - sched
        served += 1
        if expected is not None and not np.array_equal(
            data, expected[disks[i], rows[i]]
        ):
            mismatches += 1
    t_end = time.monotonic()
    samples = lat[:served]
    span = float(arrival_s[-1] - arrival_s[0]) if n > 1 else 0.0
    duration = max(t_end - t_start, 1e-9)
    return OpenLoopReport(
        served=served,
        mismatches=mismatches,
        errors=errors,
        p50_ms=percentile(samples.tolist(), 0.5) * 1e3,
        p99_ms=percentile(samples.tolist(), 0.99) * 1e3,
        mean_ms=float(samples.mean() * 1e3) if served else 0.0,
        duration_s=duration,
        offered_rate_rps=(n / span) if span > 0 else float("inf"),
        throughput_rps=served / duration,
        samples=served,
    )


def run_engine_open_loop(
    engine: ServingEngine,
    requests: Sequence[Request],
    expected: Optional[np.ndarray] = None,
    chunk_stripes: int = 64,
    timeout_s: float = 300.0,
) -> OpenLoopReport:
    """Open-loop baseline leg on the single-process PR 5 engine.

    Starts the background rebuild and replays the trace against
    :meth:`ServingEngine.read` — the comparison anchor for the sharded
    engine's 1-shard latency numbers (same trace, same I/O model
    physics, same rebuild interference).
    """
    arr, disks, rows = trace_arrays(requests)
    engine.start_rebuild(chunk_stripes=chunk_stripes)
    report = replay_open_loop(engine.read, arr, disks, rows, expected=expected)
    finished = engine.rebuild_done.wait(timeout_s)
    if not finished:
        report.errors.append(f"rebuild did not finish within {timeout_s}s")
    elif engine.rebuild_error is not None:
        report.errors.append(f"rebuild failed: {engine.rebuild_error!r}")
    report.extra["engine_stats"] = engine.stats()
    report.extra["rebuild_wall_s"] = engine.rebuild_wall_s
    return report
