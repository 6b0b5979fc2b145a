"""Closed-loop serving clients built on the disksim workload generators.

The benchmark and the CLI drive a :class:`ServingEngine` with threads that
replay :class:`~repro.disksim.workload.Request` sequences *closed-loop*
(next read issued when the previous one returns — the latency-bounded
client model), verifying every returned element against the pristine
image.  Request sequences come from the existing
:class:`~repro.disksim.workload.HotspotWorkload` /
:class:`~repro.disksim.workload.SequentialScanWorkload` generators with
``k_rows`` set to the *disk-global* row count, so one generator row maps
directly onto :meth:`ServingEngine.read`'s address space.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.disksim.workload import (
    HotspotWorkload,
    Request,
    SequentialScanWorkload,
)
from repro.serving.engine import ServingEngine
from repro.serving.qos import percentile

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
    """``count`` requests of the named workload shape.

    ``hotspot`` skews 80% of uniform Poisson traffic onto the failed
    disk (the worst case for degraded service); ``sequential`` scans the
    failed disk front to back (scrub/backup traffic — every read is
    degraded until the rebuild frontier passes it).  ``rate_per_s`` sets
    the trace's offered rate, honoured when clients replay *paced*.
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


class ClosedLoopClient(threading.Thread):
    """One reader thread replaying a request sequence against the engine.

    Latency samples taken while the rebuild was still running are kept
    separate from post-rebuild samples — the serving SLO is about the
    window of vulnerability, and post-rebuild direct reads would dilute
    the percentile.

    With ``pace=True`` the client honours the trace's request timestamps
    (think time): it never issues *faster* than the workload's offered
    rate, though it still waits for each read to return before the next.
    Pacing keeps the offered load identical across engine configurations
    — without it a faster engine invites proportionally more traffic
    from its closed-loop clients, which makes rebuild-interference
    comparisons meaningless.
    """

    def __init__(
        self,
        engine: ServingEngine,
        requests: Sequence[Request],
        expected: Optional[np.ndarray] = None,
        stop_event: Optional[threading.Event] = None,
        max_requests: int = 1_000_000,
        name: Optional[str] = None,
        pace: bool = False,
    ) -> None:
        super().__init__(name=name, daemon=True)
        if not requests:
            raise ValueError("client needs at least one request")
        self.engine = engine
        self.requests = list(requests)
        self.expected = expected
        self.stop_event = stop_event or threading.Event()
        self.max_requests = max_requests
        self.pace = pace
        self.latencies_during: List[float] = []
        self.latencies_after: List[float] = []
        self.mismatches = 0
        self.errors: List[str] = []
        self.served = 0

    def run(self) -> None:
        ts0 = self.requests[0].arrival_s
        span = self.requests[-1].arrival_s - ts0
        mean_dt = span / max(1, len(self.requests) - 1)
        t_start = time.perf_counter()
        for idx, req in enumerate(itertools.cycle(self.requests)):
            if self.stop_event.is_set() or self.served >= self.max_requests:
                return
            if self.pace:
                cycle_n, pos = divmod(idx, len(self.requests))
                deadline = (
                    t_start
                    + cycle_n * (span + mean_dt)
                    + (self.requests[pos].arrival_s - ts0)
                )
                delay = deadline - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            during = not self.engine.rebuild_done.is_set()
            t0 = time.perf_counter()
            try:
                data = self.engine.read(req.disk, req.row)
            except Exception as exc:
                self.errors.append(f"{req.disk}:{req.row}: {exc!r}")
                return
            lat = time.perf_counter() - t0
            (self.latencies_during if during else self.latencies_after).append(lat)
            self.served += 1
            if self.expected is not None and not np.array_equal(
                data, self.expected[req.disk, req.row]
            ):
                self.mismatches += 1


@dataclass
class ServeReport:
    """Aggregated outcome of one closed-loop serving run."""

    reads: int
    mismatches: int
    errors: List[str]
    p50_ms: float
    p99_ms: float
    samples_during: int
    rebuild_wall_s: Optional[float]
    engine_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and not self.errors


def run_closed_loop(
    engine: ServingEngine,
    request_lists: Sequence[Sequence[Request]],
    expected: Optional[np.ndarray] = None,
    chunk_stripes: int = 64,
    timeout_s: float = 300.0,
    settle_reads: int = 0,
    pace: bool = False,
) -> ServeReport:
    """Drive the engine with one client per request list until rebuilt.

    Starts the background rebuild, runs the clients closed-loop while it
    progresses, stops them once the rebuild completes (plus
    ``settle_reads`` extra requests each, exercising the patched path),
    and reports latency percentiles over the during-rebuild samples.
    ``pace=True`` makes clients honour trace timestamps (see
    :class:`ClosedLoopClient`).
    """
    stop = threading.Event()
    clients = [
        ClosedLoopClient(
            engine,
            reqs,
            expected=expected,
            stop_event=stop,
            name=f"serve-client-{i}",
            pace=pace,
        )
        for i, reqs in enumerate(request_lists)
    ]
    for c in clients:
        c.start()
    engine.start_rebuild(chunk_stripes=chunk_stripes)
    finished = engine.rebuild_done.wait(timeout_s)
    if settle_reads:
        for c in clients:
            c.max_requests = min(c.max_requests, c.served + settle_reads)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            c.served < c.max_requests and not c.errors for c in clients
        ):
            time.sleep(0.005)
    stop.set()
    for c in clients:
        c.join(timeout=30.0)
    errors = [e for c in clients for e in c.errors]
    if not finished:
        errors.append(f"rebuild did not finish within {timeout_s}s")
    elif engine.rebuild_error is not None:
        errors.append(f"rebuild failed: {engine.rebuild_error!r}")
    during = [lat for c in clients for lat in c.latencies_during]
    return ServeReport(
        reads=sum(c.served for c in clients),
        mismatches=sum(c.mismatches for c in clients),
        errors=errors,
        p50_ms=percentile(during, 0.5) * 1e3,
        p99_ms=percentile(during, 0.99) * 1e3,
        samples_during=len(during),
        rebuild_wall_s=engine.rebuild_wall_s,
        engine_stats=engine.stats(),
    )
