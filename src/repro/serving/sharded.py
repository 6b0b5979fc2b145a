"""The serving engine: stripe-range shard workers over shared memory.

Reads are answered against an array whose failed disk is being rebuilt,
byte-exactly and under a latency objective.  The serving plane is
sharded by **stripe range**: shard *i* owns stripes
``[bounds[i], bounds[i+1])`` of the array (its own declustered spindle
group under the simulated I/O model) and serves its slice of the global
open-loop trace in a dedicated worker process.  One shard is the
single-process case.  Shared state is:

* the pristine disk images and the rebuilt-row *patch map* in named
  shared memory (:class:`~repro.serving.shm.SharedServingState`);
* the rebuild **frontier** as per-shard control-queue notifications: the
  parent's rebuild loop writes a chunk's recovered rows into the patch
  map *first*, then tells each owning shard which stripes advanced (the
  queue's lock provides the cross-process happens-before, so a shard
  never serves a torn row);
* the degraded **plan map** as the persistent
  :class:`~repro.recovery.plancache.SchemePlanCache` store, warmed by the
  parent before forking so workers start search-free.

A shard drains every overdue request in one scoop and groups degraded
reads by ``(logical role, row)``.  All stripes where the failed physical
disk plays the same logical role share one rotation, hence one physical
mapping — so the whole group is gathered with vectorized indexing and
reconstructed in a single batched-XOR kernel call
(:meth:`~repro.codec.batch.BatchReconstructor.recover_batch_into`).  With
a :class:`~repro.faults.plan.FaultPlan`, degraded groups instead run
stripe by stripe through the
:class:`~repro.recovery.resilient.ResilientExecutor` ladder (retry →
substitute), so latent sector errors and silent corruption on surviving
disks do not break byte-exactness.

QoS: the parent steers rebuild admission with
:class:`~repro.serving.qos.RebuildThrottle` on the shared latency *board*
each shard publishes its p99 to, with a rate floor set by the parent's
own chunk timings.

Every degraded and patched answer is verified against the pristine bytes
in shared memory (the failed disk's true rows, never used as a recovery
source), so a correctness bug surfaces as a nonzero mismatch count in
the report rather than silently wrong bytes.  Failure anywhere is loud:
a dead or erroring worker raises ``RuntimeError`` in
:meth:`ShardedServingEngine.serve_trace`; there is no silent fallback to
fewer shards.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.codec.image import ArrayImageCodec
from repro.disksim.workload import Request
from repro.faults.plan import FaultPlan
from repro.faults.store import FaultyStripeStore
from repro.pipeline.engine import RebuildPipeline
from repro.pipeline.pool import PoolRebuildResult
from repro.placement.map import plan_read_loads
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.resilient import ResilientExecutor
from repro.recovery.scheme import RecoveryScheme
from repro.serving.frontend import partition_trace, shard_bounds, trace_arrays
from repro.serving.iomodel import NullIoModel, SimulatedDisksIoModel
from repro.serving.plans import CompiledPlanCache, DegradedPlanCache
from repro.serving.qos import RebuildThrottle, percentile
from repro.serving.shm import (
    BOARD_BACKLOG,
    BOARD_DEGRADED,
    BOARD_DIRECT,
    BOARD_MISMATCHES,
    BOARD_P50_MS,
    BOARD_P99_MS,
    BOARD_PATCHED,
    BOARD_SERVED,
    SharedServingState,
    ServingStateSpec,
)


def _mp_context():
    """Fork where available (cheap, and shard workers inherit the warmed
    plans); spawn elsewhere."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


#: resilient-executor read retries on the fault path
MAX_RETRIES = 1


def check_addresses(
    disks: np.ndarray, rows: np.ndarray, n_disks: int, row_lo: int, row_hi: int
) -> None:
    """Raise ``IndexError`` unless every ``disks[i]`` is in ``[0, n_disks)``
    and every ``rows[i]`` in ``[row_lo, row_hi)``."""
    if not len(rows):
        return
    bad_disk = (disks < 0) | (disks >= n_disks)
    if bad_disk.any():
        raise IndexError(f"disk {disks[bad_disk][0]} out of range")
    bad_row = (rows < row_lo) | (rows >= row_hi)
    if bad_row.any():
        raise IndexError(
            f"row {rows[bad_row][0]} out of range [{row_lo}, {row_hi})"
        )


class _StripeView:
    """Single-stripe adapter presenting one parent-store stripe as a
    one-stripe :class:`FaultyStripeStore` to the resilient executor."""

    def __init__(self, parent: FaultyStripeStore, stripe: int) -> None:
        self._parent = parent
        self._stripe = stripe
        self.layout = parent.layout
        self.stripes = [parent.stripes[stripe]]

    @property
    def n_stripes(self) -> int:
        return 1

    @property
    def total_read_attempts(self) -> int:
        return self._parent.total_read_attempts

    def read(self, stripe: int, eid: int) -> np.ndarray:
        return self._parent.read(self._stripe, eid)

    def checksum(self, stripe: int, eid: int) -> int:
        return self._parent.checksum(self._stripe, eid)


class ShardServer:
    """The in-process serving core of one shard (testable without mp).

    Owns stripes ``[stripe_lo, stripe_hi)``; serves direct, patched and
    batched degraded reads against numpy views (shared-memory or plain
    arrays — the code cannot tell), verifying every reconstructed or
    patched answer against the pristine image.  A non-empty
    ``fault_plan`` (logical disk/row/stripe coordinates) injects faults
    on the degraded path, which then runs through the resilient executor.
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        disks: np.ndarray,
        patched: np.ndarray,
        failed_disk: int,
        stripe_lo: int,
        stripe_hi: int,
        plans: Optional[DegradedPlanCache] = None,
        io: Optional[NullIoModel] = None,
        priority: bool = True,
        max_batch: int = 512,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        lay = codec.code.layout
        if not 0 <= failed_disk < lay.n_disks:
            raise IndexError(f"physical disk {failed_disk} out of range")
        # an empty range (lo == hi) is a legal idle shard: over-provisioned
        # shard counts must degrade to idle workers, not crashes
        if not 0 <= stripe_lo <= stripe_hi <= codec.n_stripes:
            raise ValueError(
                f"bad stripe range [{stripe_lo}, {stripe_hi}) for "
                f"{codec.n_stripes} stripes"
            )
        self.codec = codec
        self.disks = disks
        self.patched = patched
        self.failed_disk = failed_disk
        self.stripe_lo = stripe_lo
        self.stripe_hi = stripe_hi
        self.plans = plans or DegradedPlanCache(codec.code)
        self.compiled = CompiledPlanCache()
        self.io = io if io is not None else NullIoModel()
        self.priority = priority
        self.max_batch = max_batch
        self._k = lay.k_rows
        self._n = lay.n_disks
        self._rebuilt = np.zeros(codec.n_stripes, dtype=bool)
        self.fault_store: Optional[FaultyStripeStore] = None
        if fault_plan:
            self.fault_store = FaultyStripeStore(
                lay,
                [codec._logical_stripe(disks, s) for s in range(codec.n_stripes)],
                fault_plan,
            )
        self.n_direct = 0
        self.n_patched = 0
        self.n_degraded = 0
        self.n_batches = 0
        self.n_resilient = 0
        self.mismatches = 0

    # ------------------------------------------------------------------
    # frontier
    # ------------------------------------------------------------------
    def note_rebuilt(
        self, stripe_ids: np.ndarray, rebuild_per_disk: Optional[Dict[int, int]] = None
    ) -> None:
        """Advance the local frontier; charge the chunk's I/O to our spindles.

        Called when a frontier notification arrives: the patch-map rows
        for these stripes are already in shared memory (the sender wrote
        them before notifying).
        """
        self._rebuilt[stripe_ids] = True
        if rebuild_per_disk:
            self.io.reserve_background(rebuild_per_disk)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _serve_batch(
        self, disks: np.ndarray, rows: np.ndarray, want_data: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Serve one drained batch; returns per-request completion times.

        Groups: direct reads charge their disks in one parallel fan-out;
        patched reads hit the replacement spindle; degraded reads group
        by (logical role, row) — one rotation, one vectorized gather, one
        batched-XOR kernel call per group.
        """
        m = len(rows)
        completions = np.empty(m, dtype=np.float64)
        data = (
            np.empty((m, self.codec.element_size), dtype=np.uint8)
            if want_data
            else None
        )
        k = self._k
        direct_idx: List[int] = []
        patched_idx: List[int] = []
        degraded: Dict[Tuple[int, int], List[int]] = {}
        for t in range(m):
            if disks[t] != self.failed_disk:
                direct_idx.append(t)
            else:
                s, r = divmod(int(rows[t]), k)
                if self._rebuilt[s]:
                    patched_idx.append(t)
                else:
                    role = self.codec.logical_role(self.failed_disk, s)
                    degraded.setdefault((role, r), []).append(t)

        if direct_idx:
            per_disk: Dict[int, int] = {}
            for t in direct_idx:
                per_disk[int(disks[t])] = per_disk.get(int(disks[t]), 0) + 1
            self.io.read_elements(per_disk, priority=self.priority)
            done = time.monotonic()
            for t in direct_idx:
                completions[t] = done
                if want_data:
                    data[t] = self.disks[disks[t], rows[t]]
            self.n_direct += len(direct_idx)

        if patched_idx:
            self.io.read_elements(
                {self.failed_disk: len(patched_idx)}, priority=self.priority
            )
            done = time.monotonic()
            p_rows = rows[patched_idx]
            served_rows = self.patched[p_rows]
            self.mismatches += int(
                np.any(served_rows != self.disks[self.failed_disk, p_rows], axis=1)
                .sum()
            )
            for t in patched_idx:
                completions[t] = done
                if want_data:
                    data[t] = self.patched[rows[t]]
            self.n_patched += len(patched_idx)

        lay = self.codec.code.layout
        esz = self.codec.element_size
        for (role, r), idxs in degraded.items():
            plan = self.plans.plan_for_element(role, r)
            stripes = rows[idxs] // k
            base = stripes * k
            rot = (self.failed_disk - role) % self._n
            per_disk = {}
            for ldisk, load in enumerate(plan.loads):
                if load:
                    per_disk[(ldisk + rot) % self._n] = load * len(idxs)
            self.io.read_elements(per_disk, priority=self.priority)
            if self.fault_store is not None:
                answer = self._recover_resilient(plan, stripes, lay.eid(role, r))
            else:
                batch = np.zeros((len(idxs), lay.n_elements, esz), dtype=np.uint8)
                for ldisk, lrow in lay.iter_elements(plan.read_mask):
                    phys = (ldisk + rot) % self._n
                    batch[:, lay.eid(ldisk, lrow), :] = self.disks[phys, base + lrow]
                out = np.empty(
                    (len(idxs), len(plan.failed_eids), esz), dtype=np.uint8
                )
                self.compiled.reconstructor(plan).recover_batch_into(batch, out)
                answer = out[:, plan.failed_eids.index(lay.eid(role, r)), :]
            done = time.monotonic()
            self.mismatches += int(
                np.any(answer != self.disks[self.failed_disk, base + r], axis=1)
                .sum()
            )
            for pos, t in enumerate(idxs):
                completions[t] = done
                if want_data:
                    data[t] = answer[pos]
            self.n_degraded += len(idxs)
        self.n_batches += 1
        return completions, data

    def _check_addresses(self, disks: np.ndarray, rows: np.ndarray) -> None:
        check_addresses(
            disks, rows, self._n, self.stripe_lo * self._k, self.stripe_hi * self._k
        )

    def _recover_resilient(
        self, plan: RecoveryScheme, stripes: np.ndarray, eid: int
    ) -> np.ndarray:
        """Element ``eid`` of each stripe through the resilient executor
        (one run per distinct stripe)."""
        planner = self.plans.planner
        answer = np.empty((len(stripes), self.codec.element_size), dtype=np.uint8)
        done: Dict[int, np.ndarray] = {}
        for pos, s in enumerate(stripes.tolist()):
            if s not in done:
                executor = ResilientExecutor(
                    self.codec.code,
                    plan,
                    _StripeView(self.fault_store, s),
                    max_retries=MAX_RETRIES,
                    algorithm=planner.algorithm,
                    depth=max(planner.depth, 2),
                )
                done[s] = executor.run().recovered[0][eid]
                self.n_resilient += 1
            answer[pos] = done[s]
        return answer

    def read(self, disk: int, row: int) -> np.ndarray:
        """Serve one request (test/CLI convenience; the trace loop batches)."""
        disks, rows = np.asarray([disk]), np.asarray([row])
        self._check_addresses(disks, rows)
        _, data = self._serve_batch(disks, rows, want_data=True)
        return data[0].copy()

    # ------------------------------------------------------------------
    def _drain_ctrl(self, ctrl, timeout_s: float) -> None:
        """Apply pending frontier notifications; waits at most ``timeout_s``."""
        if ctrl is None:
            if timeout_s > 0:
                time.sleep(timeout_s)
            return
        deadline = time.monotonic() + timeout_s
        block = timeout_s > 0
        while True:
            try:
                if block:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    msg = ctrl.get(timeout=remaining)
                else:
                    msg = ctrl.get_nowait()
            except queue_mod.Empty:
                return
            if msg[0] == "frontier":
                self.note_rebuilt(msg[1], msg[2])

    def _publish(self, board: Optional[np.ndarray], lat: np.ndarray,
                 served: int, backlog: int) -> None:
        if board is None:
            return
        recent = lat[max(0, served - 512):served].tolist()
        board[BOARD_SERVED] = served
        board[BOARD_P50_MS] = percentile(recent, 0.5) * 1e3
        board[BOARD_P99_MS] = percentile(recent, 0.99) * 1e3
        board[BOARD_BACKLOG] = backlog
        board[BOARD_DEGRADED] = self.n_degraded
        board[BOARD_DIRECT] = self.n_direct
        board[BOARD_PATCHED] = self.n_patched
        board[BOARD_MISMATCHES] = self.mismatches

    def serve_trace(
        self,
        arrival_s: np.ndarray,
        disks: np.ndarray,
        rows: np.ndarray,
        t_start: float,
        ctrl=None,
        board: Optional[np.ndarray] = None,
        publish_interval_s: float = 0.2,
    ) -> Dict[str, object]:
        """Replay this shard's sub-trace open-loop; returns the result dict.

        The loop sleeps until the next scheduled arrival (draining
        frontier notifications while idle), then scoops *every* overdue
        request into one batch — under backlog the batch grows, the
        grouped reconstruction amortizes, and the shard catches up.
        """
        self._check_addresses(disks, rows)
        n = len(arrival_s)
        lat = np.empty(n, dtype=np.float64)
        served = 0
        i = 0
        last_pub = 0.0
        while i < n:
            now = time.monotonic()
            sched = t_start + arrival_s[i]
            if now < sched:
                self._drain_ctrl(ctrl, sched - now)
                now = time.monotonic()
                if now < sched:
                    time.sleep(sched - now)
                    now = time.monotonic()
            else:
                self._drain_ctrl(ctrl, 0.0)
            j = i
            while j < n and t_start + arrival_s[j] <= now and j - i < self.max_batch:
                j += 1
            completions, _ = self._serve_batch(disks[i:j], rows[i:j])
            lat[served:served + (j - i)] = completions - (
                t_start + arrival_s[i:j]
            )
            served += j - i
            i = j
            now = time.monotonic()
            if now - last_pub >= publish_interval_s:
                self._publish(board, lat, served, n - i)
                last_pub = now
        t_end = time.monotonic()
        self._publish(board, lat, served, 0)
        obs.count("serving.reads", served)
        obs.count("serving.degraded", self.n_degraded)
        obs.count("serving.direct", self.n_direct)
        obs.count("serving.patched", self.n_patched)
        obs.count("serving.batches", self.n_batches)
        obs.count("serving.resilient", self.n_resilient)
        samples = lat[:served]
        return {
            "served": served,
            "mismatches": self.mismatches,
            "direct": self.n_direct,
            "patched": self.n_patched,
            "degraded": self.n_degraded,
            "batches": self.n_batches,
            "resilient": self.n_resilient,
            "duration_s": max(t_end - t_start, 1e-9),
            "latencies": samples,
            "p50_ms": percentile(samples.tolist(), 0.5) * 1e3,
            "p99_ms": percentile(samples.tolist(), 0.99) * 1e3,
            "plans_resident": len(self.plans),
        }


def _shard_main(
    spec: ServingStateSpec,
    shard_id: int,
    codec: ArrayImageCodec,
    failed_disk: int,
    stripe_lo: int,
    stripe_hi: int,
    trace: Tuple[np.ndarray, np.ndarray, np.ndarray],
    t_start: float,
    ctrl,
    results,
    cfg: Dict[str, object],
) -> None:
    """Worker process entry: attach shared state, serve the sub-trace."""
    state = None
    try:
        state = SharedServingState.attach(spec)
        rec = obs.enable(f"shard{shard_id}") if cfg.get("obs") else None
        erm = cfg.get("element_read_ms")
        io: NullIoModel
        if erm is not None:
            io = SimulatedDisksIoModel(
                codec.code.layout.n_disks,
                element_read_ms=float(erm),
                priority_grace_ms=float(cfg.get("priority_grace_ms", 1.0)),
            )
        else:
            io = NullIoModel()
        plans = cfg.get("plans")
        if plans is None:
            store_path = cfg.get("store_path")
            store = SchemePlanCache(store_path) if store_path else None
            plans = DegradedPlanCache(
                codec.code,
                algorithm=str(cfg.get("algorithm", "u")),
                depth=int(cfg.get("depth", 1)),
                store=store,
            )
        server = ShardServer(
            codec,
            state.disks,
            state.patched,
            failed_disk,
            stripe_lo,
            stripe_hi,
            plans=plans,
            io=io,
            priority=bool(cfg.get("priority", True)),
            fault_plan=cfg.get("fault_plan"),
        )
        arr, d, r = trace
        res = server.serve_trace(
            arr, d, r, t_start, ctrl=ctrl, board=state.board[shard_id]
        )
        if plans.store is not None:
            plans.store.save()
        res["shard"] = shard_id
        if rec is not None:
            res["obs"] = rec.snapshot()
        results.put(("ok", shard_id, res))
    except BaseException:
        results.put(("error", shard_id, traceback.format_exc()))
    finally:
        if state is not None:
            try:
                state.close()
            except Exception:
                pass


@dataclass
class ShardedReport:
    """Aggregated outcome of one sharded open-loop serving run."""

    requested_shards: int
    n_shards: int               #: workers that actually reported back
    served: int
    mismatches: int
    errors: List[str]
    p50_ms: float
    p99_ms: float
    mean_ms: float
    duration_s: float           #: slowest shard's replay wall time
    offered_rate_rps: float
    throughput_rps: float
    rebuild_wall_s: Optional[float]
    per_shard: List[Dict[str, object]] = field(default_factory=list)
    throttle: Dict[str, float] = field(default_factory=dict)
    #: rebuilt image == the failed disk's pristine bytes (None: no rebuild)
    rebuild_byte_exact: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return (
            self.mismatches == 0
            and not self.errors
            and self.n_shards == self.requested_shards
            and self.rebuild_byte_exact is not False
        )


class ShardedServingEngine:
    """Parent orchestrator: shared state + shard workers + inline rebuild.

    ``n_shards`` must be >= 1 (counts beyond ``n_stripes`` leave the
    surplus shards idle with empty stripe ranges), and a worker that dies
    raises ``RuntimeError`` from :meth:`serve_trace` (no silent
    degradation).  ``target_p99_ms`` turns on the board throttle
    (:class:`~repro.serving.qos.RebuildThrottle`); without it the rebuild
    runs at the fixed ``rebuild_rate`` chunks/s (``None``: uncapped).
    ``priority`` gives reads preempting I/O priority over rebuild chunks.
    ``fault_plan`` injects faults on every shard's degraded path, served
    through the resilient executor.  ``element_read_ms=None`` disables
    the simulated I/O model (memory speed; correctness tests).  Each
    shard gets its *own* simulated spindle group, which is the
    declustered-placement reading of the paper's scale-out story:
    aggregate service capacity grows with the shard count while any
    single shard still bounds its own queueing.
    ``placement`` (a :class:`~repro.placement.PlacementMap` over the same
    stripe count) aligns the shard bounds to placement-group boundaries,
    so one shard maps onto whole placement groups and never splits one.
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        disks: np.ndarray,
        failed_disk: int,
        n_shards: int,
        *,
        element_read_ms: Optional[float] = None,
        priority_grace_ms: float = 1.0,
        algorithm: str = "u",
        depth: int = 1,
        store_path=None,
        target_p99_ms: Optional[float] = None,
        rebuild_rate: Optional[float] = None,
        rebuild_chunk_stripes: int = 16,
        priority: bool = True,
        placement=None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        lay = codec.code.layout
        if not 0 <= failed_disk < lay.n_disks:
            raise IndexError(f"physical disk {failed_disk} out of range")
        expect = (lay.n_disks, codec.n_stripes * lay.k_rows, codec.element_size)
        if disks.shape != expect:
            raise ValueError(f"disks shape {disks.shape} != {expect}")
        self.codec = codec
        self.disks = disks
        self.failed_disk = failed_disk
        self.n_shards = n_shards
        self.placement = placement
        if placement is not None:
            if placement.n_stripes != codec.n_stripes:
                raise ValueError(
                    f"placement covers {placement.n_stripes} stripes, "
                    f"array has {codec.n_stripes}"
                )
            self.bounds = placement.shard_bounds(n_shards)
        else:
            self.bounds = shard_bounds(codec.n_stripes, n_shards)
        self.element_read_ms = element_read_ms
        self.priority_grace_ms = priority_grace_ms
        self.algorithm = algorithm
        self.depth = depth
        self.store_path = store_path
        self.target_p99_ms = target_p99_ms
        self.rebuild_rate = rebuild_rate
        self.rebuild_chunk_stripes = rebuild_chunk_stripes
        self.priority = priority
        self.fault_plan = fault_plan
        store = SchemePlanCache(store_path) if store_path else None
        self.planner = RecoveryPlanner(
            codec.code, algorithm=algorithm, depth=depth, plan_cache=store
        )
        self.plans = DegradedPlanCache(
            codec.code, planner=self.planner, store=store
        )
        self._k = lay.k_rows

    # ------------------------------------------------------------------
    def warm_plans(self) -> int:
        """Precompute every degraded plan any shard can need (pre-fork)."""
        roles = sorted(
            {
                self.codec.logical_role(self.failed_disk, s)
                for s in range(self.codec.n_stripes)
            }
        )
        count = self.plans.warm(roles)
        if self.plans.store is not None:
            self.plans.store.save()
        return count

    def serve_trace(
        self,
        requests: Sequence[Request],
        timeout_s: float = 600.0,
        startup_grace_s: float = 0.75,
        rebuild: bool = True,
    ) -> ShardedReport:
        """Run the full sharded experiment over one trace.

        Forks one worker per shard, replays the partitioned trace
        open-loop, runs the rebuild inline in a parent thread (patching
        shared memory and notifying shard frontiers), and merges the
        per-shard reports — including each worker's obs snapshot when
        recording is enabled in the parent.
        """
        arr, dks, rws = trace_arrays(requests)
        check_addresses(
            dks, rws, self.codec.code.layout.n_disks, 0,
            self.codec.n_stripes * self._k,
        )
        parts = partition_trace(
            rws, self._k, self.codec.n_stripes, self.n_shards,
            bounds=self.bounds,
        )
        lay = self.codec.code.layout
        warmed_plans = None
        ctx = _mp_context()
        if ctx.get_start_method() == "fork":
            self.warm_plans()
            warmed_plans = self.plans
        elif self.store_path:
            self.warm_plans()

        state = SharedServingState(
            lay.n_disks,
            self.codec.n_stripes * self._k,
            self.codec.element_size,
            self.n_shards,
        )
        errors: List[str] = []
        results_by_shard: Dict[int, Dict[str, object]] = {}
        throttle_stats: Dict[str, float] = {}
        throttle = RebuildThrottle(
            state.board,
            target_p99_ms=self.target_p99_ms,
            rate=self.rebuild_rate,
        )
        rebuild_result: List[Optional[PoolRebuildResult]] = [None]
        rebuild_error: List[Optional[BaseException]] = [None]
        rebuild_wall: List[Optional[float]] = [None]
        procs = []
        try:
            state.disks[:] = self.disks
            ctrls = [ctx.Queue() for _ in range(self.n_shards)]
            results_q = ctx.Queue()
            cfg = {
                "element_read_ms": self.element_read_ms,
                "priority_grace_ms": self.priority_grace_ms,
                "algorithm": self.algorithm,
                "depth": self.depth,
                "store_path": self.store_path,
                "priority": self.priority,
                "obs": obs.enabled(),
                "plans": warmed_plans,
                "fault_plan": self.fault_plan,
            }
            t_start = time.monotonic() + startup_grace_s + 0.1 * self.n_shards
            for i in range(self.n_shards):
                idx = parts[i]
                proc = ctx.Process(
                    target=_shard_main,
                    args=(
                        state.spec,
                        i,
                        self.codec,
                        self.failed_disk,
                        int(self.bounds[i]),
                        int(self.bounds[i + 1]),
                        (arr[idx], dks[idx], rws[idx]),
                        t_start,
                        ctrls[i],
                        results_q,
                        cfg,
                    ),
                    name=f"serve-shard-{i}",
                    daemon=True,
                )
                proc.start()
                procs.append(proc)

            rebuild_thread = None
            if rebuild:
                rebuild_thread = threading.Thread(
                    target=self._run_rebuild,
                    args=(state, ctrls, throttle, t_start,
                          rebuild_result, rebuild_error, rebuild_wall),
                    name="sharded-rebuild",
                    daemon=True,
                )
                rebuild_thread.start()

            deadline = time.monotonic() + timeout_s
            pending = set(range(self.n_shards))
            while pending and time.monotonic() < deadline:
                try:
                    status, shard_id, payload = results_q.get(timeout=1.0)
                except queue_mod.Empty:
                    if any(not p.is_alive() for i, p in enumerate(procs)
                           if i in pending):
                        # a pending worker died without reporting
                        break
                    continue
                pending.discard(shard_id)
                if status == "ok":
                    results_by_shard[shard_id] = payload
                else:
                    errors.append(f"shard {shard_id} failed:\n{payload}")
            for shard_id in sorted(pending):
                if shard_id not in results_by_shard:
                    errors.append(
                        f"shard {shard_id} produced no result "
                        f"(alive={procs[shard_id].is_alive()})"
                    )
            for p in procs:
                p.join(timeout=10.0)
            if rebuild_thread is not None:
                rebuild_thread.join(timeout=timeout_s)
                if rebuild_error[0] is not None:
                    errors.append(f"rebuild failed: {rebuild_error[0]!r}")
            # snapshot before the board's shared memory is unmapped
            throttle_stats = throttle.stats()
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            state.close()

        if errors:
            raise RuntimeError(
                f"sharded serving run failed ({self.n_shards} shards): "
                + "; ".join(errors)
            )

        rec = obs.get_recorder()
        per_shard: List[Dict[str, object]] = []
        all_lat: List[np.ndarray] = []
        duration = 0.0
        for i in range(self.n_shards):
            res = results_by_shard[i]
            all_lat.append(np.asarray(res.pop("latencies")))
            snap = res.pop("obs", None)
            if rec is not None and snap is not None:
                rec.merge_snapshot(snap)
            per_shard.append(res)
            duration = max(duration, float(res["duration_s"]))
        lat = np.concatenate(all_lat) if all_lat else np.empty(0)
        span = float(arr[-1] - arr[0]) if len(arr) > 1 else 0.0
        served = int(sum(r["served"] for r in per_shard))
        result = rebuild_result[0]
        return ShardedReport(
            requested_shards=self.n_shards,
            n_shards=len(results_by_shard),
            served=served,
            mismatches=int(sum(r["mismatches"] for r in per_shard)),
            errors=errors,
            p50_ms=percentile(lat.tolist(), 0.5) * 1e3,
            p99_ms=percentile(lat.tolist(), 0.99) * 1e3,
            mean_ms=float(lat.mean() * 1e3) if len(lat) else 0.0,
            duration_s=duration,
            offered_rate_rps=(len(arr) / span) if span > 0 else float("inf"),
            throughput_rps=served / duration if duration > 0 else 0.0,
            rebuild_wall_s=rebuild_wall[0],
            per_shard=per_shard,
            throttle=throttle_stats,
            rebuild_byte_exact=None if result is None else result.ok,
        )

    # ------------------------------------------------------------------
    def _run_rebuild(
        self,
        state: SharedServingState,
        ctrls,
        throttle: RebuildThrottle,
        t_start: float,
        out_result,
        out_error,
        out_wall,
    ) -> None:
        """Inline rebuild: recover chunks, patch shared memory, notify shards."""
        k = self._k
        esz = self.codec.element_size
        erm = self.element_read_ms

        def _throttle(chunk) -> None:
            throttle.before_chunk()
            if erm is not None:
                # the chunk's own disk service time: survivor reads fan
                # out across spindles, so the chunk takes as long as its
                # busiest disk
                scheme = self.planner.scheme_for_disk(chunk.role)
                busiest = max(scheme.loads) * chunk.n_stripes
                time.sleep(busiest * erm * 1e-3)

        def _on_chunk(chunk, rows: np.ndarray) -> None:
            loads = self.planner.scheme_for_disk(chunk.role).loads
            row_idx = (
                chunk.stripe_ids[:, None] * k + np.arange(k, dtype=np.int64)
            ).reshape(-1)
            state.patched[row_idx] = rows.reshape(-1, esz)
            # rows are in shared memory now; the queue put below is the
            # publication point each owning shard synchronizes on
            shard_of = np.searchsorted(self.bounds, chunk.stripe_ids,
                                       side="right") - 1
            for shard in np.unique(shard_of):
                ids = chunk.stripe_ids[shard_of == shard]
                reads = plan_read_loads(
                    [(chunk.role, ids, loads)], pipe.placement, self.failed_disk
                )
                per_disk = {int(d): int(reads[d]) for d in np.flatnonzero(reads)}
                ctrls[int(shard)].put(("frontier", ids, per_disk))
            throttle.after_chunk()

        pipe = RebuildPipeline(
            self.codec,
            chunk_stripes=self.rebuild_chunk_stripes,
            planner=self.planner,
            throttle=_throttle,
            on_chunk=_on_chunk,
        )
        wait = t_start - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        t0 = time.monotonic()
        try:
            out_result[0] = pipe.rebuild(self.disks, self.failed_disk)
        except BaseException as exc:  # reported by serve_trace
            out_error[0] = exc
        finally:
            out_wall[0] = time.monotonic() - t0
