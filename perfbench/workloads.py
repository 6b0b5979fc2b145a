"""The four benchmark workloads, one fresh-process repetition each.

Every workload function takes its size parameters, a repetition seed and
a :class:`Rep` context, and returns a :class:`Outcome`.  It calls
``rep.start_timing()`` when set-up ends (everything before counts as
``setup_s``), times only the user path, and checks every output outside
the timed region.  Calls into ``repro`` go through module attributes so
that a traced repetition's wrappers (see ``ledger.py``) see them.

Why these four workloads, and which layers each one stresses or
bypasses, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.codec as codec_mod
import repro.codes as codes_mod
import repro.disksim.recovery_sim as disksim_mod
import repro.disksim.workload as workload_mod
import repro.fleet as fleet_mod
import repro.placement as placement_mod
import repro.recovery as recovery_mod
import repro.serving as serving_mod
import repro.topology as topology_mod
from repro.pipeline.pool import PoolRebuild

MIB = float(2**20)

#: workload sizes: the measured ("full") run and the self-test ("smoke") run
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "pool_rebuild": {
        "full": {"pool_disks": 120, "stripes": 2000, "element_size": 4096,
                 "dead_disks": list(range(0, 120, 2))},
        "smoke": {"pool_disks": 30, "stripes": 120, "element_size": 512,
                  "dead_disks": [0, 7, 13]},
    },
    "serve_degraded": {
        "full": {"stripes": 512, "element_size": 4096, "shards": 2,
                 "ref_rate": 4000.0, "ref_requests": 10000,
                 "rebuild_rate": 16.0, "cap_rate": 300000.0,
                 "cap_requests": 40000},
        "smoke": {"stripes": 48, "element_size": 256, "shards": 2,
                  "ref_rate": 2000.0, "ref_requests": 1000,
                  "rebuild_rate": 20.0, "cap_rate": 100000.0,
                  "cap_requests": 4000},
    },
    "plan_cold": {
        "full": {"fig4_families": ["rdp", "evenodd", "liberation"],
                 "fig4_disks": list(range(7, 13)),
                 "depth2": [["rdp", 8], ["evenodd", 9], ["rdp", 10],
                            ["evenodd", 10]],
                 "exhausting": [["mdr", 6, "u", 1, 20000],
                                ["rdp", 12, "c", 2, 1000]],
                 "stacks": 20},
        "smoke": {"fig4_families": ["rdp"], "fig4_disks": [7, 8],
                  "depth2": [["rdp", 8]],
                  "exhausting": [["mdr", 6, "u", 1, 500]],
                  "stacks": 4},
    },
    "fleet_durability": {
        "full": {"pool_disks": 128, "stripes": 2048, "trials": 1000,
                 "topology": "8x2x8", "check_trials": 16},
        "smoke": {"pool_disks": 128, "stripes": 256, "trials": 40,
                  "topology": "8x2x8", "check_trials": 4},
    },
}

#: the fleet path's four flat/declustered x naive/U arms plus the
#: topology arm, as ``fleet --topology`` runs them
FLEET_ARMS = [("flat", "naive"), ("flat", "u"), ("declustered", "naive"),
              ("declustered", "u"), ("rack_aware", "u")]


class Rep:
    """Per-repetition context: set-up clock, optional ledger, corruption."""

    def __init__(self, t_spawn: float, ledger=None,
                 corrupt: Optional[str] = None) -> None:
        self.t_spawn = t_spawn          #: ``time.time()`` when spawned
        self.ledger = ledger
        self.corrupt = corrupt
        self.setup_s: Optional[float] = None

    def start_timing(self) -> None:
        if self.setup_s is None:
            self.setup_s = time.time() - self.t_spawn

    def phase(self, name: str):
        return self.ledger.phase(name) if self.ledger else nullcontext()


@dataclass
class Outcome:
    """What one repetition measured and checked."""

    run_s: float                   #: wall time of the timed user path
    work: float                    #: the workload's work items done ...
    work_s: float                  #: ... in this many timed seconds
    op_ms: List[float]             #: latency of each unit operation
    max_disk_reads: int            #: reads on the busiest disk (summed)
    total_reads: int               #: element reads in total
    named: Dict[str, float]        #: the workload's own headline metrics
    #: the timed region is one process computing, so its speed follows the
    #: host probe (``rep.host_scale``); False for paced multi-process replay
    single_process: bool = True
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    layer_extras: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _timed(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ----------------------------------------------------------------------
# pool_rebuild
# ----------------------------------------------------------------------
def pool_rebuild(p: Dict[str, Any], seed: int, rep: Rep) -> Outcome:
    code = codes_mod.make_code("rdp", 7)
    width = code.layout.n_disks
    placement = placement_mod.make_placement(
        "declustered", p["pool_disks"], p["stripes"], width, seed=0
    )
    store = placement_mod.PoolStore(code, placement,
                                    element_size=p["element_size"])
    engine = PoolRebuild(store, algorithm="u", depth=1)
    for role in range(width):           # warm plans: one search per role
        engine.planner.scheme_for_disk(role)
    rng = np.random.default_rng(seed)

    rep.start_timing()
    _, encode_s = _timed(store.encode_random, rng)
    results = []
    walls = []
    for disk in p["dead_disks"]:
        res, wall = _timed(engine.rebuild, disk)
        results.append(res)
        walls.append(wall)
    rebuild_s = sum(walls)

    k = code.layout.k_rows
    rebuilt = sum(r.rows.nbytes for r in results)
    out = Outcome(
        run_s=encode_s + rebuild_s,
        work=rebuilt / MIB,
        work_s=rebuild_s,
        op_ms=[w * 1e3 for w in walls],
        max_disk_reads=sum(int(r.reads_per_disk.max()) for r in results),
        total_reads=sum(int(r.reads_per_disk.sum()) for r in results),
        named={
            "encode_mb_s": store.n_stripes * store.codec.n_data_elements
            * store.element_size / MIB / encode_s,
            "rebuild_mb_s": rebuilt / MIB / rebuild_s,
        },
    )
    with rep.phase("bench.verify"):
        if rep.corrupt == "rebuild":
            results[0].rows[0, 0, 0] ^= 0xFF
        for disk, res in zip(p["dead_disks"], results):
            # ground truth straight from the placement table: role l of
            # stripe s sits in slot (l + s) % width
            stripes, slots = np.nonzero(placement.table == disk)
            roles = (slots - stripes) % width
            rows = np.arange(k)[None, :] + (roles * k)[:, None]
            truth = store.stripes[stripes[:, None], rows]
            out.check(
                res.mismatches == 0
                and np.array_equal(res.stripe_ids, stripes)
                and np.array_equal(res.rows, truth),
                f"pool disk {disk}: rebuilt rows differ from the store",
            )
            out.check(
                np.array_equal(res.reads_per_disk, engine.read_loads(disk)),
                f"pool disk {disk}: executed reads != PoolRebuild.read_loads",
            )
    return out


# ----------------------------------------------------------------------
# serve_degraded
# ----------------------------------------------------------------------
def hotspot_trace(n_disks: int, total_rows: int, failed_disk: int,
                  count: int, rate: float, seed: int) -> list:
    """``serve``'s hotspot trace: 80% of Poisson reads on the failed disk.

    Generates 10% more time than ``count`` reads need and keeps the first
    ``count``, where ``build_workload_requests`` regenerates at twice the
    length whenever the Poisson draw comes up short, which made set-up
    time depend on the seed.
    """
    gen = workload_mod.HotspotWorkload(
        rate_per_s=rate, n_disks=n_disks, k_rows=total_rows,
        hot_disks=(failed_disk,), hot_fraction=0.8, seed=seed,
    )
    reqs = gen.generate(1.1 * count / rate)
    if len(reqs) < count:
        raise RuntimeError(f"hotspot trace drew {len(reqs)} < {count} reads")
    return reqs[:count]


def serve_degraded(p: Dict[str, Any], seed: int, rep: Rep) -> Outcome:
    failed_disk = 0
    code = codes_mod.make_code("rdp", 7)
    lay = code.layout
    codec = codec_mod.ArrayImageCodec(
        code, element_size=p["element_size"], n_stripes=p["stripes"]
    )
    rng = np.random.default_rng(seed)
    disks = codec.encode_image(codec.random_image(rng))
    if rep.corrupt == "serve":
        # silent corruption of one survivor: every degraded or patched
        # read that uses it must come back wrong and be caught
        disks[1] ^= 0x5A
    engine = serving_mod.ShardedServingEngine(
        codec, disks, failed_disk, p["shards"],
        element_read_ms=None, algorithm="u", depth=1,
        target_p99_ms=None, rebuild_rate=p["rebuild_rate"],
        rebuild_chunk_stripes=16,
    )
    engine.warm_plans()
    total_rows = codec.n_stripes * lay.k_rows
    ref_trace = hotspot_trace(lay.n_disks, total_rows, failed_disk,
                              p["ref_requests"], p["ref_rate"], seed)
    cap_trace = hotspot_trace(lay.n_disks, total_rows, failed_disk,
                              p["cap_requests"], p["cap_rate"], seed + 1)

    rep.start_timing()
    try:
        ref, ref_s = _timed(engine.serve_trace, ref_trace)
        cap, cap_s = _timed(engine.serve_trace, cap_trace, rebuild=False)
    except RuntimeError as exc:
        # a dead shard, a failed rebuild: no report to score
        out = Outcome(0.0, 0.0, 0.0, [], 0, 0, {})
        out.check(False, f"serving run failed: {exc}")
        return out

    # the rebuild's planned reads: every stripe's scheme for the role the
    # failed disk plays there, billed to physical disks by rotation
    reads = np.zeros(lay.n_disks, dtype=np.int64)
    for s in range(codec.n_stripes):
        role = codec.logical_role(failed_disk, s)
        for logical, load in enumerate(
                engine.planner.scheme_for_disk(role).loads):
            reads[codec.physical_disk(logical, s)] += load
    span = ref_trace[-1].arrival_s - ref_trace[0].arrival_s
    durations = [float(s["duration_s"]) for s in ref.per_shard]
    out = Outcome(
        run_s=ref_s + cap_s,
        work=float(cap.served),
        work_s=cap.duration_s,
        op_ms=[ref.p50_ms],
        max_disk_reads=int(reads.max()),
        total_reads=int(reads.sum()),
        single_process=False,
        named={
            "read_p50_ms": ref.p50_ms,
            "read_p99_ms": ref.p99_ms,
            "read_samples": float(ref.served),
            "max_rate_rps": cap.throughput_rps,
        },
        layer_extras={
            "serving.setup_s": ref_s - ref.duration_s,
            "serving.shard_skew": max(durations) / min(durations),
            "serving.replay_overrun_s": ref.duration_s - span,
            "serving.read_p99_ms": ref.p99_ms,
        },
    )
    for name, report, n in (("reference", ref, len(ref_trace)),
                            ("capacity", cap, len(cap_trace))):
        out.check(report.ok and report.served == n,
                  f"{name} replay: ok={report.ok} served={report.served}/{n} "
                  f"mismatches={report.mismatches} "
                  f"shards={report.n_shards}/{report.requested_shards}")
    return out


# ----------------------------------------------------------------------
# plan_cold
# ----------------------------------------------------------------------
def plan_grid(p: Dict[str, Any]) -> List[tuple]:
    """``(family, disks, algorithm, depth, budget, simulate)`` points."""
    grid = [(fam, n, alg, 1, 2_000_000, True)
            for fam in p["fig4_families"] for n in p["fig4_disks"]
            for alg in ("khan", "c", "u")]
    grid += [(fam, n, alg, 2, 2_000_000, False)
             for fam, n in p["depth2"] for alg in ("c", "u")]
    grid += [(fam, n, alg, depth, budget, False)
             for fam, n, alg, depth, budget in p["exhausting"]]
    return grid


def plan_cold(p: Dict[str, Any], seed: int, rep: Rep) -> Outcome:
    grid = plan_grid(p)
    codes = {}
    for fam, n, *_ in grid:
        if (fam, n) not in codes:
            codes[(fam, n)] = codes_mod.make_code(fam, n)

    rep.start_timing()
    op_s: List[float] = []
    sim_s = 0.0
    planned = []
    for fam, n, alg, depth, budget, simulate in grid:
        code = codes[(fam, n)]
        planner = recovery_mod.RecoveryPlanner(
            code, algorithm=alg, depth=depth, max_expansions=budget
        )
        schemes = []
        for disk in code.layout.data_disks:
            scheme, wall = _timed(planner.scheme_for_disk, disk)
            schemes.append(scheme)
            op_s.append(wall)
        if simulate:
            _, wall = _timed(disksim_mod.simulate_stack_recovery, code,
                             schemes, stacks=p["stacks"])
            sim_s += wall
        planned.append((code, schemes))
    plan_s = sum(op_s)

    n_schemes = len(op_s)
    out = Outcome(
        run_s=plan_s + sim_s,
        work=float(n_schemes),
        work_s=plan_s,
        op_ms=[w * 1e3 for w in op_s],
        max_disk_reads=sum(s.max_load for _, ss in planned for s in ss),
        total_reads=sum(s.total_reads for _, ss in planned for s in ss),
        named={"plan_s": plan_s, "schemes": float(n_schemes)},
    )
    with rep.phase("bench.verify"):
        for i, (code, schemes) in enumerate(planned):
            for scheme in schemes:
                out.check(
                    codec_mod.verify_scheme_on_random_data(
                        code, scheme, seed=seed + i),
                    f"{code.name}: scheme {scheme.algorithm} for "
                    f"{scheme.failed_eids} fails its round trip",
                )
    return out


# ----------------------------------------------------------------------
# fleet_durability
# ----------------------------------------------------------------------
def fleet_durability(p: Dict[str, Any], seed: int, rep: Rep) -> Outcome:
    code = codes_mod.make_code("rdp", 8)
    width = code.layout.n_disks
    topo = topology_mod.Topology.parse(p["topology"])
    if topo.n_disks != p["pool_disks"]:
        raise ValueError(f"topology {p['topology']} has {topo.n_disks} disks, "
                         f"pool has {p['pool_disks']}")
    policy = fleet_mod.QosPolicy(name="bench", disk_bw_mb_s=200.0,
                                 rebuild_headroom=1.0, detect_hours=0.0,
                                 capacity_scale=1e6)
    placements = [
        placement_mod.make_placement(
            name, p["pool_disks"], p["stripes"], width, seed=0,
            topology=topo if name == "rack_aware" else None,
        )
        for name, _ in FLEET_ARMS
    ]
    sim = dict(policy=policy, element_size=4096, mission_hours=8760.0,
               disk_mttf_hours=2000.0, seed=seed)

    rep.start_timing()
    walls = []
    results = []
    for placement, (_, alg) in zip(placements, FLEET_ARMS):
        res, wall = _timed(fleet_mod.run_fleet, code, placement, algorithm=alg,
                           trials=p["trials"], **sim)
        results.append(res)
        walls.append(wall)
    disk_years = sum(r.disk_years for r in results)
    run_s = sum(walls)

    windows = [fleet_mod.price_repair_windows(code, pl, algorithm=alg,
                                              policy=policy, element_size=4096)
               for pl, (_, alg) in zip(placements, FLEET_ARMS)]
    out = Outcome(
        run_s=run_s,
        work=disk_years,
        work_s=run_s,
        op_ms=[w * 1e3 for w in walls],
        max_disk_reads=sum(int(w.meta["max_bottleneck_reads"])
                           for w in windows),
        # rebuilding every pool disk once rebuilds every role of every
        # stripe once: n_stripes x the per-stripe reads of all role schemes
        total_reads=sum(p["stripes"] * int(w.meta["scheme_total_reads"])
                        for w in windows),
        named={"disk_years_per_s": disk_years / run_s,
               "losses": float(sum(r.losses for r in results))},
    )
    with rep.phase("bench.verify"):
        for placement, (name, alg) in zip(placements, FLEET_ARMS):
            vec, scal = (
                fleet_mod.run_fleet(code, placement, algorithm=alg,
                                    trials=p["check_trials"], engine=engine,
                                    **sim)
                for engine in ("vector", "scalar")
            )
            out.check(
                (vec.losses, vec.failures_total)
                == (scal.losses, scal.failures_total),
                f"{name}/{alg}: vector {vec.losses}/{vec.failures_total} != "
                f"scalar {scal.losses}/{scal.failures_total} losses/failures",
            )
    return out


WORKLOADS: Dict[str, Callable[[Dict[str, Any], int, Rep], Outcome]] = {
    "pool_rebuild": pool_rebuild,
    "serve_degraded": serve_degraded,
    "plan_cold": plan_cold,
    "fleet_durability": fleet_durability,
}

