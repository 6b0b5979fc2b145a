"""One benchmark repetition in a fresh process (started by ``run.py``).

Usage (``run.py`` supplies these; the source tree must be importable)::

    python3 perfbench/rep.py --workload pool_rebuild --seed 7 \\
        --t-spawn <time.time() at spawn> [--trace] [--scale smoke] \\
        [--corrupt rebuild|serve] [--spans-out FILE]

Prints one JSON object on its last stdout line: the repetition's set-up
time, wall time, peak RSS, the workload's measurements and checks and,
with ``--trace``, the per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (``ru_maxrss`` is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


#: the probe's times on the reference host (they only set the scale)
REF_PY_S = 0.007
REF_NP_S = 0.0015


def host_scale() -> dict:
    """How fast the host ran during this repetition, against the reference.

    Times a fixed Python loop and a fixed 8 MiB numpy XOR, best of 7
    each.  Neither touches ``repro``, so a change to the program cannot
    move them.  ``scale`` is the geometric mean of reference time over
    probe time: times measured here, multiplied by it, are reference-host
    times.
    """
    import numpy as np

    a = np.ones(8 << 20, dtype=np.uint8)
    b = a.copy()
    py_s = np_s = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        py_s = min(py_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        np.bitwise_xor(a, b, out=b)
        np_s = min(np_s, time.perf_counter() - t0)
    scale = (REF_PY_S / py_s * REF_NP_S / np_s) ** 0.5
    return {"py_s": py_s, "np_s": np_s, "scale": scale}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(counters: dict, extras: dict, coverage: float,
              wall_s: float) -> dict:
    """The per-layer metrics from the traced repetition's counters."""
    def c(name: str) -> float:
        return float(counters.get(name, 0.0))

    def self_s(layer: str) -> float:
        return c("ledger.self_s." + layer)

    def calls(layer: str) -> float:
        return c("ledger.calls." + layer)

    return {
        "codes.build_s": self_s("codes.build"),
        "equations.enumerate_s": self_s("equations.enumerate"),
        "equations.calls": calls("equations.enumerate"),
        "equations.cache_hit_ratio": _ratio(
            c("enum.cache_hit"), c("enum.cache_hit") + c("enum.cache_miss")),
        "search.s": self_s("search"),
        "search.runs": c("search.runs"),
        "search.expanded": c("search.expanded"),
        "search.ckernel_runs": c("search.ckernel_runs"),
        "search.ckernel_fallbacks": c("ledger.ckernel_fallbacks"),
        "search.ckernel_useful_ratio": _ratio(
            c("search.ckernel_runs"), c("ledger.ckernel_attempts")),
        "search.budget_exhausted": c("search.budget_exhausted"),
        "planner.scheme_s": self_s("planner.scheme"),
        "plancache.hit_ratio": _ratio(
            calls("planner.scheme") - c("planner.schemes_generated"),
            calls("planner.scheme")),
        "disksim.simulate_s": self_s("disksim.simulate"),
        "codec.datagen_s": self_s("codec.datagen"),
        "codec.encode_s": self_s("codec.encode"),
        "codec.recover_s": self_s("codec.recover"),
        "codec.recover_calls": calls("codec.recover"),
        "codec.recover_bytes": c("ledger.recover_bytes"),
        "xor.calls": calls("xor"),
        "xor.s": self_s("xor"),
        "xor.bytes_per_call": _ratio(c("ledger.xor_bytes"), calls("xor")),
        "xor.fallbacks": c("ledger.xor_fallbacks"),
        "placement.build_s": self_s("placement.build"),
        "placement.inverse_s": self_s("placement.inverse"),
        "placement.billing_s": self_s("placement.billing"),
        "pool.rebuild_self_s": self_s("pool.rebuild"),
        "pool.truth_s": self_s("pool.truth"),
        "pool.read_loads_s": self_s("pool.read_loads"),
        "pool.chunks": c("placement.chunks"),
        "pipeline.rebuild_s": self_s("pipeline.rebuild"),
        "serving.setup_s": extras.get("serving.setup_s", 0.0),
        "serving.replay_s": self_s("serving.replay"),
        "serving.tracegen_s": self_s("serving.tracegen"),
        "serving.warm_plans_s": self_s("serving.warm_plans"),
        "serving.direct": c("serving.direct"),
        "serving.degraded": c("serving.degraded"),
        "serving.patched": c("serving.patched"),
        "serving.batches": c("serving.batches"),
        "serving.plan_hit_ratio": _ratio(
            c("serving.plan_hit"), c("serving.plan_hit") + c("serving.plan_miss")),
        "serving.compiled_plan_hit_ratio": _ratio(
            c("serving.compiled_plan_hit"),
            c("serving.compiled_plan_hit") + c("serving.compiled_plan_miss")),
        "serving.shard_skew": extras.get("serving.shard_skew", 0.0),
        "serving.replay_overrun_s": extras.get("serving.replay_overrun_s", 0.0),
        "serving.read_p99_ms": extras.get("serving.read_p99_ms", 0.0),
        "topology.makespan_s": self_s("topology.makespan"),
        "fleet.windows_s": self_s("fleet.windows"),
        "fleet.windows_hit_ratio": _ratio(
            c("fleet.windows.hits"),
            c("fleet.windows.hits") + c("fleet.windows.misses")),
        "fleet.crit_s": self_s("fleet.crit"),
        "fleet.mc_s": self_s("fleet.mc"),
        "fleet.trials": c("fleet.trials"),
        "bench.startup_s": self_s("bench.startup"),
        "bench.verify_s": self_s("bench.verify"),
        "ledger.coverage": coverage,
        "ledger.traced_wall_s": wall_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--scale", default="full", choices=["full", "smoke"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", choices=["rebuild", "serve"], default=None)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import workloads  # imports numpy and every repro layer

    ledger = None
    if args.trace:
        from repro import obs

        from ledger import Ledger

        obs.enable("perfbench")
        ledger = Ledger()
        ledger.install()
        ledger.add_untimed("bench.startup", time.time() - args.t_spawn)

    rep = workloads.Rep(args.t_spawn, ledger=ledger, corrupt=args.corrupt)
    params = workloads.SIZES[args.workload][args.scale]
    out = workloads.WORKLOADS[args.workload](params, args.seed, rep)
    wall_s = time.time() - args.t_spawn

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": rep.setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "run_s": out.run_s,
        "work": out.work,
        "work_s": out.work_s,
        "op_ms": out.op_ms,
        "single_process": out.single_process,
        "max_disk_reads": out.max_disk_reads,
        "total_reads": out.total_reads,
        "named": out.named,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
    }
    result["host"] = host_scale()       # after the peak RSS was read
    if ledger is not None:
        from repro import obs

        ledger.uninstall()
        counters = obs.get_recorder().snapshot()["counters"]
        obs.disable()
        result["layers"] = per_layer(counters, out.layer_extras,
                                     ledger.coverage(wall_s), wall_s)
        if args.spans_out:
            ledger.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
