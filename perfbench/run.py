"""End-to-end benchmark of the four user paths, with a per-layer ledger.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload pool_rebuild --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``pool_rebuild``, ``serve_degraded``, ``plan_cold`` and
``fleet_durability`` (see ``README.md`` beside this file for what each
one stresses).  The command first compiles the C kernel and byte-compiles
the sources into ``.bench_build/`` (a one-time cost, never timed), then
runs repetitions of the workload, each in a fresh process, until
``--seconds`` have passed, and pools the repetitions (see
:func:`end_to_end`).

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and prints every
per-layer metric (the traced repetitions' ledger, plus the tracing
overhead measured against the untraced ones).  Human-readable lines come
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: a run's repetitions must finish well inside the 180 s a run may take
RUN_CAP_S = 150.0

#: units of the workload-specific headline metrics printed per workload
NAMED_UNITS = {
    "encode_mb_s": "MB/s", "rebuild_mb_s": "MB/s",
    "read_p50_ms": "ms", "read_p99_ms": "ms", "read_samples": "count",
    "max_rate_rps": "req/s", "plan_s": "s", "schemes": "count",
    "disk_years_per_s": "disk-yr/s", "losses": "count",
}


def end_to_end(reps: List[Dict[str, Any]], host: bool = True
               ) -> Dict[str, float]:
    """A run's end-to-end metrics from its untraced repetitions.

    Set-up time and peak RSS are medians over the repetitions.  The timed
    metrics pool the repetitions instead: the mean ``run_s``, total work
    over total timed seconds, and the median of every unit operation of
    the run.  On a shared 2-vCPU host a fresh process runs in a fast or a
    slow mode (up to 40% apart) for seconds at a time, so the median of a
    few repetitions jumps between the modes where pooled figures move
    smoothly with the share of time spent in each.

    With ``host`` the times are first multiplied by their repetition's
    host scale (see ``rep.host_scale``), which turns them into
    reference-host times: the host's speed also drifts by a quarter over
    minutes, which no amount of pooling inside one run removes.  Set-up
    is always one process computing, so it is always scaled; the timed
    metrics only where the workload's timed region is too.
    """
    def setup_k(r: Dict[str, Any]) -> float:
        return r["host"]["scale"] if host else 1.0

    def k(r: Dict[str, Any]) -> float:
        return setup_k(r) if r["single_process"] else 1.0

    work_s = sum(r["work_s"] * k(r) for r in reps)
    return {
        "setup_s": _median([r["setup_s"] * setup_k(r) for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "run_s": statistics.mean(r["run_s"] * k(r) for r in reps),
        "work_per_s": sum(r["work"] for r in reps) / work_s if work_s else 0.0,
        "op_p50_ms": _median([ms * k(r) for r in reps for ms in r["op_ms"]]),
        "max_disk_reads": reps[0]["max_disk_reads"],
        "total_reads": reps[0]["total_reads"],
    }


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["XDG_CACHE_HOME"] = str(BUILD / "xdg-cache")  # compiled C kernel
    env["TMPDIR"] = str(BUILD / "tmp")                 # the compiler's scratch
    env["PYTHONHASHSEED"] = "0"
    return env


def _ram_mb() -> float:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20


def prepare() -> Dict[str, Any]:
    """Compile the C kernel and byte-compile the sources; record the machine."""
    probe = (
        "import json, numpy, workloads, ledger\n"
        "from repro.recovery import ckernel\n"
        "print(json.dumps({'ckernel': ckernel.available(),"
        " 'xor_kernel': ckernel.xor_available(),"
        " 'numpy': numpy.__version__}))\n"
    )
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    info = json.loads(done.stdout.strip().splitlines()[-1])
    info.update(
        nproc=os.cpu_count(),
        ram_mb=round(_ram_mb()),
        python=platform.python_version(),
        repro_pure_python=os.environ.get("REPRO_PURE_PYTHON", ""),
        kernel=platform.release(),
    )
    return info


def spawn_rep(workload: str, seed: int, scale: str, traced: bool,
              corrupt: Optional[str], timeout_s: float,
              spans_out: Optional[Path]) -> Dict[str, Any]:
    """Run one repetition in a fresh process; its JSON result, or an error."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    if traced:
        cmd.append("--trace")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    cmd += ["--t-spawn", repr(time.time())]
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the rep and its shard workers
        proc.communicate()
        return {"error": f"repetition timed out after {timeout_s:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"repetition exited with code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "repetition printed no result"}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    machine = prepare()
    started = time.monotonic()
    reps: List[Dict[str, Any]] = []
    attempted = failed = 0
    errors: List[str] = []
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    min_reps = 2 if args.trace else 3
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        left = RUN_CAP_S - (time.monotonic() - started)
        spans = traces / f"{args.workload}-seed{args.seed}-rep{i}.jsonl"
        res = spawn_rep(args.workload, args.seed * 1000 + i, args.scale,
                        traced, args.corrupt, left, spans if traced else None)
        i += 1
        if "error" in res:
            attempted += 1
            failed += 1
            errors.append(f"rep {i - 1}: {res['error']}")
            break
        reps.append(res)
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
        if args.trace and i % 2:
            continue                      # finish the untraced/traced pair
        elapsed = time.monotonic() - started
        step = elapsed / i * (2 if args.trace else 1)
        # stop where the run ends closest to --seconds
        if i >= min_reps and elapsed + step / 2 >= args.seconds:
            break
        if elapsed + 1.5 * step > RUN_CAP_S:
            break

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    counts = {(r["max_disk_reads"], r["total_reads"]) for r in reps}
    attempted += 1
    if len(counts) > 1:
        failed += 1
        errors.append(f"exact read counts differ between repetitions: {counts}")

    if not plain or (args.trace and not traced_reps):
        for e in errors:
            print(f"FAILED: {e}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(plain)
    raw = end_to_end(plain, host=False)
    named = {k: _median([r["named"][k] for r in plain])
             for k in plain[0]["named"]}
    if args.trace:
        layers = {k: _median([r["layers"][k] for r in traced_reps])
                  for k in traced_reps[0]["layers"]}
        untraced_wall = _median([r["wall_s"] for r in plain])
        traced_wall = _median([r["wall_s"] for r in traced_reps])
        layers["obs.trace_overhead_pct"] = (
            100.0 * (traced_wall - untraced_wall) / untraced_wall)
        wanted = [m["name"] for m in spec["per_layer"]]
        values = layers
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = e2e
    missing = [n for n in wanted if n not in values]
    if missing:
        print(f"error: benchmark does not produce {missing}", file=sys.stderr)
        return 1

    error_rate = failed / attempted
    print(f"perfbench {args.workload}: seed {args.seed}, {len(plain)} untraced "
          f"+ {len(traced_reps)} traced repetition(s) in "
          f"{time.monotonic() - started:.1f} s")
    print("machine: " + json.dumps(machine, sort_keys=True))
    scales = [r["host"]["scale"] for r in plain]
    print(f"host scale: median {_median(scales):.4g} "
          f"(min {min(scales):.4g}, max {max(scales):.4g}); end-to-end "
          "times below are reference-host times, raw host times in brackets")
    for name in (m["name"] for m in spec["end_to_end"]):
        print(f"  {name:24s} {e2e[name]:14.6g} {units[name]:9s} "
              f"[{raw[name]:.6g}]")
    for name, value in named.items():
        print(f"  {name:24s} {value:14.6g} {NAMED_UNITS.get(name, '')}")
    print(f"  {'error_rate':24s} {error_rate:14.6g} fraction "
          f"({failed} failed of {attempted} checks)")
    if args.trace:
        for name in wanted:
            print(f"  {name:32s} {values[name]:14.6g} {units[name]}")
    for e in errors:
        print(f"FAILED: {e}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine, "reps": reps,
              "errors": errors}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names or None)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "smoke"], default="full",
                    help="'smoke' runs the self-test sizes")
    ap.add_argument("--corrupt", choices=["rebuild", "serve"], default=None,
                    help="self-test: corrupt one rebuilt row or served read")
    args = ap.parse_args(argv)
    if spec is None or not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: {ROOT} is not a source checkout (needs BENCHMARK.json "
              "and src/repro)", file=sys.stderr)
        return 2
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
