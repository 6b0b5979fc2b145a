"""Self-test of the benchmark at smoke size (about a minute).

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in ``BENCHMARK.json``
with its unit (untraced and traced), that end-to-end values are never 0,
that the ledger covers at least 95% of the traced wall time, that a
corrupted rebuilt row or served read shows up as a failed check with a
non-zero exit, and that a directory holding only the benchmark (no
source tree) exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(args: List[str], cwd: Path = ROOT) -> Tuple[int, Optional[dict]]:
    """Run ``run.py`` at smoke size; its exit code and parsed last line."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "1", "--scale", "smoke"] + args,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = bench(["--workload", workload, "--trace", str(trace)])
            what = f"{workload} --trace {trace}"
            expect(code == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: exit 0, correct, no failed checks")
            if res is None:
                continue
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(got == want, f"{what}: emits exactly the {key} metrics "
                   "with their units")
            values = {n: m["value"] for n, m in res["metrics"].items()}
            if trace == 0:
                zero = [n for n, v in values.items() if not v]
                expect(not zero, f"{what}: no end-to-end metric is 0 {zero}")
            else:
                cov = values.get("ledger.coverage", 0.0)
                expect(cov >= 0.95, f"{what}: ledger.coverage {cov:.3f} "
                       ">= 0.95")

    for workload, corrupt in (("pool_rebuild", "rebuild"),
                              ("serve_degraded", "serve")):
        code, res = bench(["--workload", workload, "--trace", "0",
                           "--corrupt", corrupt])
        expect(code != 0 and res is not None and not res["correct"]
               and res["failed"] > 0,
               f"{workload} --corrupt {corrupt}: failed checks, exit {code}")

    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    code, res = bench(["--workload", workload, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None,
           f"benchmark-only directory: exit {code}, no result line")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
