"""Per-layer self-time ledger for traced benchmark repetitions.

A traced repetition wraps the public entry points of each ``repro`` layer
(listed in :data:`LAYER_CALLS`) with timing spans.  Each span records its
name, start, end and parent span; a layer's *self time* is the span's
duration minus the time its child spans cover.  Untraced repetitions
install nothing, so the end-to-end numbers are measured on the unmodified
program.

Self times and call counts are also added to the ``repro.obs`` recorder
as counters (``ledger.self_s.<layer>``, ``ledger.calls.<layer>``).  The
sharded serving engine folds each shard worker's recorder snapshot into
the parent's at join time, so work done inside forked shard workers (the
XOR kernel behind degraded reads) reaches the parent's totals.  Coverage
is computed from the parent process's main thread only, where spans nest
and never overlap: the sum of the layer self times divided by the wall
time since the process started.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs

#: (module, owner attribute path, layer) for every wrapped public call.
#: ``owner`` is ``Class.method`` for methods and a plain function name
#: otherwise; functions are patched in every namespace that imported them.
LAYER_CALLS: List[Tuple[str, str, str]] = [
    ("repro.codes.registry", "make_code", "codes.build"),
    ("repro.equations.enumerate", "get_recovery_equations", "equations.enumerate"),
    ("repro.recovery.search", "generate_scheme", "search"),
    ("repro.recovery.ckernel", "run", "search"),
    ("repro.recovery.planner", "RecoveryPlanner.scheme_for_disk", "planner.scheme"),
    ("repro.disksim.recovery_sim", "simulate_stack_recovery", "disksim.simulate"),
    ("repro.placement.pool", "PoolStore.encode_random", "codec.datagen"),
    ("repro.codec.image", "ArrayImageCodec.random_image", "codec.datagen"),
    ("repro.codec.encoder", "StripeCodec.encode_batch", "codec.encode"),
    ("repro.codec.image", "ArrayImageCodec.encode_image", "codec.encode"),
    ("repro.codec.batch", "BatchReconstructor.recover_batch_into", "codec.recover"),
    ("repro.recovery.ckernel", "xor_batch", "xor"),
    ("repro.placement.map", "make_placement", "placement.build"),
    ("repro.placement.map", "PlacementMap.roles_of_disk", "placement.inverse"),
    ("repro.placement.map", "PlacementMap.disk_of_role", "placement.billing"),
    ("repro.pipeline.pool", "PoolRebuild.rebuild", "pool.rebuild"),
    ("repro.pipeline.pool", "PoolRebuild.read_loads", "pool.read_loads"),
    ("repro.placement.pool", "PoolStore.role_rows", "pool.truth"),
    ("repro.pipeline.engine", "RebuildPipeline.rebuild", "pipeline.rebuild"),
    ("repro.disksim.workload", "HotspotWorkload.generate", "serving.tracegen"),
    ("repro.serving.sharded", "ShardedServingEngine.warm_plans", "serving.warm_plans"),
    ("repro.serving.sharded", "ShardedServingEngine.serve_trace", "serving.replay"),
    ("repro.topology.simulate", "rebuild_makespan", "topology.makespan"),
    ("repro.fleet.windows", "price_repair_windows", "fleet.windows"),
    ("repro.fleet.crit", "make_criticality", "fleet.crit"),
    ("repro.fleet.engine", "simulate_fleet", "fleet.mc"),
    ("repro.fleet.engine", "run_fleet", "fleet.run"),
    ("repro.codec.verify", "verify_scheme_on_random_data", "bench.verify"),
]


def _xor_extra(result: Any, args: tuple) -> None:
    out = args[1]
    obs.count("ledger.xor_bytes", out.nbytes)
    if result is False:
        obs.count("ledger.xor_fallbacks")


def _recover_extra(result: Any, args: tuple) -> None:
    obs.count("ledger.recover_bytes", args[2].nbytes)


def _ckernel_extra(result: Any, args: tuple) -> None:
    obs.count("ledger.ckernel_attempts")
    if result is None:
        obs.count("ledger.ckernel_fallbacks")


#: extra counters taken from a call's arguments and result
_EXTRAS: Dict[Tuple[str, str], Callable[[Any, tuple], None]] = {
    ("repro.recovery.ckernel", "xor_batch"): _xor_extra,
    ("repro.codec.batch", "BatchReconstructor.recover_batch_into"): _recover_extra,
    ("repro.recovery.ckernel", "run"): _ckernel_extra,
}


class Ledger:
    """Span recorder and self-time accountant for one traced repetition."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.main_self: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._pid = os.getpid()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[list, list]:
        stack = self._stack()
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
        frame = [sid, 0.0]
        stack.append(frame)
        return stack, frame

    def _close(self, stack: list, frame: list, layer: str, t0: float,
               t1: float) -> None:
        stack.pop()
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        self_s = dur - frame[1]
        obs.count("ledger.self_s." + layer, self_s)
        obs.count("ledger.calls." + layer)
        if (threading.get_ident() == self._main_thread
                and os.getpid() == self._pid):
            self.main_self[layer] += self_s
            self.spans.append(
                (frame[0], parent[0] if parent else None, layer, t0, t1)
            )

    @contextmanager
    def phase(self, layer: str):
        """Span around a block of the benchmark's own code."""
        stack, frame = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, frame, layer, t0, time.perf_counter())

    def add_untimed(self, layer: str, seconds: float) -> None:
        """Book time spent before the ledger existed (start-up, imports)."""
        self.main_self[layer] += seconds
        obs.count("ledger.self_s." + layer, seconds)

    # ------------------------------------------------------------------
    def _wrapper(self, fn: Callable, layer: str,
                 extra: Optional[Callable[[Any, tuple], None]]) -> Callable:
        ledger = self

        def traced(*args, **kwargs):
            stack, frame = ledger._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger._close(stack, frame, layer, t0, time.perf_counter())
            if extra is not None:
                extra(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry of :data:`LAYER_CALLS` (imports the modules)."""
        import importlib

        for modname, path, layer in LAYER_CALLS:
            mod = importlib.import_module(modname)
            extra = _EXTRAS.get((modname, path))
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(orig, layer, extra))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrapper(orig, layer, extra)
            # patch every namespace holding the original, so callers that
            # did ``from module import name`` see the wrapper too
            for other in list(sys.modules.values()):
                names = getattr(other, "__dict__", None)
                if names is None:
                    continue
                for key, value in list(names.items()):
                    if value is orig:
                        setattr(other, key, wrapped)
                        self._undo.append((other, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # ------------------------------------------------------------------
    def coverage(self, wall_s: float) -> float:
        """Main-thread layer self time as a share of ``wall_s``."""
        return sum(self.main_self.values()) / wall_s if wall_s > 0 else 0.0

    def write_spans(self, path: str) -> None:
        """Write the main-thread spans as JSON lines (name/start/end/parent)."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_s": t0, "end_s": t1}) + "\n")
