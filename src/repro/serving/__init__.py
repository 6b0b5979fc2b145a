"""On-line degraded-read serving with QoS-aware rebuild throttling.

The serving layer answers user element reads against an array whose
failed disk is being rebuilt in the background, byte-exactly and with a
latency objective:

* :class:`~repro.serving.sharded.ShardedServingEngine` — the engine:
  stripe-range shard worker processes (one shard is the single-process
  case) over shared-memory state (:mod:`repro.serving.shm`), an inline
  rebuild in the parent, and open-loop trace replay
  (:mod:`repro.serving.frontend`);
* :class:`~repro.serving.sharded.ShardServer` — one shard's serving
  core: direct, patched-frontier and batched degraded reads (through the
  resilient executor when a fault plan is attached), testable in-process;
* :class:`~repro.serving.plans.DegradedPlanCache` — search-free
  per-element degraded plans, persistent via ``SchemePlanCache`` keying;
* :class:`~repro.serving.qos.RebuildThrottle` — token-bucket admission
  for rebuild chunks with AIMD on the worst shard p99 and a rate floor
  set by the chunk-time EMA;
* :class:`~repro.serving.iomodel.SimulatedDisksIoModel` — deterministic
  per-spindle disk-time accounting for contention experiments.

See ``docs/serving.md`` for the architecture and the benchmark
methodology behind ``benchmarks/bench_serving.py``.
"""

from repro.serving.frontend import (
    build_workload_requests,
    partition_trace,
    shard_bounds,
    trace_arrays,
)
from repro.serving.iomodel import NullIoModel, SimulatedDisksIoModel
from repro.serving.plans import CompiledPlanCache, DegradedPlanCache
from repro.serving.qos import RebuildThrottle, TokenBucket, percentile
from repro.serving.sharded import (
    ShardServer,
    ShardedReport,
    ShardedServingEngine,
)
from repro.serving.shm import SharedServingState, ServingStateSpec

__all__ = [
    "CompiledPlanCache",
    "DegradedPlanCache",
    "NullIoModel",
    "RebuildThrottle",
    "ServingStateSpec",
    "ShardServer",
    "ShardedReport",
    "ShardedServingEngine",
    "SharedServingState",
    "SimulatedDisksIoModel",
    "TokenBucket",
    "build_workload_requests",
    "partition_trace",
    "percentile",
    "shard_bounds",
    "trace_arrays",
]
