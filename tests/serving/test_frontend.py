"""Open-loop frontend: workload traces, trace arrays, shard partitioning,
replay accounting."""

import time

import numpy as np
import pytest

from repro.disksim.workload import Request
from repro.serving import (
    SimulatedDisksIoModel,
    build_workload_requests,
    partition_trace,
    shard_bounds,
    trace_arrays,
)
from tests.serving.shard_helpers import build, make_server


class TestTraceArrays:
    def test_sorts_and_shifts_to_zero(self):
        reqs = [
            Request(arrival_s=0.5, disk=1, row=3),
            Request(arrival_s=0.2, disk=0, row=7),
            Request(arrival_s=0.9, disk=2, row=1),
        ]
        arr, disks, rows = trace_arrays(reqs)
        assert arr[0] == 0.0
        assert np.all(np.diff(arr) >= 0)
        assert list(disks) == [0, 1, 2]
        assert list(rows) == [7, 3, 1]

    def test_stable_on_equal_arrivals(self):
        reqs = [Request(arrival_s=1.0, disk=d, row=d) for d in range(5)]
        _, disks, _ = trace_arrays(reqs)
        assert list(disks) == [0, 1, 2, 3, 4]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_arrays([])


class TestShardBounds:
    def test_bounds_cover_range_contiguously(self):
        for n_stripes in (1, 7, 48, 113):
            for n_shards in (1, 2, 3, n_stripes):
                if n_shards > n_stripes:
                    continue
                b = shard_bounds(n_stripes, n_shards)
                assert b[0] == 0 and b[-1] == n_stripes
                assert np.all(np.diff(b) >= 1)  # every shard owns >= 1 stripe
                assert len(b) == n_shards + 1

    def test_more_shards_than_stripes_yields_empty_shards(self):
        # over-provisioned shard counts are legal: surplus shards own
        # empty ranges, every stripe still lands in exactly one shard
        for n_stripes, n_shards in ((1, 3), (4, 7), (48, 49), (3, 1000)):
            b = shard_bounds(n_stripes, n_shards)
            assert b[0] == 0 and b[-1] == n_stripes
            assert len(b) == n_shards + 1
            assert np.all(np.diff(b) >= 0)
            assert int(np.diff(b).sum()) == n_stripes

    @pytest.mark.parametrize("bad", [0, -1])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ValueError):
            shard_bounds(48, bad)


class TestPartitionTrace:
    def test_partition_is_exact_and_order_preserving(self):
        k_rows, n_stripes, n_shards = 4, 12, 3
        rng = np.random.default_rng(0)
        rows = rng.integers(0, n_stripes * k_rows, size=200)
        parts = partition_trace(rows, k_rows, n_stripes, n_shards)
        seen = np.concatenate(parts)
        assert sorted(seen.tolist()) == list(range(200))  # exact cover
        bounds = shard_bounds(n_stripes, n_shards)
        for i, idx in enumerate(parts):
            assert np.all(np.diff(idx) > 0)  # global order kept per shard
            stripes = rows[idx] // k_rows
            assert np.all(stripes >= bounds[i])
            assert np.all(stripes < bounds[i + 1])

    def test_single_shard_owns_everything(self):
        rows = np.arange(40)
        (part,) = partition_trace(rows, 4, 10, 1)
        assert np.array_equal(part, np.arange(40))

    def test_oversubscribed_shards_get_empty_parts(self):
        # n_shards > n_stripes: every request still lands in exactly one
        # shard, and the surplus shards get empty index arrays
        k_rows, n_stripes, n_shards = 2, 3, 8
        rows = np.arange(n_stripes * k_rows)
        parts = partition_trace(rows, k_rows, n_stripes, n_shards)
        assert len(parts) == n_shards
        seen = np.concatenate(parts)
        assert sorted(seen.tolist()) == list(range(len(rows)))
        assert sum(1 for p in parts if len(p) == 0) == n_shards - n_stripes

    def test_explicit_bounds_override_even_split(self):
        k_rows, n_stripes = 2, 8
        rows = np.arange(n_stripes * k_rows)
        bounds = np.asarray([0, 6, 8])  # deliberately uneven
        parts = partition_trace(rows, k_rows, n_stripes, 2, bounds=bounds)
        assert np.all(rows[parts[0]] // k_rows < 6)
        assert np.all(rows[parts[1]] // k_rows >= 6)

    @pytest.mark.parametrize(
        "n_shards,bounds",
        [
            (2, [0, 8]),        # wrong length
            (2, [1, 4, 8]),     # does not start at 0
            (2, [0, 4, 7]),     # does not end at n_stripes
            (3, [0, 5, 3, 8]),  # not monotone
        ],
    )
    def test_bad_explicit_bounds_rejected(self, n_shards, bounds):
        rows = np.arange(16)
        with pytest.raises(ValueError):
            partition_trace(rows, 2, 8, n_shards, bounds=np.asarray(bounds))


class TestBuildWorkloadRequests:
    def test_hotspot_count_rate_and_skew(self):
        reqs = build_workload_requests(
            "hotspot", 7, 600, failed_disk=2, count=500, rate_per_s=1000.0
        )
        assert len(reqs) == 500
        assert all(0 <= r.disk < 7 and 0 <= r.row < 600 for r in reqs)
        assert sum(r.disk == 2 for r in reqs) > 0.7 * len(reqs)

    def test_sequential_scans_the_failed_disk(self):
        reqs = build_workload_requests(
            "sequential", 7, 600, failed_disk=3, count=50, rate_per_s=100.0
        )
        assert [r.row for r in reqs] == list(range(50))
        assert {r.disk for r in reqs} == {3}

    @pytest.mark.parametrize(
        "kind,count,rate", [("zipf", 10, 1.0), ("hotspot", 0, 1.0),
                            ("hotspot", 10, 0.0)]
    )
    def test_rejects_bad_arguments(self, kind, count, rate):
        with pytest.raises(ValueError):
            build_workload_requests(kind, 7, 60, 0, count, rate_per_s=rate)


class TestReplayOpenLoop:
    """``ShardServer.serve_trace``: the open-loop replay loop."""

    def _trace(self, n, rate, disk=1):
        arr = np.arange(n) / rate
        disks = np.full(n, disk, dtype=np.int64)
        rows = np.arange(n, dtype=np.int64)
        return arr, disks, rows

    def test_serves_all_and_verifies(self):
        codec, disks = build()
        server = make_server(codec, disks, failed_disk=0)
        arr, dks, rows = self._trace(50, rate=5000.0, disk=0)
        res = server.serve_trace(arr, dks, rows, t_start=time.monotonic())
        assert res["served"] == 50
        assert res["mismatches"] == 0
        assert res["degraded"] == 50
        assert res["p99_ms"] >= res["p50_ms"] >= 0.0

    def test_counts_mismatches(self):
        codec, disks = build()
        server = make_server(codec, disks, failed_disk=0)
        k = codec.code.layout.k_rows
        # stripe 0 "rebuilt" with one wrong row in the patch map
        server.patched[:k] = disks[0, :k]
        server.patched[3] ^= 0xFF
        server.note_rebuilt(np.asarray([0]))
        arr, dks, rows = self._trace(10, rate=5000.0, disk=0)
        res = server.serve_trace(arr, dks, rows, t_start=time.monotonic())
        assert res["served"] == 10
        assert res["mismatches"] == 1

    def test_error_stops_replay_loudly(self):
        codec, disks = build(n_stripes=2)
        server = make_server(codec, disks, failed_disk=0)
        arr, dks, rows = self._trace(20, rate=5000.0)  # rows past the array
        with pytest.raises(IndexError):
            server.serve_trace(arr, dks, rows, t_start=time.monotonic())
        assert server.n_batches == 0

    def test_latency_includes_queue_wait(self):
        """A slow server must push later requests' latency up (open loop)."""
        codec, disks = build()
        io = SimulatedDisksIoModel(codec.code.layout.n_disks, element_read_ms=10.0)
        server = make_server(codec, disks, failed_disk=0, io=io)
        # 1 ms spacing against 10 ms service on one spindle
        arr, dks, rows = self._trace(6, rate=1000.0)
        res = server.serve_trace(arr, dks, rows, t_start=time.monotonic())
        # later requests queued behind ~5 earlier 10 ms services
        assert res["p99_ms"] > 30.0
