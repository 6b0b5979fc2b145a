"""In-process serving core (ShardServer): byte-exact paths, frontier
races, address checks, faults."""

import threading

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.serving import ShardServer, ShardedServingEngine
from tests.serving.shard_helpers import build, make_server, rebuild_frontier


class TestReadPaths:
    def test_every_element_byte_exact_without_rebuild(self):
        codec, disks = build()
        original = disks.copy()
        server = make_server(codec, disks, failed_disk=2)
        lay = codec.code.layout
        for disk in range(lay.n_disks):
            for row in range(codec.n_stripes * lay.k_rows):
                assert np.array_equal(
                    server.read(disk, row), original[disk, row]
                ), (disk, row)
        assert server.n_degraded == codec.n_stripes * lay.k_rows
        assert server.n_patched == 0
        assert server.mismatches == 0

    @pytest.mark.parametrize("family,n", [("evenodd", 7), ("cauchy_rs", 8)])
    def test_other_families(self, family, n):
        codec, disks = build(family, n, n_stripes=6)
        original = disks.copy()
        server = make_server(codec, disks, failed_disk=1)
        lay = codec.code.layout
        for row in range(codec.n_stripes * lay.k_rows):
            assert np.array_equal(server.read(1, row), original[1, row]), row

    def test_rejects_out_of_range(self):
        codec, disks = build()
        server = make_server(codec, disks, failed_disk=0)
        for disk, row in ((99, 0), (-1, 0), (0, 10**6), (0, -1)):
            with pytest.raises(IndexError):
                server.read(disk, row)
        assert server.mismatches == 0
        with pytest.raises(IndexError):
            make_server(codec, disks, failed_disk=42)
        # rows outside the shard's own stripe range are not served either
        k = codec.code.layout.k_rows
        total_rows = codec.n_stripes * k
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        shard = ShardServer(codec, disks, patched, 0, stripe_lo=2, stripe_hi=5)
        assert np.array_equal(shard.read(0, 2 * k), disks[0, 2 * k])
        for row in (2 * k - 1, 5 * k):
            with pytest.raises(IndexError):
                shard.read(0, row)

    def test_rejects_wrong_shape(self):
        codec, disks = build()
        with pytest.raises(ValueError):
            ShardedServingEngine(codec, disks[:, :-1], failed_disk=0, n_shards=1)


class TestRebuildIntegration:
    def test_reads_race_rebuild_and_stay_exact(self):
        codec, disks = build(n_stripes=24)
        original = disks.copy()
        server = make_server(codec, disks, failed_disk=0)
        lay = codec.code.layout
        total_rows = codec.n_stripes * lay.k_rows
        done = threading.Event()
        result = []

        def rebuild():
            try:
                result.append(rebuild_frontier(server, chunk_stripes=4))
            finally:
                done.set()

        thread = threading.Thread(target=rebuild)
        thread.start()
        rng = np.random.default_rng(0)
        mismatches = []
        while not done.is_set():
            row = int(rng.integers(total_rows))
            if not np.array_equal(server.read(0, row), original[0, row]):
                mismatches.append(row)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert not mismatches
        assert server.mismatches == 0
        assert np.array_equal(result[0].image, original[0])

    def test_post_rebuild_reads_served_from_patch(self):
        codec, disks = build()
        original = disks.copy()
        server = make_server(codec, disks, failed_disk=3)
        rebuild_frontier(server, chunk_stripes=4)
        lay = codec.code.layout
        for row in range(codec.n_stripes * lay.k_rows):
            assert np.array_equal(server.read(3, row), original[3, row])
        assert server.n_patched == codec.n_stripes * lay.k_rows
        assert server.n_degraded == 0


class TestFaultPath:
    def test_lse_on_surviving_disk_served_resiliently(self):
        codec, disks = build(n_stripes=4)
        original = disks.copy()
        lay = codec.code.layout
        # latent sector error on logical disk 1 row 0, every stripe
        plan = FaultPlan.parse(
            [f"lse:1:0:{s}" for s in range(codec.n_stripes)]
        )
        server = make_server(codec, disks, failed_disk=0, fault_plan=plan)
        for row in range(codec.n_stripes * lay.k_rows):
            assert np.array_equal(server.read(0, row), original[0, row]), row
        assert server.n_resilient > 0
        assert server.mismatches == 0

    def test_empty_fault_plan_uses_fast_path(self):
        codec, disks = build(n_stripes=4)
        server = make_server(
            codec, disks, failed_disk=0, fault_plan=FaultPlan.parse([])
        )
        assert server.fault_store is None
        server.read(0, 0)
        assert server.n_resilient == 0


class TestStats:
    def test_stats_shape(self):
        codec, disks = build()
        server = make_server(codec, disks, failed_disk=0)
        one = np.zeros(1)
        res = server.serve_trace(
            one, np.asarray([1]), np.asarray([0]), t_start=0.0
        )
        assert res["served"] == 1
        assert res["direct"] == 1
        for key in ("patched", "degraded", "batches", "resilient",
                    "mismatches", "duration_s", "latencies", "p50_ms",
                    "p99_ms", "plans_resident"):
            assert key in res
