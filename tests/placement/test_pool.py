"""Pool store + pool rebuild: byte-exactness, billing, planning parity."""

import numpy as np
import pytest

from repro.codec.encoder import StripeCodec
from repro.codes import CauchyRSCode, EvenOddCode, RdpCode
from repro.pipeline import PoolRebuild, compare_placements, rebuild_pool_disk
from repro.placement import PoolStore, make_placement


def build_store(name="declustered", code=None, n_pool=40, n_stripes=300,
                element_size=8, seed=0):
    code = code or RdpCode(5)
    pm = make_placement(name, n_pool, n_stripes, code.layout.n_disks, seed=seed)
    store = PoolStore(code, pm, element_size=element_size)
    store.encode_random(np.random.default_rng(seed))
    return store


class TestPoolStore:
    def test_width_mismatch_rejected(self):
        pm = make_placement("flat", 40, 100, 5)
        with pytest.raises(ValueError, match="placement width"):
            PoolStore(RdpCode(7), pm)  # rdp@7 is 8 disks wide, map is 5

    def test_encode_batch_matches_per_stripe_encoder(self):
        code = EvenOddCode(5)
        store = build_store("flat", code=code, n_stripes=12)
        codec = StripeCodec(code, store.element_size)
        rng = np.random.default_rng(0)
        data = rng.integers(
            0, 256, size=(12, codec.n_data_elements, store.element_size),
            dtype=np.uint8,
        )
        batch = codec.encode_batch(data)
        for s in range(12):
            assert np.array_equal(batch[s], codec.encode(data[s]))

    def test_role_rows_are_the_roles_elements(self):
        store = build_store(n_stripes=20)
        k = store.k_rows
        got = store.role_rows(np.asarray([3, 11]), role=2)
        assert np.array_equal(got[0], store.stripes[3, 2 * k : 3 * k])
        assert np.array_equal(got[1], store.stripes[11, 2 * k : 3 * k])

    def test_role_rows_before_encode_raises(self):
        pm = make_placement("flat", 40, 10, 6)
        store = PoolStore(RdpCode(5), pm)
        with pytest.raises(RuntimeError, match="empty"):
            store.role_rows(np.asarray([0]), 0)


class TestPoolRebuild:
    @pytest.mark.parametrize("name", ["flat", "declustered", "d3", "random"])
    def test_rebuild_is_byte_exact(self, name):
        store = build_store(name, n_pool=30, n_stripes=200)
        res = rebuild_pool_disk(store, dead_disk=4, chunk_stripes=32)
        assert res.ok
        assert res.mismatches == 0
        stripes, _ = store.placement.roles_of_disk(4)
        assert len(res.stripe_ids) == len(stripes)
        # the dead disk is never its own rebuild source
        assert res.reads_per_disk[4] == 0
        assert np.array_equal(res.stripe_ids, np.sort(stripes))

    @pytest.mark.parametrize(
        "code", [RdpCode(5), EvenOddCode(5), CauchyRSCode(4, 2, w=4)]
    )
    def test_rebuild_across_codes(self, code):
        store = build_store("d3", code=code, n_pool=25, n_stripes=120)
        res = rebuild_pool_disk(store, dead_disk=7)
        assert res.ok

    def test_planned_loads_equal_executed_loads(self):
        store = build_store("declustered", n_pool=36, n_stripes=250)
        engine = PoolRebuild(store, chunk_stripes=64)
        planned = engine.read_loads(dead_disk=9)
        res = engine.rebuild(dead_disk=9)
        assert np.array_equal(planned, res.reads_per_disk)

    def test_idle_flat_spare_disk_rebuilds_to_nothing(self):
        # 4*6=24 disks in groups, disks 24..27 spare and hold no stripes
        store = build_store("flat", code=RdpCode(5), n_pool=28, n_stripes=96)
        res = rebuild_pool_disk(store, dead_disk=26)
        assert res.ok
        assert len(res.stripe_ids) == 0
        assert res.reads_per_disk.sum() == 0

    def test_declustered_halves_flat_max_load(self):
        # the ISSUE acceptance bar, at test scale: >= 2x reduction in
        # max-per-disk rebuild reads on a 100+ disk pool
        results = compare_placements(
            lambda name: build_store(name, n_pool=120, n_stripes=2000),
            ["flat", "declustered"],
            dead_disk=5,
        )
        assert all(r.ok for r in results.values())
        flat, dec = results["flat"], results["declustered"]
        assert flat.max_read_load >= 2 * dec.max_read_load
        busy_flat = int((flat.reads_per_disk > 0).sum())
        busy_dec = int((dec.reads_per_disk > 0).sum())
        assert busy_dec > busy_flat

    def test_throttle_sees_every_chunk(self):
        store = build_store("d3", n_pool=30, n_stripes=150)
        seen = []
        engine = PoolRebuild(store, chunk_stripes=16, throttle=seen.append)
        res = engine.rebuild(dead_disk=2)
        assert res.ok
        assert sum(c.n_stripes for c in seen) == len(res.stripe_ids)
        assert len(seen) == res.stats["chunks"]

    def test_on_chunk_sees_rows_in_chunk_order(self):
        store = build_store("declustered", n_pool=30, n_stripes=200)
        k = store.k_rows
        seen = []

        def on_chunk(chunk, rows):
            # rows is a reused buffer: copy to keep
            seen.append((chunk.chunk_id, chunk.role, chunk.stripe_ids, rows.copy()))

        res = PoolRebuild(store, chunk_stripes=8, on_chunk=on_chunk).rebuild(6)
        assert res.ok
        assert [c[0] for c in seen] == list(range(res.stats["chunks"]))
        assert sorted(s for c in seen for s in c[2].tolist()) == res.stripe_ids.tolist()
        for _, role, ids, rows in seen:
            assert rows.shape == (len(ids), k, store.element_size)
            assert np.array_equal(rows, store.role_rows(ids, role))
            pos = np.searchsorted(res.stripe_ids, ids)
            assert np.array_equal(rows, res.rows[pos])

    def test_bad_chunk_size_rejected(self):
        store = build_store()
        with pytest.raises(ValueError):
            PoolRebuild(store, chunk_stripes=0)

    def test_empty_store_rejected(self):
        pm = make_placement("flat", 40, 10, 6)
        store = PoolStore(RdpCode(5), pm)
        with pytest.raises(RuntimeError, match="empty"):
            PoolRebuild(store).rebuild(0)

    def test_stats_shape(self):
        store = build_store("random", n_pool=30, n_stripes=100)
        res = rebuild_pool_disk(store, dead_disk=1)
        for key in ("placement", "n_pool", "affected_stripes", "chunks",
                    "rebuilt_mb_s", "read_load"):
            assert key in res.stats
        assert res.stats["placement"] == "random"
        assert res.stats["read_load"]["max_per_disk"] == res.max_read_load
