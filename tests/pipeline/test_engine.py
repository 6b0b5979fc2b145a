"""Rebuild-engine correctness: the array rebuild byte-identical to the
per-stripe reference, reads accounting preserved, failures surfaced."""

import multiprocessing

import numpy as np
import pytest

from repro.codec import ArrayImageCodec
from repro.codes import list_families, make_code
from repro.pipeline import PoolRebuild, RebuildPipeline
from repro.placement import PoolStore, make_placement
from repro.recovery import RecoveryPlanner, SchemePlanCache

#: width per family for the registry-wide check (mdr searches slowly past 5)
_WIDTH = {"mdr": 5}


def horizontal_families():
    """Registry families the rotated array image can hold."""
    out = []
    for family in list_families():
        code = make_code(family, _WIDTH.get(family, 7))
        try:
            ArrayImageCodec(code, element_size=8, n_stripes=1)
        except NotImplementedError:
            continue
        out.append(family)
    return out


def build_image(family="rdp", n_disks=7, element_size=32, n_stripes=23, seed=1):
    code = make_code(family, n_disks)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks


class TestInlinePaths:
    @pytest.mark.parametrize("family,n", [("rdp", 7), ("evenodd", 7),
                                          ("liberation", 7), ("cauchy_rs", 8)])
    def test_inline_batch_matches_original(self, family, n):
        codec, disks = build_image(family, n)
        pipe = RebuildPipeline(codec, chunk_stripes=4)
        for failed in range(codec.code.layout.n_disks):
            result = pipe.rebuild(disks, failed)
            assert np.array_equal(result.image, disks[failed]), failed

    def test_matches_legacy_recover_disk(self):
        families = horizontal_families()
        assert "xcode" not in families and len(families) >= 14
        for family in families:
            n = _WIDTH.get(family, 7)
            codec, disks = build_image(family, n, element_size=8, n_stripes=2 * n + 3)
            pipe = RebuildPipeline(codec, chunk_stripes=4)
            for failed in range(codec.code.layout.n_disks):
                legacy = codec.recover_disk(disks, failed, pipe.planner)
                result = pipe.rebuild(disks, failed)
                assert np.array_equal(result.image, legacy["image"]), (family, failed)
                assert result.reads_per_disk.tolist() == legacy["reads_per_disk"], (
                    family,
                    failed,
                )
                assert result.ok, (family, failed)

    def test_stripe_loop_oracle_matches_batch(self):
        codec, disks = build_image(n_stripes=11)
        pipe = RebuildPipeline(codec, chunk_stripes=3)
        batch = pipe.rebuild(disks, 4)
        loop = codec.recover_disk(disks, 4, pipe.planner)
        assert np.array_equal(batch.image, loop["image"])
        assert batch.reads_per_disk.tolist() == loop["reads_per_disk"]

    def test_pool_store_on_flat_placement_bills_like_the_array(self):
        # the rotated array is flat(n, s, n): a PoolStore laid out that way
        # recovers the same rows with the same per-disk reads
        codec, disks = build_image(n_stripes=23)
        n = codec.code.layout.n_disks
        store = PoolStore(codec.code, make_placement("flat", n, 23, n),
                          element_size=codec.element_size)
        store.encode_random(np.random.default_rng(3))
        pipe = RebuildPipeline(codec, chunk_stripes=4)
        pool = PoolRebuild(store, chunk_stripes=4, planner=pipe.planner)
        for failed in range(n):
            array = pipe.rebuild(disks, failed)
            placed = pool.rebuild(failed)
            assert placed.ok
            assert np.array_equal(placed.reads_per_disk, array.reads_per_disk)
            assert np.array_equal(placed.reads_per_disk, pool.read_loads(failed))
            assert placed.stats["chunks"] == array.stats["chunks"]

    def test_chunk_size_one(self):
        codec, disks = build_image(n_stripes=9)
        pipe = RebuildPipeline(codec, chunk_stripes=1)
        result = pipe.rebuild(disks, 0)
        assert np.array_equal(result.image, disks[0])

    def test_failed_disk_rows_never_read(self):
        codec, disks = build_image()
        trashed = disks.copy()
        trashed[3] = 0xAB  # simulate a genuinely dead disk
        pipe = RebuildPipeline(codec, chunk_stripes=4)
        result = pipe.rebuild(trashed, 3)
        assert np.array_equal(result.image, disks[3])
        # verification compares against what the dead disk held
        assert result.mismatches == codec.n_stripes and not result.ok

    def test_patch_writes_back_in_place(self):
        codec, disks = build_image()
        trashed = disks.copy()
        trashed[1] = 0
        pipe = RebuildPipeline(codec, chunk_stripes=4)
        pipe.rebuild(trashed, 1, patch=True)
        assert np.array_equal(trashed[1], disks[1])

    def test_stats_shape(self):
        codec, disks = build_image()
        result = RebuildPipeline(codec).rebuild(disks, 0)
        stats = result.stats
        assert stats["mode"] == "inline-batch"
        assert stats["stripes"] == codec.n_stripes
        assert stats["rebuilt_bytes"] == result.image.nbytes
        assert stats["rebuilt_mb_s"] > 0
        assert stats["placement"] == "flat" and result.ok

    def test_rejects_bad_geometry(self):
        codec, disks = build_image()
        pipe = RebuildPipeline(codec)
        with pytest.raises(IndexError):
            pipe.rebuild(disks, 99)
        with pytest.raises(ValueError):
            pipe.rebuild(disks[:, :-1], 0)
        with pytest.raises(ValueError):
            RebuildPipeline(codec, chunk_stripes=0)


class TestSingleProcess:
    def test_rebuild_starts_no_child_process(self):
        codec, disks = build_image(n_stripes=23)
        children = []

        def on_chunk(chunk, rows):
            children.append(multiprocessing.active_children())

        pipe = RebuildPipeline(codec, chunk_stripes=4, on_chunk=on_chunk)
        result = pipe.rebuild(disks, 3)
        assert np.array_equal(result.image, disks[3])
        assert result.stats["chunks"] >= 2
        assert len(children) == result.stats["chunks"]
        assert all(c == [] for c in children)

    def test_workers_option_is_gone(self):
        codec, _ = build_image()
        with pytest.raises(TypeError):
            RebuildPipeline(codec, workers=2)


class TestConvenienceAndPlanCache:
    def test_plan_cache_round_trip(self, tmp_path):
        store = tmp_path / "plans.json"
        codec, disks = build_image()
        r1 = RebuildPipeline(codec, plan_cache=SchemePlanCache(store)).rebuild(disks, 2)
        cache2 = SchemePlanCache(store)
        r2 = RebuildPipeline(codec, plan_cache=cache2).rebuild(disks, 2)
        assert np.array_equal(r1.image, r2.image)
        assert cache2.misses == 0 and cache2.hits > 0
        assert r2.stats["plan_cache"]["hits"] == cache2.hits

    def test_reuses_supplied_planner(self):
        codec, disks = build_image()
        planner = RecoveryPlanner(codec.code, algorithm="u", depth=1)
        planner.all_disk_schemes()
        pipe = RebuildPipeline(codec, planner=planner)
        result = pipe.rebuild(disks, 0)
        assert np.array_equal(result.image, disks[0])
