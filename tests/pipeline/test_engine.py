"""Rebuild-engine correctness: every path byte-identical to the legacy
per-stripe rebuild, reads accounting preserved, failures surfaced."""

import multiprocessing

import numpy as np
import pytest

from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.pipeline import RebuildPipeline, rebuild_disk
from repro.recovery import RecoveryPlanner, SchemePlanCache


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
        codec, disks = build_image()
        legacy = codec.recover_disk(disks, 2)
        pipe = RebuildPipeline(codec, chunk_stripes=5)
        result = pipe.rebuild(disks, 2)
        assert np.array_equal(result.image, legacy["image"])
        assert result.reads_per_disk == legacy["reads_per_disk"]

    def test_stripe_loop_oracle_matches_batch(self):
        codec, disks = build_image(n_stripes=11)
        pipe = RebuildPipeline(codec, chunk_stripes=3)
        batch = pipe.rebuild(disks, 4)
        loop = pipe.rebuild(disks, 4, use_batch=False)
        assert np.array_equal(batch.image, loop.image)
        assert batch.reads_per_disk == loop.reads_per_disk
        assert loop.stats["mode"] == "stripe-loop"

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
        assert result.mb_per_s == stats["rebuilt_mb_s"]

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
    def test_rebuild_disk_wrapper(self):
        codec, disks = build_image()
        result = rebuild_disk(codec, disks, 1, chunk_stripes=4)
        assert np.array_equal(result.image, disks[1])

    def test_plan_cache_round_trip(self, tmp_path):
        store = tmp_path / "plans.json"
        codec, disks = build_image()
        r1 = rebuild_disk(codec, disks, 2, plan_cache=SchemePlanCache(store))
        cache2 = SchemePlanCache(store)
        r2 = rebuild_disk(codec, disks, 2, plan_cache=cache2)
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
