"""Chunking of the one rebuild loop (:class:`PoolRebuild`) on the rotated
array, i.e. the flat placement over the array's own disks: the role
groups are the rotation classes, every stripe lands in exactly one chunk,
and every chunk carries one role."""

import numpy as np
import pytest

from repro.codes import make_code
from repro.pipeline import PoolRebuild, StripeChunk
from repro.placement import PoolStore, make_placement, role_groups


def array_placement(n_stripes, n_disks=7):
    return make_placement("flat", n_disks, n_stripes, n_disks)


def rebuild_chunks(n_stripes, n_disks, failed, chunk_stripes):
    """Rebuild ``failed`` of a rotated array; returns the chunks in the
    order the throttle saw them."""
    code = make_code("rdp", n_disks)
    store = PoolStore(code, array_placement(n_stripes, n_disks), element_size=8)
    store.encode_random(np.random.default_rng(n_stripes))
    chunks = []
    engine = PoolRebuild(store, chunk_stripes=chunk_stripes, throttle=chunks.append)
    result = engine.rebuild(failed)
    assert result.ok
    assert result.stats["chunks"] == len(chunks)
    return chunks


class TestRotationClasses:
    def test_partition_covers_everything(self):
        groups = list(role_groups(array_placement(23), 0))
        seen = np.concatenate([ids for _, ids in groups])
        assert sorted(seen.tolist()) == list(range(23))

    def test_members_share_rotation(self):
        for role, stripes in role_groups(array_placement(40), 2):
            assert all((2 - s) % 7 == role for s in stripes.tolist())
            assert len({s % 7 for s in stripes.tolist()}) == 1

    def test_empty_image(self):
        # fewer stripes than disks: the empty rotation classes yield no
        # group and no chunk
        assert len(list(role_groups(array_placement(3, 5), 0))) == 3
        assert len(rebuild_chunks(3, 5, failed=0, chunk_stripes=4)) == 3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            array_placement(0, 5)
        with pytest.raises(IndexError):
            list(role_groups(array_placement(5, 5), 5))


class TestIterChunks:
    def test_every_stripe_exactly_once(self):
        chunks = rebuild_chunks(37, 7, failed=3, chunk_stripes=4)
        seen = sorted(s for c in chunks for s in c.stripe_ids.tolist())
        assert seen == list(range(37))

    def test_chunk_ids_dense_and_ordered(self):
        chunks = rebuild_chunks(37, 7, failed=0, chunk_stripes=4)
        assert [c.chunk_id for c in chunks] == list(range(len(chunks)))

    def test_chunks_homogeneous(self):
        for c in rebuild_chunks(50, 7, failed=2, chunk_stripes=3):
            assert isinstance(c, StripeChunk)
            assert len(c.stripe_ids) <= 3
            assert np.all(np.diff(c.stripe_ids) > 0)
            for s in c.stripe_ids.tolist():
                assert (2 - s % 7) % 7 == c.role

    def test_chunk_size_one(self):
        chunks = rebuild_chunks(10, 5, failed=1, chunk_stripes=1)
        assert all(c.n_stripes == 1 for c in chunks)
        assert len(chunks) == 10

    def test_oversized_chunk_is_one_per_class(self):
        chunks = rebuild_chunks(21, 7, failed=0, chunk_stripes=999)
        assert len(chunks) == 7  # one per non-empty rotation class

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rebuild_chunks(10, 5, 0, chunk_stripes=0)
        with pytest.raises(IndexError):
            rebuild_chunks(10, 5, 5, chunk_stripes=1)
