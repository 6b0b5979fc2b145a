"""Tests for the rotated whole-array image codec."""

import numpy as np
import pytest

from repro.codec.image import ArrayImageCodec
from repro.codes import EvenOddCode, RdpCode, StarCode
from repro.recovery import RecoveryPlanner


@pytest.fixture(scope="module")
def rdp5():
    return RdpCode(5)


@pytest.fixture(scope="module")
def codec(rdp5):
    return ArrayImageCodec(rdp5, element_size=16, n_stripes=rdp5.layout.n_disks)


@pytest.fixture(scope="module")
def image_and_disks(codec):
    data = codec.random_image(np.random.default_rng(77))
    return data, codec.encode_image(data)


class TestLayout:
    def test_rotation_roundtrip(self, codec):
        lay = codec.code.layout
        for s in range(codec.n_stripes):
            for logical in range(lay.n_disks):
                phys = codec.physical_disk(logical, s)
                assert codec.logical_role(phys, s) == logical

    def test_full_stack_covers_all_roles(self, codec):
        """Across one stack, each physical disk plays every logical role."""
        lay = codec.code.layout
        for phys in range(lay.n_disks):
            roles = {codec.logical_role(phys, s) for s in range(lay.n_disks)}
            assert roles == set(range(lay.n_disks))

    def test_bad_stripe_count(self, rdp5):
        with pytest.raises(ValueError):
            ArrayImageCodec(rdp5, n_stripes=0)


class TestEncodeDecode:
    def test_roundtrip(self, codec, image_and_disks):
        data, disks = image_and_disks
        assert np.array_equal(codec.decode_image(disks), data)

    def test_disk_shapes(self, codec, image_and_disks):
        _, disks = image_and_disks
        lay = codec.code.layout
        assert disks.shape == (
            lay.n_disks,
            codec.n_stripes * lay.k_rows,
            codec.element_size,
        )

    def test_bad_buffer_rejected(self, codec):
        with pytest.raises(ValueError, match="flat buffer"):
            codec.encode_image(np.zeros(10, dtype=np.uint8))

    def test_each_logical_stripe_is_codeword(self, codec, image_and_disks):
        _, disks = image_and_disks
        for s in range(codec.n_stripes):
            stripe = codec._logical_stripe(disks, s)
            assert codec.codec.check_stripe(stripe)


def reference_encode_image(codec, data):
    """The per-stripe, per-row encode loop ``encode_image`` replaced."""
    lay = codec.code.layout
    disks = np.zeros(
        (lay.n_disks, codec.n_stripes * lay.k_rows, codec.element_size),
        dtype=np.uint8,
    )
    per_stripe = codec.data_bytes_per_stripe
    for s in range(codec.n_stripes):
        chunk = data[s * per_stripe : (s + 1) * per_stripe].reshape(
            lay.n_data_elements, codec.element_size
        )
        stripe = codec.codec.encode(chunk)
        for logical in range(lay.n_disks):
            phys = codec.physical_disk(logical, s)
            for row in range(lay.k_rows):
                disks[phys, s * lay.k_rows + row] = stripe[lay.eid(logical, row)]
    return disks


def reference_decode_image(codec, disks):
    """The per-stripe, per-row gather ``decode_image`` replaced."""
    lay = codec.code.layout
    out = np.empty(codec.total_data_bytes, dtype=np.uint8)
    per_stripe = codec.data_bytes_per_stripe
    for s in range(codec.n_stripes):
        view = out[s * per_stripe : (s + 1) * per_stripe].reshape(
            lay.n_data_elements, codec.element_size
        )
        for logical in range(lay.n_data):
            phys = codec.physical_disk(logical, s)
            for row in range(lay.k_rows):
                view[lay.eid(logical, row)] = disks[phys, s * lay.k_rows + row]
    return out


class TestVectorisedMatchesReference:
    @pytest.mark.parametrize(
        "code, element_size, n_stripes",
        [
            (RdpCode(5), 16, 6),
            (EvenOddCode(5), 3, 11),       # partial rotation stack
            (StarCode(5), 1, 1),
            (RdpCode(7), 4096, 19),        # five 4-stripe encode chunks
        ],
        ids=["rdp5", "evenodd5-esz3", "star5-one-stripe", "rdp7-chunks"],
    )
    def test_byte_identical(self, code, element_size, n_stripes):
        codec = ArrayImageCodec(code, element_size=element_size,
                                n_stripes=n_stripes)
        data = codec.random_image(np.random.default_rng(n_stripes))
        disks = codec.encode_image(data)
        assert np.array_equal(disks, reference_encode_image(codec, data))
        assert np.array_equal(
            codec.decode_image(disks), reference_decode_image(codec, disks)
        )
        assert np.array_equal(codec.decode_image(disks), data)


class TestRecovery:
    @pytest.mark.parametrize("failed", [0, 3, 5])  # data and parity positions
    def test_rebuild_any_physical_disk(self, codec, image_and_disks, failed):
        _, disks = image_and_disks
        assert codec.verify_recovery(disks, failed)

    def test_out_of_range(self, codec, image_and_disks):
        _, disks = image_and_disks
        with pytest.raises(IndexError):
            codec.recover_disk(disks, 99)

    def test_read_counts_balanced_for_u(self, rdp5, image_and_disks):
        """Over a full stack, U-schemes spread physical reads evenly."""
        _, disks = image_and_disks
        codec = ArrayImageCodec(rdp5, element_size=16, n_stripes=rdp5.layout.n_disks)
        planner = RecoveryPlanner(rdp5, algorithm="u", depth=1)
        result = codec.recover_disk(disks, 0, planner)
        reads = [c for d, c in enumerate(result["reads_per_disk"]) if d != 0]
        # every surviving disk participates; spread within a modest factor
        assert min(reads) > 0
        assert max(reads) <= 2 * min(reads)

    def test_khan_vs_u_total_reads(self, rdp5, image_and_disks):
        """Over a full stack the rotation equalises per-physical-disk totals
        for any scheme family (each disk plays every role once), so the
        load-balance benefit lives *within* stripes, not in the aggregate:
        the aggregate only reflects total read volume."""
        _, disks = image_and_disks
        codec = ArrayImageCodec(rdp5, element_size=16, n_stripes=rdp5.layout.n_disks)
        khan = codec.recover_disk(disks, 0, RecoveryPlanner(rdp5, "khan", depth=1))
        u = codec.recover_disk(disks, 0, RecoveryPlanner(rdp5, "u", depth=1))
        assert sum(u["reads_per_disk"]) >= sum(khan["reads_per_disk"])
        # rotation equalises: surviving disks differ by at most the per-role
        # variation of a single stripe
        survivors = [c for d, c in enumerate(u["reads_per_disk"]) if d != 0]
        assert max(survivors) - min(survivors) <= rdp5.layout.k_rows

    def test_other_codes(self):
        for code in (EvenOddCode(5), StarCode(5)):
            codec = ArrayImageCodec(code, element_size=8, n_stripes=4)
            data = codec.random_image(np.random.default_rng(9))
            disks = codec.encode_image(data)
            assert codec.verify_recovery(disks, 1)
