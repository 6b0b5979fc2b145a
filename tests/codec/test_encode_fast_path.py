"""Differential suite for the in-place encode path.

:meth:`StripeCodec.encode_into` (the ``xor_batch`` kernel where it is
available) must equal the numpy fold and the per-stripe
:meth:`StripeCodec.encode` on every registry family, vertical codes
included, across chunk boundaries.  :meth:`PoolStore.encode_random` must
reproduce the bytes of the whole-store draw it replaced, and must not hold
a full-size data temporary while it fills the store.
"""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.codec import StripeCodec
from repro.codes import make_code
from repro.codes.registry import FAMILIES
from repro.placement import PoolStore, make_placement
from repro.recovery import ckernel

#: one small instance per registry family
DISKS = {"raid4": 5, "mdr": 6, "xcode": 7}
CODES = {family: make_code(family, DISKS.get(family, 8)) for family in FAMILIES}


def reference_encode_batch(code, data):
    """The whole-batch numpy encoder the in-place path replaced."""
    esz = data.shape[2]
    stripes = np.empty((data.shape[0], code.layout.n_elements, esz), np.uint8)
    stripes[:, code.data_eids()] = data
    for eid, row in zip(code.parity_eids(), code.generator_bitmatrix().rows):
        sources = [i for i in range(row.bit_length()) if (row >> i) & 1]
        if sources:
            np.bitwise_xor.reduce(data[:, sources], axis=1, out=stripes[:, eid])
        else:
            stripes[:, eid] = 0
    return stripes


def reference_encode_random(store, rng):
    """``encode_random``'s old formula: one uint8 draw of every data byte."""
    data = rng.integers(
        0, 256,
        size=(store.n_stripes, store.codec.n_data_elements, store.element_size),
        dtype=np.uint8,
    )
    return reference_encode_batch(store.code, data)


def random_batch(codec, n_stripes, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 256, size=(n_stripes, codec.n_data_elements, codec.element_size),
        dtype=np.uint8,
    )


class TestEncodeInto:
    @pytest.mark.parametrize("element_size", [1, 3, 8, 4096])
    @pytest.mark.parametrize("family", sorted(CODES))
    def test_kernel_equals_fold_equals_per_stripe(self, family, element_size):
        codec = StripeCodec(CODES[family], element_size)
        step = codec.chunk_stripes
        n = step + 3  # two chunks, the last one partial
        data = random_batch(codec, n, seed=element_size)
        got = codec.encode_batch(data)
        folded = np.empty_like(got)
        codec.place_data(folded, data)
        codec._fold_into(folded)
        assert np.array_equal(got, folded)
        assert np.array_equal(got, reference_encode_batch(codec.code, data))
        for s in (0, step - 1, step, n - 1):
            assert np.array_equal(got[s], codec.encode(data[s]))

    @pytest.mark.parametrize("family", ["rdp", "xcode", "cauchy_rs"])
    def test_refused_kernel_falls_back_per_chunk(self, family, monkeypatch):
        codec = StripeCodec(CODES[family], 4096)
        data = random_batch(codec, 2 * codec.chunk_stripes + 1, seed=1)
        want = codec.encode_batch(data)
        calls = []

        def refuse(*args):
            calls.append(1)
            return False

        monkeypatch.setattr(ckernel, "xor_batch", refuse)
        assert np.array_equal(codec.encode_batch(data), want)
        assert len(calls) == 3

    def test_non_contiguous_block_is_encoded(self):
        codec = StripeCodec(CODES["rdp"], 16)
        data = random_batch(codec, 10, seed=2)
        want = codec.encode_batch(data)
        wide = np.zeros((10, codec.code.layout.n_elements, 32), np.uint8)
        block = wide[:, :, :16]  # the kernel refuses non-contiguous buffers
        codec.place_data(block, data)
        codec.encode_into(block)
        assert np.array_equal(block, want)
        assert not wide[:, :, 16:].any()

    def test_empty_batch(self):
        codec = StripeCodec(CODES["rdp"], 8)
        out = codec.encode_batch(random_batch(codec, 0, seed=0))
        assert out.shape == (0, codec.code.layout.n_elements, 8)

    @pytest.mark.parametrize(
        "delta, dtype",
        [((0, -1, 0), np.uint8), ((0, 0, 1), np.uint8), ((0, 0, 0), np.int16)],
    )
    def test_bad_block_rejected(self, delta, dtype):
        codec = StripeCodec(CODES["rdp"], 8)
        good = (2, codec.code.layout.n_elements, 8)
        shape = tuple(g + d for g, d in zip(good, delta))
        with pytest.raises(ValueError, match="stripe block"):
            codec.encode_into(np.zeros(shape, dtype))
        with pytest.raises(ValueError, match="stripe block"):
            codec.encode_into(np.zeros(good[1:], np.uint8))


def make_store(family, element_size, n_stripes):
    code = CODES[family]
    width = code.layout.n_disks
    pm = make_placement("declustered", 3 * width, n_stripes, width, seed=0)
    return PoolStore(code, pm, element_size=element_size)


class TestEncodeRandom:
    @pytest.mark.parametrize("advance", [0, 5], ids=["fresh", "odd-advanced"])
    @pytest.mark.parametrize(
        "family, element_size",
        [("rdp", 3), ("rdp", 4096), ("xcode", 3), ("cauchy_rs", 8), ("mdr", 1)],
    )
    def test_same_bytes_as_the_whole_store_draw(self, family, element_size,
                                                advance):
        probe = make_store(family, element_size, 1)
        store = make_store(family, element_size, probe.codec.chunk_stripes + 3)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for rng in (ours, theirs):
            rng.integers(0, 256, size=advance, dtype=np.uint8)
        got = store.encode_random(ours)
        assert np.array_equal(got, reference_encode_random(store, theirs))
        # the generators are left in the same state, too
        assert np.array_equal(
            ours.integers(0, 256, size=7, dtype=np.uint8),
            theirs.integers(0, 256, size=7, dtype=np.uint8),
        )

    def test_no_full_size_temporary(self):
        """numpy reports its buffers to tracemalloc, so the traced peak
        over ``encode_random`` is the store plus the chunk temporaries."""
        store = make_store("rdp", 1024, 256)
        data_bytes = store.n_stripes * store.codec.n_data_elements * 1024
        assert data_bytes > 4 << 20  # a full data temporary would not fit
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            store.encode_random(np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.stored_bytes <= peak <= store.stored_bytes + (4 << 20)


class TestSpans:
    def test_one_datagen_and_one_encode_span_per_call(self):
        store = make_store("rdp", 4096, 3 * 8 + 1)
        rec = obs.enable("encode spans")
        try:
            store.encode_random(np.random.default_rng(0))
            store.codec.encode_batch(random_batch(store.codec, 20, seed=0))
        finally:
            obs.disable()
        names = [s.name for s in rec.spans]
        assert names == ["codec.datagen", "codec.encode", "codec.encode"]
        assert [s.attrs["stripes"] for s in rec.spans] == [25, 25, 20]
