"""Pipeline throttle / on_chunk hook contract: call order, per-chunk
cardinality, and on_chunk views matching the final rebuilt image."""

import numpy as np
import pytest

from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.pipeline import RebuildPipeline


def build_image(n_stripes=23, element_size=32, seed=2):
    code = make_code("rdp", 7)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks


def test_hooks_fire_once_per_chunk_in_order():
    codec, disks = build_image()
    throttled = []
    completed = []
    captured = {}

    def throttle(chunk):
        throttled.append(chunk.chunk_id)

    def on_chunk(chunk, rows):
        completed.append(chunk.chunk_id)
        # the view is only valid during the callback: copy to compare later
        captured[chunk.chunk_id] = (chunk.stripe_ids.copy(), rows.copy())

    pipe = RebuildPipeline(
        codec,
        chunk_stripes=4,
        throttle=throttle,
        on_chunk=on_chunk,
    )
    result = pipe.rebuild(disks, 0)
    assert np.array_equal(result.image, disks[0])

    n_chunks = result.stats["chunks"]
    assert throttled == list(range(n_chunks))
    assert completed == list(range(n_chunks))

    k = codec.code.layout.k_rows
    for stripe_ids, rows in captured.values():
        assert rows.shape == (len(stripe_ids), k, codec.element_size)
        for i, s in enumerate(stripe_ids):
            want = result.image[s * k : (s + 1) * k]
            assert np.array_equal(rows[i], want), int(s)


def test_throttle_exception_aborts_rebuild():
    codec, disks = build_image(n_stripes=8)

    def throttle(chunk):
        raise RuntimeError("admission denied")

    pipe = RebuildPipeline(codec, chunk_stripes=4, throttle=throttle)
    with pytest.raises(RuntimeError, match="admission denied"):
        pipe.rebuild(disks, 0)


def test_hooks_default_to_none():
    codec, disks = build_image(n_stripes=8)
    pipe = RebuildPipeline(codec, chunk_stripes=4)
    assert pipe.throttle is None and pipe.on_chunk is None
    result = pipe.rebuild(disks, 0)
    assert np.array_equal(result.image, disks[0])
