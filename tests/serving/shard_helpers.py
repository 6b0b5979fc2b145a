"""Shared fixtures for the in-process serving tests: an encoded array, a
whole-range :class:`ShardServer` over it, and a rebuild that advances the
server's frontier the way the engine's parent loop does."""

import numpy as np

from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.pipeline import RebuildPipeline
from repro.serving import ShardServer


def build(family="rdp", n_disks=7, element_size=16, n_stripes=12, seed=7):
    code = make_code(family, n_disks)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks


def make_server(codec, disks, failed_disk, **kw):
    """A shard owning every stripe, with an empty patch map."""
    total_rows = codec.n_stripes * codec.code.layout.k_rows
    patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
    return ShardServer(
        codec, disks, patched, failed_disk, stripe_lo=0,
        stripe_hi=codec.n_stripes, **kw,
    )


def rebuild_frontier(server, chunk_stripes=4):
    """Rebuild the failed disk chunk by chunk: write each chunk's rows
    into the patch map, then advance the server's frontier."""
    codec = server.codec
    k = codec.code.layout.k_rows

    def on_chunk(chunk, rows):
        row_idx = (chunk.stripe_ids[:, None] * k + np.arange(k)).reshape(-1)
        server.patched[row_idx] = rows.reshape(-1, codec.element_size)
        server.note_rebuilt(chunk.stripe_ids)

    pipe = RebuildPipeline(
        codec, chunk_stripes=chunk_stripes, planner=server.plans.planner,
        on_chunk=on_chunk,
    )
    return pipe.rebuild(server.disks, server.failed_disk)
