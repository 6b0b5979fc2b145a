"""Property suite: served degraded reads are byte-identical to direct
plan execution and to the pristine encoding, including multi-row groups
and reads racing the rebuild frontier."""

import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec import ArrayImageCodec
from repro.codes import CauchyRSCode, EvenOddCode, RdpCode
from repro.recovery import degraded_read_scheme, serve_degraded_read
from tests.serving.shard_helpers import make_server, rebuild_frontier

small_codes = st.sampled_from(
    [RdpCode(5), RdpCode(7), EvenOddCode(5), CauchyRSCode(4, 2, w=4)]
)

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def build_server(code, failed_disk, n_stripes=3, seed=5):
    codec = ArrayImageCodec(code, element_size=8, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks.copy(), make_server(codec, disks, failed_disk)


@given(code=small_codes, data=st.data())
@settings(**SETTINGS)
def test_engine_matches_pristine_and_direct_plan(code, data):
    """ShardServer.read == pristine bytes == serve_degraded_read of a
    dedicated degraded-read scheme, for every element of the failed disk."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    row = data.draw(st.integers(0, lay.k_rows - 1), label="row")
    stripe_i = data.draw(st.integers(0, 2), label="stripe")
    codec, original, server = build_server(code, failed)

    global_row = stripe_i * lay.k_rows + row
    served = server.read(failed, global_row)
    assert np.array_equal(served, original[failed, global_row])

    # direct execution of a dedicated (non-sliced) degraded-read scheme
    # over the same stripe must agree byte-for-byte
    logical = codec.logical_role(failed, stripe_i)
    scheme = degraded_read_scheme(code, logical, rows=[row], algorithm="u")
    stripe = codec._logical_stripe(original, stripe_i)
    masked = stripe.copy()
    for _, lrow in lay.iter_elements(lay.disk_mask(logical)):
        masked[lay.eid(logical, lrow)] = 0
    out = serve_degraded_read(code, scheme, masked)
    eid = lay.eid(logical, row)
    assert np.array_equal(out[eid], stripe[eid])
    assert np.array_equal(served, stripe[eid])


@given(code=small_codes, data=st.data())
@settings(max_examples=5, deadline=None)
def test_coalesced_multi_row_reads_match_pristine(code, data):
    """One drained batch holding several rows of every stripe (the
    grouped-reconstruction path) answers every request byte-exactly."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    rows = data.draw(
        st.sets(st.integers(0, lay.k_rows - 1), min_size=2, max_size=lay.k_rows),
        label="rows",
    )
    codec, original, server = build_server(code, failed)
    glob = np.asarray(
        [s * lay.k_rows + r for s in range(codec.n_stripes) for r in sorted(rows)]
    )
    _, got = server._serve_batch(
        np.full(len(glob), failed), glob, want_data=True
    )
    for t, row in enumerate(glob):
        assert np.array_equal(got[t], original[failed, row]), row
    assert server.mismatches == 0
    assert server.n_batches == 1


@given(code=small_codes, data=st.data())
@settings(max_examples=5, deadline=None)
def test_reads_racing_the_rebuild_frontier(code, data):
    """Reads issued while the rebuild frontier advances (through
    note_rebuilt) are byte-exact regardless of which side of the
    frontier they land on."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    codec, original, server = build_server(code, failed, n_stripes=8, seed=seed)
    total_rows = codec.n_stripes * lay.k_rows
    done = threading.Event()
    result = []

    def rebuild():
        try:
            result.append(rebuild_frontier(server, chunk_stripes=2))
        finally:
            done.set()

    thread = threading.Thread(target=rebuild)
    thread.start()
    rng = np.random.default_rng(seed)
    mismatches = []
    while not done.is_set():
        row = int(rng.integers(total_rows))
        if not np.array_equal(server.read(failed, row), original[failed, row]):
            mismatches.append(row)
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert not mismatches
    assert server.mismatches == 0
    assert np.array_equal(result[0].image, original[failed])
