"""QoS primitives: percentiles, token bucket, the board-steered rebuild
throttle."""

import time

import numpy as np
import pytest

from repro.serving import RebuildThrottle, TokenBucket, percentile
from repro.serving import qos as qos_mod
from repro.serving.shm import BOARD_FIELDS, BOARD_P99_MS, BOARD_SERVED


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank_known_values(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(data, 0.5) == 5.0
        assert percentile(data, 0.99) == 10.0
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestTokenBucket:
    def test_uncapped_never_blocks(self):
        b = TokenBucket(rate=None)
        assert b.acquire() == 0.0
        assert b.acquire(100.0) == 0.0

    def test_capped_rate_paces(self):
        # capacity 1 token, 200 tokens/s: 3 extra tokens need ~15ms
        b = TokenBucket(rate=200.0, capacity=1.0)
        b.acquire()  # drain the initial token
        t0 = time.perf_counter()
        for _ in range(3):
            b.acquire()
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.010

    def test_max_wait_caps_blocking_and_takes_tokens(self):
        b = TokenBucket(rate=1.0, capacity=1.0)
        b.acquire()
        t0 = time.perf_counter()
        waited = b.acquire(max_wait=0.02)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5
        assert waited <= 0.02 + 1e-6

    def test_set_rate_validates(self):
        b = TokenBucket(rate=1.0)
        with pytest.raises(ValueError):
            b.set_rate(0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=0.0)


class TestRebuildThrottle:
    @pytest.fixture(autouse=True)
    def _adjust_every_call(self, monkeypatch):
        monkeypatch.setattr(qos_mod, "ADJUST_INTERVAL_S", 0.0)

    def _board(self, p99_ms=0.0, served=100, n_shards=2):
        board = np.zeros((n_shards, BOARD_FIELDS), dtype=np.float64)
        board[0, BOARD_SERVED] = served
        board[0, BOARD_P99_MS] = p99_ms
        return board

    def _chunk(self, throttle, seconds):
        throttle.before_chunk()
        time.sleep(seconds)
        throttle.after_chunk()

    def test_worst_p99_ignores_underreporting_shards(self):
        board = self._board(p99_ms=5.0)
        board[1, BOARD_SERVED] = qos_mod.MIN_SERVED - 1  # not trusted yet
        board[1, BOARD_P99_MS] = 500.0
        throttle = RebuildThrottle(board, target_p99_ms=10.0)
        assert throttle.board_p99_ms() == 5.0
        board[1, BOARD_SERVED] = qos_mod.MIN_SERVED
        assert throttle.board_p99_ms() == 500.0

    def test_aimd_decreases_over_target_and_recovers(self):
        board = self._board()
        throttle = RebuildThrottle(board, target_p99_ms=10.0, rate=8.0)
        throttle._ema_chunk_s = 1.0  # floor ~0.74, ceiling ~14.8 chunks/s
        board[0, BOARD_P99_MS] = 50.0  # over target -> cut
        throttle._maybe_adjust()
        assert throttle.bucket.rate == 8.0 * qos_mod.DECREASE
        assert throttle.rate_decreases == 1
        board[0, BOARD_P99_MS] = 2.0  # comfortably under -> ramp
        throttle._maybe_adjust()
        assert throttle.bucket.rate == pytest.approx(
            8.0 * qos_mod.DECREASE * qos_mod.INCREASE
        )
        assert throttle.rate_increases == 1
        board[0, BOARD_P99_MS] = 9.0  # under target, not comfortably: hold
        throttle._maybe_adjust()
        assert throttle.rate_increases == 1
        assert throttle.rate_decreases == 1

    def test_overload_throttles_to_floor(self):
        throttle = RebuildThrottle(self._board(p99_ms=50.0), target_p99_ms=5.0)
        self._chunk(throttle, 0.01)  # one timed chunk sets the EMA
        throttle._maybe_adjust()
        floor = 1.0 / (throttle._ema_chunk_s * (1.0 + qos_mod.MAX_INFLATION))
        assert throttle.rate_floor() == pytest.approx(floor)
        assert throttle.bucket.rate == pytest.approx(floor)
        assert throttle.rate_decreases == 1

    def test_rate_floor_holds(self):
        throttle = RebuildThrottle(
            self._board(p99_ms=1e6), target_p99_ms=1.0, rate=400.0
        )
        self._chunk(throttle, 0.005)
        for _ in range(20):
            throttle._maybe_adjust()
        assert throttle.bucket.rate == pytest.approx(throttle.rate_floor())
        # slower chunks lower the floor and the cuts follow it down; a fast
        # chunk then raises the floor, and the rate is lifted with it
        throttle._ema_chunk_s = 0.5
        for _ in range(20):
            throttle._maybe_adjust()
        low = throttle.bucket.rate
        assert low == pytest.approx(throttle.rate_floor())
        self._chunk(throttle, 0.0)
        assert throttle.bucket.rate > low
        assert throttle.bucket.rate == pytest.approx(throttle.rate_floor())

    def test_floor_bounds_pacing_inflation(self):
        # even under permanent overload the pacing delay per chunk is
        # bounded by MAX_INFLATION times the chunk EMA
        throttle = RebuildThrottle(self._board(p99_ms=1e6), target_p99_ms=1.0)
        for _ in range(3):
            self._chunk(throttle, 0.004)
        for _ in range(5):
            ema = throttle._ema_chunk_s
            waited = throttle.before_chunk()
            throttle.after_chunk()
            assert waited <= ema * qos_mod.MAX_INFLATION + 1e-3

    def test_recovery_reaccelerates(self):
        board = self._board(p99_ms=50.0)
        throttle = RebuildThrottle(board, target_p99_ms=5.0)
        self._chunk(throttle, 0.005)
        throttle._maybe_adjust()
        throttled = throttle.bucket.rate
        assert throttled is not None
        board[0, BOARD_P99_MS] = 0.1  # latencies recover well under target
        throttle._maybe_adjust()
        assert throttle.rate_increases == 1
        assert throttle.bucket.rate > throttled
        for _ in range(100):
            throttle._maybe_adjust()
        assert throttle.bucket.rate is None  # past the ceiling: uncapped

    def test_no_target_means_no_adjustment(self):
        throttle = RebuildThrottle(
            self._board(p99_ms=1e6), target_p99_ms=None, rate=20.0
        )
        self._chunk(throttle, 0.0)  # floor far above the fixed rate
        throttle._maybe_adjust()
        assert throttle.bucket.rate == 20.0
        assert throttle.rate_decreases == throttle.rate_increases == 0
        # and no wait is capped: the bucket paces at exactly 20 chunks/s
        throttle.before_chunk()  # drain the burst capacity
        waited = throttle.before_chunk()
        throttle.after_chunk()
        assert waited >= 0.04
        assert throttle.bucket.rate == 20.0

    def test_stats_keys(self):
        throttle = RebuildThrottle(self._board(), target_p99_ms=5.0)
        self._chunk(throttle, 0.0)
        stats = throttle.stats()
        for key in (
            "target_p99_ms",
            "rebuild_rate",
            "ema_chunk_ms",
            "throttle_wait_s",
            "rate_decreases",
            "rate_increases",
            "chunks_admitted",
            "board_p99_ms",
        ):
            assert key in stats
        assert stats["chunks_admitted"] == 1


class TestQosController:
    """Constructor checks of the throttle's QoS side: the p99 target and
    the starting rebuild rate."""

    def test_constructor_validation(self):
        board = np.zeros((2, BOARD_FIELDS))
        for kw in (
            {"target_p99_ms": 0.0},
            {"target_p99_ms": -1.0},
            {"rate": 0.0},
            {"rate": -2.0},
        ):
            with pytest.raises(ValueError):
                RebuildThrottle(board, **kw)
        # no target and no rate is a valid, never-adjusting throttle
        throttle = RebuildThrottle(board)
        assert throttle.target_p99_ms is None
        assert throttle.bucket.rate is None
