"""QoS scheduling for rebuild-vs-reads contention.

The paper's premise is that recovery shares the array with foreground
traffic; the operational question is *how much* rebuild bandwidth to admit
while user reads stay within their latency target.  This module implements
the classic answer:

* :class:`TokenBucket` — admission control for rebuild chunk dispatch; one
  token buys one chunk, the refill rate *is* the rebuild rate;
* :class:`RebuildThrottle` — the feedback loop around the bucket.  The
  rebuild runs in the parent process while reads are served by shard
  workers, so the throttle steers on what the shards publish: the worst
  per-shard p99 on the shared latency board.  Over target the chunk rate
  is cut multiplicatively (AIMD); comfortably under target it ramps back.
  The rate never drops below a floor derived from the parent's own
  chunk timings, which *bounds rebuild-completion inflation by
  construction*: with floor ``1 / (ema_chunk_s * (1 + MAX_INFLATION))``
  the added pacing delay per chunk is at most ``MAX_INFLATION`` times the
  chunk's own duration.

The throttle's counters and gauges are ``serving.*`` obs metrics (see
``docs/observability.md``).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.serving.shm import BOARD_P99_MS, BOARD_SERVED

#: multiplicative rate cut when the board p99 is over target
DECREASE = 0.5
#: multiplicative ramp when the board p99 is comfortably under target
INCREASE = 1.2
#: "comfortably under": p99 at most this fraction of the target
RECOVER_FRACTION = 0.8
#: minimum spacing between rate adjustments, seconds
ADJUST_INTERVAL_S = 0.05
#: a shard's p99 is trusted once it has served this many reads
MIN_SERVED = 32
#: per-chunk pacing delay bound, as a fraction of the chunk EMA
MAX_INFLATION = 0.35
#: weight of the newest chunk duration in the EMA
EMA_WEIGHT = 0.3
#: a ramp past this multiple of the floor uncaps the bucket
CEILING_FACTOR = 20.0
#: wait cap before the first chunk has been timed, seconds
FIRST_CHUNK_MAX_WAIT_S = 0.05


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    data = sorted(values)
    rank = max(1, math.ceil(q * len(data)))
    return data[rank - 1]


class TokenBucket:
    """Token-bucket admission control.

    ``rate=None`` means uncapped: :meth:`acquire` returns immediately.
    Tokens accumulate up to ``capacity`` so short bursts after an idle
    spell are not penalised.
    """

    def __init__(self, rate: Optional[float] = None, capacity: float = 2.0) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rate = rate
        self._tokens = capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    @property
    def rate(self) -> Optional[float]:
        return self._rate

    def set_rate(self, rate: Optional[float]) -> None:
        """Change the refill rate; accumulated tokens are kept."""
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        with self._lock:
            self._refill()
            self._rate = rate

    def _refill(self) -> None:
        now = time.monotonic()
        if self._rate is not None:
            self._tokens = min(
                self.capacity, self._tokens + (now - self._last) * self._rate
            )
        else:
            self._tokens = self.capacity
        self._last = now

    def acquire(self, tokens: float = 1.0, max_wait: Optional[float] = None) -> float:
        """Block until ``tokens`` are available; returns seconds waited.

        ``max_wait`` caps the blocking time — on timeout the tokens are
        taken anyway (admission control must never wedge the rebuild).
        """
        waited = 0.0
        while True:
            with self._lock:
                self._refill()
                if self._tokens >= tokens or self._rate is None:
                    self._tokens -= tokens
                    return waited
                need = (tokens - self._tokens) / self._rate
            if max_wait is not None and waited + need > max_wait:
                sleep_for = max(0.0, max_wait - waited)
                if sleep_for:
                    time.sleep(sleep_for)
                with self._lock:
                    self._refill()
                    self._tokens -= tokens
                return waited + sleep_for
            time.sleep(need)
            waited += need


class RebuildThrottle:
    """Rebuild-chunk admission steering on the shared latency board.

    Parameters
    ----------
    board:
        The ``n_shards x BOARD_FIELDS`` latency board
        (:class:`~repro.serving.shm.SharedServingState.board`); the
        throttle reads the worst p99 among shards that have served at
        least :data:`MIN_SERVED` reads.
    target_p99_ms:
        The read-latency objective.  ``None`` disables steering: the
        rate is never adjusted and no wait is capped, so the bucket
        paces at exactly ``rate``.
    rate:
        Initial chunk rate (chunks/s); ``None`` starts uncapped.

    The rebuild loop calls :meth:`before_chunk` (admission) and
    :meth:`after_chunk` (folds the chunk's duration into the EMA that
    sets the rate floor) around every chunk, from one thread.
    """

    def __init__(
        self,
        board: np.ndarray,
        target_p99_ms: Optional[float] = None,
        rate: Optional[float] = None,
    ) -> None:
        if target_p99_ms is not None and target_p99_ms <= 0:
            raise ValueError(f"target_p99_ms must be positive, got {target_p99_ms}")
        self.board = board
        self.target_p99_ms = target_p99_ms
        self.bucket = TokenBucket(rate=rate)
        self._ema_chunk_s: Optional[float] = None
        self._chunk_t0: Optional[float] = None
        self._last_adjust = time.monotonic()
        self.rate_decreases = 0
        self.rate_increases = 0
        self.throttle_wait_s = 0.0
        self.chunks_admitted = 0

    def board_p99_ms(self) -> float:
        """Worst published p99 across shards with enough samples."""
        served = self.board[:, BOARD_SERVED]
        p99 = self.board[:, BOARD_P99_MS]
        mask = served >= MIN_SERVED
        return float(p99[mask].max()) if mask.any() else 0.0

    def rate_floor(self) -> Optional[float]:
        """Lowest rate that keeps per-chunk pacing within the bound."""
        if not self._ema_chunk_s:
            return None
        return 1.0 / (self._ema_chunk_s * (1.0 + MAX_INFLATION))

    def _set_rate(self, rate: Optional[float]) -> None:
        self.bucket.set_rate(rate)
        gauge = rate if rate is not None else CEILING_FACTOR * self.rate_floor()
        obs.gauge("serving.rebuild_rate", gauge)

    def _maybe_adjust(self) -> None:
        if self.target_p99_ms is None:
            return
        now = time.monotonic()
        if now - self._last_adjust < ADJUST_INTERVAL_S:
            return
        self._last_adjust = now
        floor = self.rate_floor()
        p99 = self.board_p99_ms()
        if floor is None or p99 <= 0.0:
            return
        rate = self.bucket.rate
        if p99 > self.target_p99_ms:
            new_rate = floor if rate is None else max(floor, rate * DECREASE)
            if rate is None or new_rate < rate:
                self._set_rate(new_rate)
                self.rate_decreases += 1
                obs.count("serving.rate_decreases")
        elif rate is not None and p99 <= RECOVER_FRACTION * self.target_p99_ms:
            new_rate = rate * INCREASE
            self._set_rate(None if new_rate >= CEILING_FACTOR * floor else new_rate)
            self.rate_increases += 1
            obs.count("serving.rate_increases")

    def _max_chunk_wait(self) -> Optional[float]:
        if self.target_p99_ms is None:
            return None
        if self._ema_chunk_s is None:
            return FIRST_CHUNK_MAX_WAIT_S
        return self._ema_chunk_s * MAX_INFLATION

    def before_chunk(self) -> float:
        """Admission control for one rebuild chunk; returns seconds waited."""
        self._maybe_adjust()
        waited = self.bucket.acquire(1.0, max_wait=self._max_chunk_wait())
        if waited:
            self.throttle_wait_s += waited
            obs.count("serving.throttle_wait_ms", int(waited * 1e3))
        self.chunks_admitted += 1
        obs.count("serving.rebuild_chunks")
        self._chunk_t0 = time.monotonic()
        return waited

    def after_chunk(self) -> None:
        """Fold the finished chunk's duration into the EMA and re-floor."""
        if self._chunk_t0 is None:
            return
        dur = time.monotonic() - self._chunk_t0
        if self._ema_chunk_s is None:
            self._ema_chunk_s = dur
        else:
            self._ema_chunk_s += EMA_WEIGHT * (dur - self._ema_chunk_s)
        if self.target_p99_ms is None:
            return
        floor = self.rate_floor()
        rate = self.bucket.rate
        if rate is not None and floor is not None and rate < floor:
            self._set_rate(floor)

    def stats(self) -> Dict[str, Optional[float]]:
        """Throttle state snapshot for reports and benchmarks."""
        rate = self.bucket.rate
        return {
            "target_p99_ms": self.target_p99_ms,
            "rebuild_rate": rate if rate is not None else float("inf"),
            "ema_chunk_ms": (self._ema_chunk_s or 0.0) * 1e3,
            "rate_decreases": self.rate_decreases,
            "rate_increases": self.rate_increases,
            "throttle_wait_s": self.throttle_wait_s,
            "chunks_admitted": self.chunks_admitted,
            "board_p99_ms": self.board_p99_ms(),
        }
