"""Per-source token-bucket rate limiting, the first line of defense.

Each source IP gets its own bucket. Buckets refill continuously at
``rps`` tokens per second up to ``burst`` capacity, and a new source
starts with a full bucket so first contact gets its burst allowance.
A bucket that has refilled to ``burst`` is the same as a new one, so it
is dropped; the table holds only the sources seen in the last two
``burst / rps`` periods. All time comes from trace timestamps, never a
wall clock.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

__all__ = ["LimiterConfig", "LimiterTable"]


class _LimiterFields(NamedTuple):
    rps: float = 5.0
    burst: int = 10


class LimiterConfig(_LimiterFields):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __init__(self, *_args, **_kwargs):
        if not self.rps > 0:
            raise ValueError("rps must be positive")
        if not 1 <= self.burst <= sys.float_info.max:  # buckets hold float(burst) tokens
            raise ValueError("burst must be at least 1 and fit in a float")


class LimiterTable:
    __slots__ = ("config", "buckets", "_next_sweep", "_burst", "_rps")

    def __init__(self, config: LimiterConfig | None = None):
        self.config = config or LimiterConfig()
        self.buckets: dict[str, tuple[float, float]] = {}  # source -> (tokens, last_ts)
        self._next_sweep = 0.0
        self._burst = float(self.config.burst)  # the tokens of a full bucket
        self._rps = self.config.rps

    def acquire(self, src_ip: str, now: float) -> bool:
        """Refill the source's bucket to ``now``, then try to consume one
        token; True if the request is allowed.

        A denied request consumes nothing. ``now`` must not be earlier
        than any earlier call's; ``Engine.process_event`` guards that for
        the pipeline.
        """
        if now >= self._next_sweep:
            self._evict_refilled(now)
        bucket = self.buckets.get(src_ip)
        if bucket is None:
            tokens = self._burst
        else:
            tokens, last_ts = bucket
            tokens += (now - last_ts) * self._rps
            if not tokens < self._burst:  # as min(burst, tokens), also for a NaN from 0 * inf rps
                tokens = self._burst
        allowed = tokens >= 1.0
        self.buckets[src_ip] = (tokens - 1.0 if allowed else tokens, now)
        return allowed

    def _evict_refilled(self, now: float) -> None:
        """Drop every bucket that ``acquire`` would refill to exactly
        ``burst`` at ``now``, the tokens a new bucket starts with. Refill
        only grows with time, so it would stay full: no decision changes.
        Runs at most once per ``burst / rps`` of trace time; a bucket idle
        that long has refilled, so each sweep scans only the sources seen
        in about the last two periods."""
        rps = self._rps
        burst = self._burst
        full = [ip for ip, (tokens, last_ts) in self.buckets.items()
                if tokens + (now - last_ts) * rps >= burst]
        for ip in full:
            del self.buckets[ip]
        self._next_sweep = now + burst / rps
