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
from dataclasses import dataclass, field

__all__ = ["LimiterConfig", "SourceBucket", "LimiterTable"]


@dataclass(frozen=True)
class LimiterConfig:
    rps: float = 5.0
    burst: int = 10

    def __post_init__(self):
        if not self.rps > 0:
            raise ValueError("rps must be positive")
        if not 1 <= self.burst <= sys.float_info.max:  # buckets hold float(burst) tokens
            raise ValueError("burst must be at least 1 and fit in a float")


@dataclass(slots=True)
class SourceBucket:
    tokens: float
    last_update_ts: float


@dataclass
class LimiterTable:
    config: LimiterConfig = field(default_factory=LimiterConfig)
    buckets: dict[str, SourceBucket] = field(default_factory=dict)
    _next_sweep: float = field(default=0.0, init=False, repr=False)

    def acquire(self, src_ip: str, now: float) -> bool:
        """Refill the source's bucket to ``now``, then try to consume one
        token; True if the request is allowed.

        A denied request consumes nothing. ``now`` must not be earlier
        than any earlier call's; ``Engine.process_event`` guards that for
        the pipeline.
        """
        if now >= self._next_sweep:
            self._evict_refilled(now)
        cfg = self.config
        bucket = self.buckets.get(src_ip)
        if bucket is None:
            bucket = SourceBucket(tokens=float(cfg.burst), last_update_ts=now)
            self.buckets[src_ip] = bucket
        else:
            elapsed = now - bucket.last_update_ts
            bucket.tokens = min(float(cfg.burst), bucket.tokens + elapsed * cfg.rps)
            bucket.last_update_ts = now
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return True
        return False

    def _evict_refilled(self, now: float) -> None:
        """Drop every bucket that ``acquire`` would refill to exactly
        ``burst`` at ``now``, the tokens a new bucket starts with. Refill
        only grows with time, so it would stay full: no decision changes.
        Runs at most once per ``burst / rps`` of trace time; a bucket idle
        that long has refilled, so each sweep scans only the sources seen
        in about the last two periods."""
        rps = self.config.rps
        burst = float(self.config.burst)
        full = [ip for ip, b in self.buckets.items()
                if b.tokens + (now - b.last_update_ts) * rps >= burst]
        for ip in full:
            del self.buckets[ip]
        self._next_sweep = now + burst / rps
