"""Per-source token-bucket rate limiting, the first line of defense.

Each source IP gets its own bucket. Buckets refill continuously at
``rps`` tokens per second up to ``burst`` capacity, and a new source
starts with a full bucket so first contact gets its burst allowance.
All time comes from trace timestamps, never a wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LimiterConfig", "SourceBucket", "RateDecision", "LimiterTable"]


@dataclass(frozen=True)
class LimiterConfig:
    rps: float = 5.0
    burst: int = 10
    idle_evict_secs: float = 60.0

    def __post_init__(self):
        if self.rps <= 0:
            raise ValueError("rps must be positive")
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        if self.idle_evict_secs <= 0:
            raise ValueError("idle_evict_secs must be positive")


@dataclass(slots=True)
class SourceBucket:
    tokens: float
    last_update_ts: float


@dataclass(frozen=True, slots=True)
class RateDecision:
    allowed: bool
    retry_after_secs: float = 0.0


_ALLOWED = RateDecision(allowed=True)


@dataclass
class LimiterTable:
    config: LimiterConfig = field(default_factory=LimiterConfig)
    buckets: dict[str, SourceBucket] = field(default_factory=dict)

    def acquire(self, src_ip: str, now: float) -> RateDecision:
        """Refill the source's bucket to ``now``, then try to consume one token.

        A denied request consumes nothing; retry_after is how long until
        one full token is available at the configured rate. ``now`` must
        not be earlier than any earlier call's; ``Engine.process_event``
        guards that for the pipeline.
        """
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
            return _ALLOWED
        return RateDecision(allowed=False, retry_after_secs=(1.0 - bucket.tokens) / cfg.rps)

    def evict_idle(self, now: float) -> int:
        """Drop buckets idle longer than idle_evict_secs; returns how many."""
        cutoff = self.config.idle_evict_secs
        stale = [ip for ip, b in self.buckets.items() if now - b.last_update_ts > cutoff]
        for ip in stale:
            del self.buckets[ip]
        return len(stale)
