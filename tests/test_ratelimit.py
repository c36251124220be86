"""Token-bucket limiter semantics against a discrete-time oracle."""

import random

import pytest

from ddosgate.ratelimit import LimiterConfig, LimiterTable


def test_new_source_starts_with_full_burst():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    allowed = sum(1 for _ in range(100) if table.acquire("10.0.0.1", 0.0).allowed)
    assert allowed == 10


def test_eleventh_instant_request_limited_with_retry_hint():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for _ in range(10):
        assert table.acquire("10.0.0.1", 1.0).allowed
    decision = table.acquire("10.0.0.1", 1.0)
    assert not decision.allowed
    # empty bucket refills to one token in 1/rps seconds
    assert decision.retry_after_secs == pytest.approx(0.2)


def test_refill_caps_at_burst():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for _ in range(10):
        table.acquire("10.0.0.1", 0.0)
    # 100 s of idle still refills to exactly burst, not more
    allowed = sum(1 for _ in range(20) if table.acquire("10.0.0.1", 100.0).allowed)
    assert allowed == 10


def test_steady_rate_at_rps_never_limited():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for i in range(200):
        assert table.acquire("10.0.0.1", i * 0.2).allowed


def test_sources_do_not_share_buckets():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for _ in range(10):
        assert table.acquire("10.0.0.1", 0.0).allowed
    assert not table.acquire("10.0.0.1", 0.0).allowed
    assert table.acquire("10.0.0.2", 0.0).allowed


def test_agrees_with_millisecond_oracle_on_random_schedule():
    """Continuous refill vs a 1 ms discrete simulation; off-by-one at most.

    The oracle adds rps/1000 tokens per elapsed millisecond, so each
    arrival's token count differs from the continuous model by less than
    one refill quantum; allowed totals must track within 1.
    """
    rng = random.Random(42)
    cfg = LimiterConfig(rps=5.0, burst=10)
    table = LimiterTable(cfg)

    arrivals_ms = sorted(rng.randrange(0, 10_000) for _ in range(200))
    allowed_real = sum(1 for t in arrivals_ms if table.acquire("s", t / 1000.0).allowed)

    tokens = float(cfg.burst)
    last_ms = None
    allowed_oracle = 0
    for t in arrivals_ms:
        if last_ms is not None:
            tokens = min(float(cfg.burst), tokens + (t - last_ms) * cfg.rps / 1000.0)
        last_ms = t
        if tokens >= 1.0:
            tokens -= 1.0
            allowed_oracle += 1
    assert abs(allowed_real - allowed_oracle) <= 1


def test_evict_idle_drops_only_stale_sources():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10, idle_evict_secs=60.0))
    table.acquire("old", 0.0)
    table.acquire("new", 55.0)
    assert table.evict_idle(70.0) == 1
    # evicted source comes back with a fresh full bucket
    allowed = sum(1 for _ in range(12) if table.acquire("old", 70.0).allowed)
    assert allowed == 10


def test_config_validation():
    with pytest.raises(ValueError):
        LimiterConfig(rps=0.0)
    with pytest.raises(ValueError):
        LimiterConfig(burst=0)
    with pytest.raises(ValueError):
        LimiterConfig(idle_evict_secs=-1.0)
