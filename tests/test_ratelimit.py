"""Token-bucket limiter semantics against a discrete-time oracle."""

import random

import pytest

from ddosgate.ratelimit import LimiterConfig, LimiterTable, retry_after_secs


def test_new_source_starts_with_full_burst():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    allowed = sum(1 for _ in range(100) if table.acquire("10.0.0.1", 0.0))
    assert allowed == 10


def test_eleventh_instant_request_limited_with_retry_hint():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for _ in range(10):
        assert table.acquire("10.0.0.1", 1.0)
    assert not table.acquire("10.0.0.1", 1.0)
    # empty bucket refills to one token in 1/rps seconds
    assert retry_after_secs(table.config, table.buckets["10.0.0.1"].tokens) == pytest.approx(0.2)


def test_refill_caps_at_burst():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for _ in range(10):
        table.acquire("10.0.0.1", 0.0)
    # 100 s of idle still refills to exactly burst, not more
    allowed = sum(1 for _ in range(20) if table.acquire("10.0.0.1", 100.0))
    assert allowed == 10


def test_steady_rate_at_rps_never_limited():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for i in range(200):
        assert table.acquire("10.0.0.1", i * 0.2)


def test_sources_do_not_share_buckets():
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    for _ in range(10):
        assert table.acquire("10.0.0.1", 0.0)
    assert not table.acquire("10.0.0.1", 0.0)
    assert table.acquire("10.0.0.2", 0.0)


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
    allowed_real = sum(1 for t in arrivals_ms if table.acquire("s", t / 1000.0))

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
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    table.acquire("old", 0.0)  # sweeps the empty table; the next sweep is due at 2.0
    for _ in range(10):
        table.acquire("busy", 1.0)
    # this sweep finds "old" refilled to burst and "busy" at 7.5 tokens
    table.acquire("new", 2.5)
    assert set(table.buckets) == {"busy", "new"}
    # evicted source comes back with a fresh full bucket
    allowed = sum(1 for _ in range(12) if table.acquire("old", 2.5))
    assert allowed == 10


@pytest.mark.parametrize("drained_at, evicted, allowed", [(0.0, True, 10), (1e-9, False, 9)])
def test_bucket_evicted_once_idle_burst_over_rps(drained_at, evicted, allowed):
    """An emptied bucket refills to burst after exactly burst/rps = 2 s:
    it goes at 2.0 s idle; just under, it stays a hair short of burst,
    so only 9 whole tokens are left."""
    table = LimiterTable(LimiterConfig(rps=5.0, burst=10))
    table.acquire("other", 0.0)  # sweeps; the next sweep is due at 2.0
    for _ in range(10):
        assert table.acquire("src", drained_at)
    table.acquire("other", 2.0)
    assert ("src" not in table.buckets) == evicted
    assert sum(1 for _ in range(12) if table.acquire("src", 2.0)) == allowed


def test_config_validation():
    with pytest.raises(ValueError):
        LimiterConfig(rps=0.0)
    with pytest.raises(ValueError):
        LimiterConfig(burst=0)
