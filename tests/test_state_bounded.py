"""Per-source state: eviction never changes an output, and state stays
bounded under a spoofed-source flood.

The L1 buckets and L3 window rings of a source are dropped only once
they equal fresh state. The first tests run seeded traces twice, the
second time with both sweeps turned into no-ops, and require identical
verdict lines, sandbox captures and stats. The last feeds spoofed
bare-ACK sources at a fixed rate and requires the state held and the
peak traced memory to stay flat as the run gets longer, and L2's memo
to stay within its bound while a feed is loaded. The last bounds the
bytes per entry that a loaded feed keeps, and that its load takes.
"""

import io
import json
import random
import tracemalloc
from collections import Counter

import pytest

from ddosgate.analyzer import Analyzer, AnalyzerConfig
from ddosgate import blacklist
from ddosgate.blacklist import _MEMO_MAX, CidrSnapshot, parse_feed
from ddosgate.events import ACK, TcpInfo, TraceEvent, flags_from_str, int_to_ipv4, serialize_trace_event
from ddosgate.pipeline import Engine, EngineConfig, SandboxSink
from ddosgate.ratelimit import LimiterConfig, LimiterTable
from ddosgate.trafficgen import Scenario, generate

SRV = "10.0.0.1"

# Low thresholds and a small burst, so the churn trace trips every L3
# window class, flips SYN-cookie mode and gets rate limited.
CHURN_CONFIG = EngineConfig(
    limiter=LimiterConfig(rps=2.0, burst=4),
    analyzer=AnalyzerConfig(window_secs=4.0, bucket_count=8, handshake_timeout_secs=1.5,
                            syn_half_open_per_source=3, syn_half_open_global=20,
                            ack_flood_per_source=3, rst_flood_per_source=3,
                            psh_anomaly_per_source=2, urg_anomaly_per_source=2),
)
CHURN_FLAGS = ("S", "S", "A", "A", "R", "P", "PA", "U", "UA", "SA")


def _churn_lines(seed: int, seconds: float, sources: int, rate: float) -> list[str]:
    """Spoofed SYN/ACK/RST/PSH/URG churn: bursts of 1-4 packets from
    sources drawn from a pool, so a source comes back after gaps around
    the window and refill lengths; some SYNs get their completing ACK."""
    rng = random.Random(seed)
    lines = []
    t = 0.0
    while t < seconds:
        t += rng.expovariate(rate)
        src = int_to_ipv4(0x0A500000 + rng.randrange(sources))
        sport = 1024 + rng.randrange(8)
        for _ in range(rng.randint(1, 4)):
            flags = flags_from_str(rng.choice(CHURN_FLAGS))
            body = TcpInfo(flags, rng.getrandbits(32), rng.getrandbits(32), rng.choice((0, 0, 7)), b"")
            lines.append(serialize_trace_event(
                TraceEvent(len(lines) + 1, round(t, 6), "tcp", src, SRV, sport, 80, body)))
    return lines


def _run(lines, config):
    sandbox = io.StringIO()
    engine = Engine(config, sandbox=SandboxSink(sandbox))
    verdicts = io.StringIO()
    engine.run_trace(lines, verdicts)
    return engine, (verdicts.getvalue(), sandbox.getvalue(), json.dumps(engine.stats_snapshot()))


def _without_eviction(monkeypatch):
    monkeypatch.setattr(LimiterTable, "_evict_refilled", lambda self, now: None)
    monkeypatch.setattr(Analyzer, "_evict_expired_windows", lambda self, now: None)


def _mixed():
    return ([serialize_trace_event(e) for e in generate(Scenario("mixed", seed=13, duration_secs=20.0))],
            EngineConfig())


def _blacklist_mix(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n198.18.64.0/18\n")
    scenario = Scenario("blacklist_mix", seed=17, duration_secs=40.0, params={"feed": str(feed)})
    return ([serialize_trace_event(e) for e in generate(scenario)],
            EngineConfig(blacklist_path=str(feed)))


def _churn():
    return _churn_lines(seed=21, seconds=60.0, sources=400, rate=60.0), CHURN_CONFIG


@pytest.mark.parametrize("trace", ["mixed", "blacklist_mix", "churn"])
def test_eviction_changes_no_output(trace, tmp_path, monkeypatch):
    lines, config = {"mixed": _mixed, "churn": _churn,
                     "blacklist_mix": lambda: _blacklist_mix(tmp_path)}[trace]()
    evicting, outputs = _run(lines, config)
    _without_eviction(monkeypatch)
    keeping, reference = _run(lines, config)
    assert outputs == reference
    # the sweeps did drop state on this trace
    assert len(evicting.limiter.buckets) < len(keeping.limiter.buckets)
    assert len(evicting.analyzer._windows) <= len(keeping.analyzer._windows)
    if trace == "churn":
        assert len(evicting.analyzer._windows) < len(keeping.analyzer._windows)
        verdicts = outputs[0]
        for reason in ("rate_limited", "syn_half_open", "ack_flood", "rst_flood",
                       "psh_anomaly", "urg_anomaly", "cookie_invalid"):
            assert f'"{reason}"' in verdicts, reason


# -- bounded state ---------------------------------------------------------

SPOOF_RATE = 50  # new sources per trace second, each sending two bare ACKs 0.5 s apart


def _spoofed_acks(seconds: float):
    gap = SPOOF_RATE // 2
    eid = 0
    for i in range(int(seconds * SPOOF_RATE)):
        t = i / SPOOF_RATE
        for n in (i, i - gap) if i >= gap else (i,):
            eid += 1
            yield TraceEvent(eid, t, "tcp", int_to_ipv4(0x0A600000 + n), SRV, 4000, 80,
                             TcpInfo(ACK, n, 1, 0, b""))


def _flood(seconds: float):
    """(L1 sources, L3 sources, peak traced bytes) after a spoofed flood."""
    tracemalloc.start()
    try:
        engine = Engine()
        for event in _spoofed_acks(seconds):
            engine.process_event(event)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(engine.limiter.buckets), len(engine.analyzer._windows), peak


def test_state_stays_bounded_under_spoofed_sources():
    """Defaults: a bucket is full 2 s after its last use and swept every
    2 s; a ring leaves the 10 s window at most one 1 s bucket after its
    last count, and the sweep, once per 1 s bucket, drops it at most one
    bucket later. So at most this many seconds of sources are held."""
    l1_bound = SPOOF_RATE * (2 * 2.0 + 1)
    l3_bound = SPOOF_RATE * (10.0 + 2)
    short = _flood(40.0)  # 2,000 sources, above both bounds
    long = _flood(160.0)
    for l1, l3, _ in (short, long):
        assert l1 <= l1_bound
        assert l3 <= l3_bound
    assert long[2] <= 1.25 * short[2]


def test_blacklist_memo_stays_bounded_under_spoofed_sources(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("10.96.0.0/22\n203.0.113.0/24\n")  # lists the flood's first 1,024 sources
    engine = Engine(EngineConfig(blacklist_path=str(feed)))
    sizes = []
    verdicts = Counter()
    for event in _spoofed_acks(60.0):  # 3,000 sources, each asked for twice
        verdicts[engine.process_event(event).reason] += 1
        sizes.append(len(engine.blacklist._memo))
    assert max(sizes) == _MEMO_MAX
    assert verdicts["blacklisted"] == 2 * 1024 and sum(verdicts.values()) == 2 * 3000 - SPOOF_RATE // 2


def _feed_lines(rng: random.Random, count: int):
    """Hosts, bare and as /32, and prefixes of 8-31 bits with host bits
    set, about 1 in 25 repeated, 1 in 50 a comment and 1 in 50 bad."""
    written = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.02:
            yield "# a comment"
        elif roll < 0.04:
            yield rng.choice(("not an address", "10.0.0.0/33", "256.1.1.1"))
        elif roll < 0.08 and written:
            yield rng.choice(written)
        else:
            line = int_to_ipv4(rng.getrandbits(32))
            prefix = rng.choice((None, None, None, 32, 24, rng.randint(8, 31)))
            line = line if prefix is None else f"{line}/{prefix}"
            written.append(line)
            yield line


@pytest.mark.parametrize("line_end", ["\n", "\r"], ids=["lf", "lone_cr"])
def test_a_feed_load_keeps_and_takes_few_bytes_an_entry(tmp_path, line_end):
    r"""A snapshot keeps an 8-byte key per entry and two 4-byte bounds per
    merged range, and its load holds one int key per entry until the keys
    are sorted and merged: bounds of 24 and 96 bytes an entry leave room
    for the arrays' slack and for that list of keys. A feed whose lines
    end in a lone "\r" is read a slice at a time as one with "\n" is."""
    rng = random.Random(50_000)
    feed = tmp_path / "feed.txt"
    feed.write_bytes("".join(f"{line}{line_end}" for line in _feed_lines(rng, 50_000)).encode())
    text = blacklist.read_feed(str(feed))
    loaded = CidrSnapshot([])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = blacklist.refresh(loaded, text, 0.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = len(loaded)
    assert count > 45_000
    assert (kept - before) / count <= 24
    assert (peak - before) / count <= 96

    reference = CidrSnapshot(parse_feed(text)[0])
    assert loaded.entries == reference.entries and len(loaded) == len(reference) == count
    for _ in range(10_000):
        ip = int_to_ipv4(rng.getrandbits(32))
        assert loaded.contains(ip) is reference.contains(ip), ip
