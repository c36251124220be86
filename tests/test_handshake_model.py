"""L3's TCP side against a plain model written from the README's rules.

The model keeps the half-open flows as a list of [flow, syn_ts] in age
order, the established flows as a list, and every count as a list of
(epoch, n) per (source, finding), and scans them: no maps, rings or
cached expiry times. After every packet of seeded random traces, under
random small configs, the verdict, both tables in order, cookie mode
and every source's incomplete handshakes must agree with the analyzer.
"""

import random

import pytest

from ddosgate.analyzer import (
    ACK_FLOOD,
    COOKIE_COUNTER_SECS,
    COOKIE_INVALID,
    PAYLOAD_SIGNATURE,
    PSH_ANOMALY,
    RST_FLOOD,
    SYN_HALF_OPEN,
    URG_ANOMALY,
    Analyzer,
    AnalyzerConfig,
    make_syn_cookie,
)
from ddosgate.events import ACK, PSH, RST, SANDBOX, SYN, URG, FlowKey, TcpInfo, TraceEvent, Verdict

SRV = "10.0.0.1"
SOURCES = ("10.61.0.1", "10.61.0.2", "10.61.0.3")
PORTS = (1001, 1002, 1003)
SIGNATURES = (b"/bin/sh", b"; rm -rf")
PAYLOADS = (b"", b"", b"hello", b"GET /bin/sh HTTP/1.0", b"x; rm -rf /")


class Model:
    """observe_tcp as the README states it, one packet at a time."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.width = cfg.window_secs / cfg.bucket_count
        self.half_open = []  # [flow, syn_ts], oldest first
        self.established = []  # oldest first
        self.charged = {}  # (source, finding) -> [(epoch, n), ...]
        self.cookie_mode = False
        self.corners = set()

    def epoch(self, ts):
        return int(ts / self.width)

    def charge(self, src, code, ts, n=1):
        self.charged.setdefault((src, code), []).append((self.epoch(ts), n))

    def window(self, src, code, now):
        """The source's count of ``code`` over the last bucket_count epochs."""
        low = self.epoch(now) - self.cfg.bucket_count
        return sum(n for e, n in self.charged.get((src, code), ()) if e > low)

    def pending(self, src):
        return sum(1 for flow, _ in self.half_open if flow.src_ip == src)

    def incomplete(self, src, now):
        return self.window(src, SYN_HALF_OPEN, now) + self.pending(src)

    def flag(self, src, code, now, threshold):
        self.charge(src, code, now)
        return Verdict(SANDBOX, 3, code) if self.window(src, code, now) >= threshold else None

    def make_room(self, now):
        if len(self.half_open) + len(self.established) < self.cfg.conn_table_max_entries:
            return
        if self.half_open:
            flow, _ = self.half_open.pop(0)
            self.charge(flow.src_ip, SYN_HALF_OPEN, now)
            self.corners.add("evict half-open")
        else:
            self.established.pop(0)
            self.corners.add("evict established")

    def cookie_valid(self, flow, now, ack):
        value = (ack - 1) & 0xFFFFFFFF
        counter = int(now // COOKIE_COUNTER_SECS)
        return any(make_syn_cookie(self.cfg.syncookie_secret, flow, c, mss) == value
                   for c in (counter, counter - 1) if c >= 0 for mss in range(8))

    def observe(self, pkt):
        cfg, now, src, body = self.cfg, pkt.ts, pkt.src_ip, pkt.body
        while self.half_open and self.half_open[0][1] + cfg.handshake_timeout_secs < now:
            flow, syn_ts = self.half_open.pop(0)
            self.charge(flow.src_ip, SYN_HALF_OPEN, syn_ts + cfg.handshake_timeout_secs)
            self.corners.add("expiry")
        was = self.cookie_mode
        if was:
            self.cookie_mode = not len(self.half_open) < cfg.syn_half_open_global / 2
        else:
            self.cookie_mode = len(self.half_open) >= cfg.syn_half_open_global
        if was != self.cookie_mode:
            self.corners.add("cookie mode on" if self.cookie_mode else "cookie mode off")
        flags, payload = body.flags, body.payload
        flow = FlowKey(src, pkt.src_port, pkt.dst_ip, pkt.dst_port)
        stored = [entry for entry in self.half_open if entry[0] == flow]

        # (1) payload signature
        if flags & PSH and payload:
            for sig_id, sig in enumerate(cfg.payload_signatures, start=1):
                if sig in payload:
                    return Verdict(SANDBOX, 3, PAYLOAD_SIGNATURE, sig_id)
        # (2) connection-opening SYN
        if flags & SYN and not flags & ACK:
            if self.cookie_mode:
                return None
            if stored:
                entry = stored[0]
                self.corners.add("retransmit, same ts" if entry[1] == now else "retransmit, new ts")
                if entry[1] != now:
                    self.half_open.remove(entry)
                    self.half_open.append([flow, now])
                self.charge(src, SYN_HALF_OPEN, now)
            elif flow not in self.established:
                self.make_room(now)
                self.half_open.append([flow, now])
            if self.incomplete(src, now) >= cfg.syn_half_open_per_source:
                return Verdict(SANDBOX, 3, SYN_HALF_OPEN)
            return None
        if flags & ACK:
            # (3) completion: from the table, or under cookies with a valid one
            if stored or self.cookie_mode and flow not in self.established:
                if stored:
                    self.half_open.remove(stored[0])
                    if self.cookie_mode:
                        self.corners.add("stored flow completes under cookies")
                elif not self.cookie_valid(flow, now, body.ack):
                    self.corners.add("cookie invalid")
                    return Verdict(SANDBOX, 3, COOKIE_INVALID)
                else:
                    self.corners.add("valid cookie")
                    self.make_room(now)
                self.established.append(flow)
                return None
            # (4) bare ACK with no flow behind it
            if not payload and flow not in self.established:
                return self.flag(src, ACK_FLOOD, now, cfg.ack_flood_per_source)
        # (5)-(7)
        if flags & RST:
            return self.flag(src, RST_FLOOD, now, cfg.rst_flood_per_source)
        if flags & PSH and not payload:
            return self.flag(src, PSH_ANOMALY, now, cfg.psh_anomaly_per_source)
        if flags & URG and (body.urgent_ptr == 0 or not flags & ACK):
            return self.flag(src, URG_ANOMALY, now, cfg.urg_anomaly_per_source)
        return None


def _config(rng):
    return AnalyzerConfig(
        window_secs=rng.choice((1.0, 2.0, 3.0)), bucket_count=rng.randint(1, 3),
        handshake_timeout_secs=rng.choice((0.5, 1.0, 2.5)),
        conn_table_max_entries=rng.randint(1, 4), syn_half_open_global=rng.randint(1, 6),
        syn_half_open_per_source=rng.randint(1, 3), ack_flood_per_source=rng.randint(1, 3),
        rst_flood_per_source=rng.randint(1, 3), psh_anomaly_per_source=rng.randint(1, 3),
        urg_anomaly_per_source=rng.randint(1, 3), syncookie_secret=rng.getrandbits(64),
        payload_signatures=SIGNATURES)


def _trace(rng, cfg, n):
    """Packets from a few sources and ports, so flows collide: mostly SYNs
    and ACKs, every flag mask now and then, ts ties, jumps past the
    handshake timeout and the window, and ACKs carrying cookies minted
    for their flow now, one counter back, or not at all."""
    sources = SOURCES[:rng.randint(2, 3)]
    ports = PORTS[:rng.randint(2, 3)]
    ts = rng.choice((0.0, 60.0))  # 60 s: two cookie counters within a few seconds
    for eid in range(n):
        ts += rng.choice((0.0, 0.0, 0.05, 0.3, 0.3, 1.0,
                          cfg.handshake_timeout_secs * 1.5, cfg.window_secs * 1.5))
        src, sport = rng.choice(sources), rng.choice(ports)
        flags = rng.choice((SYN, SYN, SYN, ACK, ACK, ACK, ACK | PSH, RST, rng.randrange(64)))
        ack = rng.getrandbits(32)
        if flags & ACK and rng.random() < 0.6:
            counter = int(ts // COOKIE_COUNTER_SECS) - rng.choice((0, 0, 1))
            if counter >= 0:
                flow = FlowKey(src, sport, SRV, 80)
                ack = (make_syn_cookie(cfg.syncookie_secret, flow, counter, rng.randrange(8)) + 1) & 0xFFFFFFFF
        body = TcpInfo(flags, rng.getrandbits(32), ack, rng.choice((0, 0, 5)), rng.choice(PAYLOADS))
        yield TraceEvent(eid, ts, "tcp", src, SRV, sport, 80, body)


@pytest.mark.parametrize("seed", range(3))
def test_handshake_table_matches_a_plain_model(seed):
    rng = random.Random(seed)
    corners = set()
    for _ in range(60):
        cfg = _config(rng)
        analyzer, model = Analyzer(cfg), Model(cfg)
        for pkt in _trace(rng, cfg, 80):
            expected = model.observe(pkt)
            assert analyzer.observe_tcp(pkt) == expected, (cfg, pkt)
            assert [list(entry) for entry in analyzer._half_open.items()] == model.half_open, (cfg, pkt)
            assert list(analyzer._established) == model.established, (cfg, pkt)
            assert analyzer.cookie_mode == model.cookie_mode, (cfg, pkt)
            for src in SOURCES:
                assert analyzer.incomplete_count(src, pkt.ts) == model.incomplete(src, pkt.ts), (cfg, pkt)
        corners |= model.corners
    assert corners == {
        "evict half-open", "evict established", "cookie mode on", "cookie mode off", "valid cookie",
        "cookie invalid", "stored flow completes under cookies", "expiry", "retransmit, same ts",
        "retransmit, new ts",
    }
