"""TCP/UDP header analysis, the third line of defense.

Stateful TCP side: the handshake table is two age-ordered maps, one of
half-open flows (each mapped to its SYN's ts) and one of established
flows. Time never goes back, so insertion order is age order and the
oldest flow of each map is its first. A retransmitted SYN charges the
attempt it supersedes as an incomplete handshake; with a new ts it moves
its flow to the back, at the same ts the flow keeps its place. A
half-open flow that outlives the handshake timeout, or is dropped from
a full table, is folded into its source's sliding window of incomplete
handshakes; a full table with no half-open flow drops the oldest
established one. Per-source windows also count bare ACKs, RSTs,
empty-payload PSHs and URG misuse. When the global half-open count
crosses its threshold the engine flips into SYN-cookie mode and models
a stateless server until the count decays below half the threshold.

Stateless UDP side: port, size, and checksum filtering.

Sliding windows are rings of bucket_count counters over window_secs, so
threshold decisions are exact to within one bucket. A half-open finding
additionally depends on flows opened up to handshake_timeout_secs
before the window, since a SYN only folds into the window when it
expires. A ring exists only once written, and a source's rings are
dropped once they have all left the window, so window state covers only
the sources seen in about the last two windows.

All time comes from packet timestamps.
"""

from __future__ import annotations

import sys
from collections import ChainMap, OrderedDict
from dataclasses import dataclass

from .events import (
    ACK,
    PSH,
    RST,
    SYN,
    URG,
    FlowKey,
    TcpInfo,
    TraceEvent,
    UdpInfo,
    flow_key,
    ipv4_to_int,
    validate_udp_checksum,
)

# TCP finding codes
SYN_HALF_OPEN = "syn_half_open"
ACK_FLOOD = "ack_flood"
RST_FLOOD = "rst_flood"
PSH_ANOMALY = "psh_anomaly"
URG_ANOMALY = "urg_anomaly"
PAYLOAD_SIGNATURE = "payload_signature"
COOKIE_INVALID = "cookie_invalid"

# UDP finding codes
UDP_BLOCKED_PORT = "udp_blocked_port"
UDP_SIZE_VIOLATION = "udp_size_violation"
UDP_BAD_CHECKSUM = "udp_bad_checksum"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_EPOCH = int(sys.float_info.max)  # every finite ts / bucket width truncates to at most this
COOKIE_COUNTER_SECS = 64  # cookie counter advances once per 64 s of trace time
MAX_BUCKET_COUNT = 1000  # a window ring is a list of bucket_count ints per source and class

DEFAULT_SIGNATURES: tuple[bytes, ...] = (
    b"() {",          # bash function-definition injection
    b"/bin/sh",
    b"; rm -rf",
    b"cmd.exe /c",
    b"\x90\x90\x90\x90\x90\x90\x90\x90",  # NOP sled
)


@dataclass(frozen=True, slots=True)
class Finding:
    code: str
    detail: int | None = None


@dataclass(frozen=True)
class AnalyzerConfig:
    window_secs: float = 10.0
    bucket_count: int = 10
    syn_half_open_per_source: int = 50
    syn_half_open_global: int = 500
    ack_flood_per_source: int = 100
    rst_flood_per_source: int = 100
    psh_anomaly_per_source: int = 50
    urg_anomaly_per_source: int = 20
    handshake_timeout_secs: float = 5.0
    conn_table_max_entries: int = 65536
    udp_min_len: int = 8
    udp_max_len: int = 1500
    udp_validate_checksum: bool = True
    udp_blocked_ports: frozenset[int] = frozenset()
    syncookie_secret: int = 0x9E3779B97F4A7C15
    payload_signatures: tuple[bytes, ...] = DEFAULT_SIGNATURES

    def __post_init__(self):
        for name in ("syn_half_open_per_source", "syn_half_open_global", "ack_flood_per_source",
                     "rst_flood_per_source", "psh_anomaly_per_source", "urg_anomaly_per_source"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 1 <= self.bucket_count <= MAX_BUCKET_COUNT:
            raise ValueError(f"bucket_count must be from 1 to {MAX_BUCKET_COUNT}")
        if self.udp_min_len < 8:
            raise ValueError("udp_min_len must be at least 8 (UDP header size)")
        if self.window_secs <= 0 or self.handshake_timeout_secs <= 0:
            raise ValueError("window_secs and handshake_timeout_secs must be positive")
        if not self.window_secs / self.bucket_count >= sys.float_info.min:
            raise ValueError("window_secs / bucket_count must be a normal positive float")
        if self.conn_table_max_entries < 1:
            raise ValueError("conn_table_max_entries must be at least 1")
        if self.udp_max_len < self.udp_min_len:
            raise ValueError("udp_max_len must not be below udp_min_len")


def parse_signatures(text: str) -> tuple[bytes, ...]:
    r"""Signature file: one byte pattern per line, '#' comments, \xNN escapes.

    A line whose escapes do not decode, or name a character above \xff,
    raises ValueError."""
    patterns = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            patterns.append(line.encode("utf-8").decode("unicode_escape").encode("latin-1"))
        except UnicodeError as exc:
            raise ValueError(f"line {line_no}: bad signature {line!r}: {exc.reason}") from None
    return tuple(patterns)


def _mix64(z: int) -> int:
    # splitmix64 finalizer: two multiply-xor-shift rounds, published constants
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _cookie_hash(secret: int, flow: FlowKey, counter: int) -> int:
    addrs = (ipv4_to_int(flow.src_ip) << 32) | ipv4_to_int(flow.dst_ip)
    ports = (flow.src_port << 48) | (flow.dst_port << 32) | (counter & 0xFFFFFFFF)
    h = _mix64(secret ^ 0x9E3779B97F4A7C15)
    h = _mix64(h ^ addrs)
    h = _mix64(h ^ ports)
    return h


def make_syn_cookie(secret: int, flow: FlowKey, counter: int, mss_idx: int) -> int:
    """32-bit cookie: counter mod 8 in bits 31..29, mss_idx in 28..26,
    low 26 bits from the keyed mixer over (secret, flow 4-tuple, counter)."""
    if not 0 <= mss_idx < 8:
        raise ValueError(f"mss_idx must be in 0..7, got {mss_idx}")
    return ((counter % 8) << 29) | (mss_idx << 26) | (_cookie_hash(secret, flow, counter) & 0x03FFFFFF)


def check_syn_cookie(secret: int, flow: FlowKey, counter_now: int, value: int) -> int | None:
    """Accept a cookie minted at counter_now or counter_now - 1.

    Returns the embedded mss_idx, or None on rejection (stale counter or
    hash mismatch). Rejection is a value, never an exception.
    """
    top = value >> 29
    mss_idx = (value >> 26) & 7
    low = value & 0x03FFFFFF
    for c in (counter_now, counter_now - 1):
        if c >= 0 and c % 8 == top:
            if _cookie_hash(secret, flow, c) & 0x03FFFFFF == low:
                return mss_idx
            return None
    return None


class _Window:
    """Ring of bucket counters; each bucket spans window_secs / bucket_count."""

    __slots__ = ("counts", "epoch", "total")

    def __init__(self, buckets: int, epoch: int):
        self.counts = [0] * buckets
        self.epoch = epoch
        self.total = 0

    def add(self, epoch: int, n: int = 1) -> None:
        counts = self.counts
        size = len(counts)
        if epoch > self.epoch:
            steps = epoch - self.epoch
            if steps >= size:
                for i in range(size):
                    counts[i] = 0
                self.total = 0
            else:
                base = self.epoch
                for k in range(1, steps + 1):
                    i = (base + k) % size
                    self.total -= counts[i]
                    counts[i] = 0
            self.epoch = epoch
        elif epoch <= self.epoch - size:
            return  # belongs to a bucket that already rotated out
        counts[epoch % size] += n
        self.total += n

    def count(self, epoch: int) -> int:
        self.add(epoch, 0)
        return self.total


_SYN_INCOMPLETE = 0
_BARE_ACK = 1
_RST = 2
_PSH = 3
_URG = 4
_N_CLASSES = 5


class Analyzer:
    """Single-writer analyzer state; packets must arrive in timestamp
    order, which ``Engine.process_event`` guards for the pipeline."""

    def __init__(self, config: AnalyzerConfig | None = None):
        self.config = config or AnalyzerConfig()
        self._bucket_width = self.config.window_secs / self.config.bucket_count
        # oldest first: half-open flow -> its SYN's ts, and established flows
        self._half_open: OrderedDict[FlowKey, float] = OrderedDict()
        self._established: OrderedDict[FlowKey, None] = OrderedDict()
        self.entries = ChainMap(self._half_open, self._established)  # every tracked flow
        self._pending_by_source: dict[str, int] = {}
        self._expires_at = 0.0
        # source -> one ring per class, None until first written
        self._windows: dict[str, list[_Window | None]] = {}
        self._next_sweep = 0.0
        self.cookie_mode = False
        self._signatures = list(enumerate(self.config.payload_signatures, start=1))

    # -- window helpers ----------------------------------------------------

    def _epoch(self, ts: float) -> int:
        try:
            return int(ts / self._bucket_width)
        except OverflowError:  # the quotient rounded to inf
            return _MAX_EPOCH

    def _bump(self, src_ip: str, cls: int, ts: float) -> int:
        """Count one ``cls`` packet of the source at ``ts``; returns the
        window total. A ring is made on its first count."""
        epoch = self._epoch(ts)
        rings = self._windows.get(src_ip)
        if rings is None:
            rings = self._windows[src_ip] = [None] * _N_CLASSES
        ring = rings[cls]
        if ring is None:
            ring = rings[cls] = _Window(self.config.bucket_count, epoch)
        ring.add(epoch)
        return ring.total

    # -- handshake table ---------------------------------------------------

    def _close_half_open(self, flow: FlowKey) -> None:
        del self._half_open[flow]
        src = flow.src_ip
        n = self._pending_by_source[src] - 1
        if n:
            self._pending_by_source[src] = n
        else:
            del self._pending_by_source[src]

    def _expire(self, now: float) -> None:
        # _expires_at is never later than the oldest flow's expiry: the
        # oldest SYN's ts only grows, and a flow added later has ts >= now
        if now <= self._expires_at:
            return
        timeout = self.config.handshake_timeout_secs
        half_open = self._half_open
        while half_open:
            flow = next(iter(half_open))
            expired_at = half_open[flow] + timeout
            if expired_at >= now:
                self._expires_at = expired_at
                return
            self._close_half_open(flow)
            self._bump(flow.src_ip, _SYN_INCOMPLETE, expired_at)
        self._expires_at = now + timeout

    def _evict_for_capacity(self, now: float) -> None:
        """Make room for one more flow. The table never holds more than
        conn_table_max_entries, so one eviction is enough."""
        if len(self._half_open) + len(self._established) >= self.config.conn_table_max_entries:
            if self._half_open:
                flow = next(iter(self._half_open))
                self._close_half_open(flow)
                self._bump(flow.src_ip, _SYN_INCOMPLETE, now)
            else:
                self._established.popitem(last=False)

    def _update_cookie_mode(self) -> None:
        threshold = self.config.syn_half_open_global
        if not self.cookie_mode:
            if len(self._half_open) >= threshold:
                self.cookie_mode = True
        elif len(self._half_open) < threshold / 2:
            self.cookie_mode = False

    def _evict_expired_windows(self, now: float) -> None:
        """Drop the rings of every source whose rings all last moved
        bucket_count or more epochs before ``epoch(now)``. Called after
        ``_expire(now)``, so every later add or count uses an epoch at or
        after ``epoch(now)`` and would first reset such a ring to all
        zeros, which is what a missing ring reads. Runs at most once per
        window_secs of trace time."""
        cutoff = self._epoch(now) - self.config.bucket_count
        stale = [src for src, rings in self._windows.items()
                 if all(ring is None or ring.epoch <= cutoff for ring in rings)]
        for src in stale:
            del self._windows[src]
        self._next_sweep = now + self.config.window_secs

    def _advance_clock(self, now: float) -> None:
        self._expire(now)
        if now >= self._next_sweep:
            self._evict_expired_windows(now)
        self._update_cookie_mode()

    # -- public observers --------------------------------------------------

    def half_open_count(self, source: str | None = None) -> int:
        if source is None:
            return len(self._half_open)
        return self._pending_by_source.get(source, 0)

    def incomplete_count(self, src_ip: str, now: float) -> int:
        """Incomplete handshakes charged to a source: window-folded
        expiries plus its half-open flows still pending."""
        pending = self._pending_by_source.get(src_ip, 0)
        rings = self._windows.get(src_ip)
        if rings is None or rings[_SYN_INCOMPLETE] is None:
            return pending
        return rings[_SYN_INCOMPLETE].count(self._epoch(now)) + pending

    def observe_tcp(self, pkt: TraceEvent, now: float) -> Finding | None:
        """Fixed check order, first hit wins; at most one finding per packet.

        ``now`` must be finite and not earlier than any earlier packet's.
        """
        cfg = self.config
        self._advance_clock(now)
        body = pkt.body
        assert isinstance(body, TcpInfo)
        flags = body.flags
        payload = body.payload
        src = pkt.src_ip

        # (1) concrete maliciousness beats rate anomalies
        if flags & PSH and payload:
            for sig_id, sig in self._signatures:
                if sig in payload:
                    return Finding(PAYLOAD_SIGNATURE, sig_id)

        # (2) connection-opening SYN
        if flags & SYN and not flags & ACK:
            if self.cookie_mode:
                return None  # stateless server: cookie goes out, nothing stored
            flow = flow_key(pkt)
            half_open = self._half_open
            created = half_open.get(flow)
            if created is not None:
                # retransmitted/superseded SYN: the old pending one never
                # completed, charge it now and restart the clock
                self._bump(src, _SYN_INCOMPLETE, now)
                if created != now:
                    half_open[flow] = now
                    half_open.move_to_end(flow)
            elif flow not in self._established:
                self._evict_for_capacity(now)
                half_open[flow] = now
                self._pending_by_source[src] = self._pending_by_source.get(src, 0) + 1
            # SYN on an established flow: ignore for state, still thresholded
            if self.incomplete_count(src, now) >= cfg.syn_half_open_per_source:
                return Finding(SYN_HALF_OPEN)
            return None

        if flags & ACK:
            flow = flow_key(pkt)
            pending = flow in self._half_open
            # (3) handshake completion: of a half-open flow, or of any new
            # flow under SYN cookies, where the ACK must carry a valid cookie
            if pending or self.cookie_mode and flow not in self._established:
                if self.cookie_mode and check_syn_cookie(
                        cfg.syncookie_secret, flow, int(now // COOKIE_COUNTER_SECS),
                        (body.ack - 1) & 0xFFFFFFFF) is None:
                    return Finding(COOKIE_INVALID)
                if pending:
                    self._close_half_open(flow)
                else:
                    self._evict_for_capacity(now)
                self._established[flow] = None
                return None
            # (4) bare ACK with no flow behind it
            if not payload and flow not in self._established:
                if self._bump(src, _BARE_ACK, now) >= cfg.ack_flood_per_source:
                    return Finding(ACK_FLOOD)
                return None

        # (5) reset frequency
        if flags & RST:
            if self._bump(src, _RST, now) >= cfg.rst_flood_per_source:
                return Finding(RST_FLOOD)
            return None

        # (6) push with nothing pushed
        if flags & PSH and not payload:
            if self._bump(src, _PSH, now) >= cfg.psh_anomaly_per_source:
                return Finding(PSH_ANOMALY)
            return None

        # (7) urgent-pointer misuse
        if flags & URG and (body.urgent_ptr == 0 or not flags & ACK):
            if self._bump(src, _URG, now) >= cfg.urg_anomaly_per_source:
                return Finding(URG_ANOMALY)
            return None

        return None

    def observe_udp(self, pkt: TraceEvent) -> Finding | None:
        """Stateless checks: blocked port, then size, then checksum."""
        cfg = self.config
        body = pkt.body
        assert isinstance(body, UdpInfo)
        if pkt.dst_port in cfg.udp_blocked_ports:
            return Finding(UDP_BLOCKED_PORT)
        if (body.length < cfg.udp_min_len or body.length > cfg.udp_max_len
                or body.length != 8 + len(body.payload)):
            return Finding(UDP_SIZE_VIOLATION)
        if cfg.udp_validate_checksum and body.checksum != 0:
            # checksum 0 means "not computed" and passes
            if not validate_udp_checksum(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
                                         body.length, body.checksum, body.payload):
                return Finding(UDP_BAD_CHECKSUM)
        return None
