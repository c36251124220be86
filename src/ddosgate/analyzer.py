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

Both sides return the layer-3 ``Verdict`` of their finding, or None;
each verdict is built once.

Sliding windows are rings of bucket_count counters over window_secs, one
per (source, finding code), so threshold decisions are exact to within
one bucket. A ring is one list of bucket_count + 2 ints: its newest
epoch, its total and its counters. Its epoch only moves forward. A
half-open finding additionally depends on flows opened up to
handshake_timeout_secs before the window, since a SYN only folds into
the window when it expires. A ring exists only once written and is
dropped on its own once it has left the window, so window state covers
only the (source, finding) pairs counted in about the last two windows.

All time comes from packet timestamps.
"""

from __future__ import annotations

import sys
from collections import ChainMap, OrderedDict
from typing import NamedTuple

from .events import (
    _new,
    ACK,
    PSH,
    RST,
    SANDBOX,
    SYN,
    URG,
    FlowKey,
    TcpInfo,
    TraceEvent,
    UdpInfo,
    Verdict,
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

# The verdict of every finding that carries no rule id, shared, not rebuilt per packet.
_VERDICTS = {code: Verdict(SANDBOX, 3, code) for code in (
    SYN_HALF_OPEN, ACK_FLOOD, RST_FLOOD, PSH_ANOMALY, URG_ANOMALY, COOKIE_INVALID,
    UDP_BLOCKED_PORT, UDP_SIZE_VIOLATION, UDP_BAD_CHECKSUM)}

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_EPOCH = int(sys.float_info.max)  # every finite ts / bucket width truncates to at most this
COOKIE_COUNTER_SECS = 64  # cookie counter advances once per 64 s of trace time
MAX_BUCKET_COUNT = 1000  # a window ring is a list of bucket_count + 2 ints per source and finding

DEFAULT_SIGNATURES: tuple[bytes, ...] = (
    b"() {",          # bash function-definition injection
    b"/bin/sh",
    b"; rm -rf",
    b"cmd.exe /c",
    b"\x90\x90\x90\x90\x90\x90\x90\x90",  # NOP sled
)


class _AnalyzerFields(NamedTuple):
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


class AnalyzerConfig(_AnalyzerFields):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __init__(self, *_args, **_kwargs):
        for name in ("syn_half_open_per_source", "syn_half_open_global", "ack_flood_per_source",
                     "rst_flood_per_source", "psh_anomaly_per_source", "urg_anomaly_per_source"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 1 <= self.bucket_count <= MAX_BUCKET_COUNT:
            raise ValueError(f"bucket_count must be from 1 to {MAX_BUCKET_COUNT}")
        if self.udp_min_len < 8:
            raise ValueError("udp_min_len must be at least 8 (UDP header size)")
        if not (self.window_secs > 0 and self.handshake_timeout_secs > 0):
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
    src, dst = ipv4_to_int(flow.src_ip), ipv4_to_int(flow.dst_ip)
    if src is None or dst is None:
        raise ValueError(f"not an IPv4 flow: {flow.src_ip!r}, {flow.dst_ip!r}")
    addrs = (src << 32) | dst
    ports = (flow.src_port << 48) | (flow.dst_port << 32) | (counter & 0xFFFFFFFF)
    h = _mix64(secret ^ 0x9E3779B97F4A7C15)
    h = _mix64(h ^ addrs)
    h = _mix64(h ^ ports)
    return h


def make_syn_cookie(secret: int, flow: FlowKey, counter: int, mss_idx: int) -> int:
    """32-bit cookie: counter mod 8 in bits 31..29, mss_idx in 28..26,
    low 26 bits from the keyed mixer over (secret, flow 4-tuple, counter).
    Raises ValueError when a flow address is not a dotted quad."""
    if not 0 <= mss_idx < 8:
        raise ValueError(f"mss_idx must be in 0..7, got {mss_idx}")
    return ((counter % 8) << 29) | (mss_idx << 26) | (_cookie_hash(secret, flow, counter) & 0x03FFFFFF)


def check_syn_cookie(secret: int, flow: FlowKey, counter_now: int, value: int) -> int | None:
    """Accept a cookie minted at counter_now or counter_now - 1.

    Returns the embedded mss_idx, or None on rejection (stale counter or
    hash mismatch, or a flow address that is not a dotted quad, for
    which no cookie is minted). Rejection is a value, never an exception.
    """
    if ipv4_to_int(flow.src_ip) is None or ipv4_to_int(flow.dst_ip) is None:
        return None
    top = value >> 29
    mss_idx = (value >> 26) & 7
    low = value & 0x03FFFFFF
    for c in (counter_now, counter_now - 1):
        if c >= 0 and c % 8 == top:
            if _cookie_hash(secret, flow, c) & 0x03FFFFFF == low:
                return mss_idx
            return None
    return None


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
        # (source, finding code) -> its ring [epoch, total, *counts], made on its first count
        self._windows: dict[tuple[str, str], list[int]] = {}
        self._next_sweep = 0.0
        self.cookie_mode = False
        self._signatures = [(sig, Verdict(SANDBOX, 3, PAYLOAD_SIGNATURE, sig_id))
                            for sig_id, sig in enumerate(self.config.payload_signatures, start=1)]

    # -- window helpers ----------------------------------------------------

    def _epoch(self, ts: float) -> int:
        try:
            return int(ts / self._bucket_width)
        except OverflowError:  # the quotient rounded to inf
            return _MAX_EPOCH

    def _count(self, src_ip: str, code: str, ts: float, n: int = 1) -> int:
        """Add ``n`` packets to the source's ``code`` window at ``ts``; the
        window total. A ring is made on its first count, so ``n=0`` reads
        without making one.

        A ring rotates only forward, when ``epoch(ts)`` is past its epoch,
        and its epoch never goes back: packets arrive in ts order, and
        ``_expire`` folds flows in age order before a packet counts
        anything, so every fold's expiry is at or after every earlier count
        on that ring. A read at an earlier ts gives the current total and
        leaves the ring as it was."""
        epoch = self._epoch(ts)
        key = (src_ip, code)
        ring = self._windows.get(key)
        if ring is None:
            if not n:
                return 0
            ring = self._windows[key] = [epoch, 0] + [0] * self.config.bucket_count
        size = len(ring) - 2
        if epoch > ring[0]:
            if epoch - ring[0] >= size:
                ring[1:] = [0] * (size + 1)
            else:
                for e in range(ring[0] + 1, epoch + 1):
                    i = 2 + e % size
                    ring[1] -= ring[i]
                    ring[i] = 0
            ring[0] = epoch
        ring[2 + epoch % size] += n
        ring[1] += n
        return ring[1]

    def _flag(self, src_ip: str, code: str, ts: float, threshold: int) -> Verdict | None:
        """Count the packet; the finding's verdict once the total reaches ``threshold``."""
        if self._count(src_ip, code, ts) >= threshold:
            return _VERDICTS[code]
        return None

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
            self._count(flow.src_ip, SYN_HALF_OPEN, expired_at)
        self._expires_at = now + timeout

    def _evict_for_capacity(self, now: float) -> None:
        """Make room for one more flow. The table never holds more than
        conn_table_max_entries, so one eviction is enough."""
        if len(self._half_open) + len(self._established) >= self.config.conn_table_max_entries:
            if self._half_open:
                flow = next(iter(self._half_open))
                self._close_half_open(flow)
                self._count(flow.src_ip, SYN_HALF_OPEN, now)
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
        """Drop every ring that last moved bucket_count or more epochs
        before ``epoch(now)``. Called after ``_expire(now)``, so every
        later add or count uses an epoch at or after ``epoch(now)`` and
        would first reset such a ring to all zeros, which is what a
        missing ring reads. Runs at most once per window_secs of trace
        time."""
        cutoff = self._epoch(now) - self.config.bucket_count
        stale = [key for key, ring in self._windows.items() if ring[0] <= cutoff]
        for key in stale:
            del self._windows[key]
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
        return self._count(src_ip, SYN_HALF_OPEN, now, 0) + self._pending_by_source.get(src_ip, 0)

    def observe_tcp(self, pkt: TraceEvent) -> Verdict | None:
        """Fixed check order, first hit wins; at most one finding per packet.

        The clock is ``pkt.ts``, which must be finite and not earlier than
        any earlier packet's.
        """
        cfg = self.config
        now = pkt.ts
        self._advance_clock(now)
        body = pkt.body
        assert isinstance(body, TcpInfo)
        flags = body.flags
        payload = body.payload
        src = pkt.src_ip

        # (1) concrete maliciousness beats rate anomalies
        if flags & PSH and payload:
            for sig, verdict in self._signatures:
                if sig in payload:
                    return verdict

        flow = _new(FlowKey, (src, pkt.src_port, pkt.dst_ip, pkt.dst_port, "tcp"))
        # (2) connection-opening SYN
        if flags & SYN and not flags & ACK:
            if self.cookie_mode:
                return None  # stateless server: cookie goes out, nothing stored
            half_open = self._half_open
            created = half_open.get(flow)
            if created is not None:
                # retransmitted/superseded SYN: the old pending one never
                # completed, charge it below and restart the clock
                if created != now:
                    half_open[flow] = now
                    half_open.move_to_end(flow)
            elif flow not in self._established:
                self._evict_for_capacity(now)
                half_open[flow] = now
                self._pending_by_source[src] = self._pending_by_source.get(src, 0) + 1
            # SYN on an established flow: ignore for state, still thresholded
            charged = self._count(src, SYN_HALF_OPEN, now, 0 if created is None else 1)
            if charged + self._pending_by_source.get(src, 0) >= cfg.syn_half_open_per_source:
                return _VERDICTS[SYN_HALF_OPEN]
            return None

        if flags & ACK:
            pending = flow in self._half_open
            # (3) handshake completion: of a half-open flow, or of any new
            # flow under SYN cookies, where the ACK must carry a valid cookie
            if pending or self.cookie_mode and flow not in self._established:
                if self.cookie_mode and check_syn_cookie(
                        cfg.syncookie_secret, flow, int(now // COOKIE_COUNTER_SECS),
                        (body.ack - 1) & 0xFFFFFFFF) is None:
                    return _VERDICTS[COOKIE_INVALID]
                if pending:
                    self._close_half_open(flow)
                else:
                    self._evict_for_capacity(now)
                self._established[flow] = None
                return None
            # (4) bare ACK with no flow behind it
            if not payload and flow not in self._established:
                return self._flag(src, ACK_FLOOD, now, cfg.ack_flood_per_source)

        # (5) reset frequency
        if flags & RST:
            return self._flag(src, RST_FLOOD, now, cfg.rst_flood_per_source)

        # (6) push with nothing pushed
        if flags & PSH and not payload:
            return self._flag(src, PSH_ANOMALY, now, cfg.psh_anomaly_per_source)

        # (7) urgent-pointer misuse
        if flags & URG and (body.urgent_ptr == 0 or not flags & ACK):
            return self._flag(src, URG_ANOMALY, now, cfg.urg_anomaly_per_source)

        return None

    def observe_udp(self, pkt: TraceEvent) -> Verdict | None:
        """Stateless checks: blocked port, then size, then checksum."""
        cfg = self.config
        body = pkt.body
        assert isinstance(body, UdpInfo)
        if pkt.dst_port in cfg.udp_blocked_ports:
            return _VERDICTS[UDP_BLOCKED_PORT]
        if (body.length < cfg.udp_min_len or body.length > cfg.udp_max_len
                or body.length != 8 + len(body.payload)):
            return _VERDICTS[UDP_SIZE_VIOLATION]
        if cfg.udp_validate_checksum and body.checksum != 0:
            # checksum 0 means "not computed" and passes
            if not validate_udp_checksum(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
                                         body.length, body.checksum, body.payload):
                return _VERDICTS[UDP_BAD_CHECKSUM]
        return None
