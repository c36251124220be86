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
empty-payload PSHs and URG misuse.

Each TCP packet first steps the clock to its ts: expired half-open flows
fold into their windows, then rings that have left the window are swept
(at most once per bucket width), then SYN-cookie mode (a stateless
server) is set: on at syn_half_open_global half-open flows, off below
half that.

Stateless UDP side: port, size, and checksum filtering.

Both sides return the layer-3 ``Verdict`` of their finding, or None;
each verdict is built once.

Sliding windows are rings of bucket_count counters over window_secs, one
per (source, finding code), so threshold decisions are exact to within
one bucket. A ring is one list of bucket_count + 2 ints: its newest
epoch, its total and its counters. Its epoch only moves forward. A
half-open finding additionally depends on flows opened up to
handshake_timeout_secs before the window, since a SYN only folds into
the window when it expires. Each windowed finding keeps one table that
maps a source to its ring, in epoch order: a ring whose epoch moves
forward goes to the back. A ring exists only once written; the sweep,
once per bucket width, drops the stale front of each table, so window
state covers only the (source, finding) pairs counted in the last
window and one bucket.

All time comes from packet timestamps.
"""

from __future__ import annotations

import sys
import warnings
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
    LineError,
    TcpInfo,
    TraceEvent,
    UdpInfo,
    Verdict,
    content_lines,
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

    A line whose escapes do not decode, name a character above \xff or
    are unknown to the codec (such as \q) raises LineError, a ValueError."""
    patterns = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # the codec's word for an unknown escape
        for line_no, line in content_lines(text):
            try:
                patterns.append(line.encode("utf-8").decode("unicode_escape").encode("latin-1"))
            except (UnicodeError, DeprecationWarning) as exc:
                raise LineError(f"bad signature {line!r}: {getattr(exc, 'reason', 'unknown escape')}",
                                line_no) from None
    return tuple(patterns)


def _mix64(z: int) -> int:
    # splitmix64 finalizer: two multiply-xor-shift rounds, published constants
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _cookie_key(secret: int) -> int:
    """The keyed mixer's first round, which depends on the secret alone."""
    return _mix64(secret ^ 0x9E3779B97F4A7C15)


def _cookie_hash(key: int, flow: FlowKey, counter: int) -> int | None:
    src, dst = ipv4_to_int(flow.src_ip), ipv4_to_int(flow.dst_ip)
    if src is None or dst is None:
        return None  # not an IPv4 flow: no cookie is minted for it
    addrs = (src << 32) | dst
    ports = (flow.src_port << 48) | (flow.dst_port << 32) | (counter & 0xFFFFFFFF)
    return _mix64(_mix64(key ^ addrs) ^ ports)


def make_syn_cookie(secret: int, flow: FlowKey, counter: int, mss_idx: int) -> int:
    """32-bit cookie: counter mod 8 in bits 31..29, mss_idx in 28..26,
    low 26 bits from the keyed mixer over (secret, flow 4-tuple, counter).
    Raises ValueError when a flow address is not a dotted quad."""
    if not 0 <= mss_idx < 8:
        raise ValueError(f"mss_idx must be in 0..7, got {mss_idx}")
    h = _cookie_hash(_cookie_key(secret), flow, counter)
    if h is None:
        raise ValueError(f"not an IPv4 flow: {flow.src_ip!r}, {flow.dst_ip!r}")
    return ((counter % 8) << 29) | (mss_idx << 26) | (h & 0x03FFFFFF)


def check_syn_cookie(secret: int, flow: FlowKey, counter_now: int, value: int) -> int | None:
    """Accept a cookie minted at counter_now or counter_now - 1.

    Returns the embedded mss_idx, or None on rejection (stale counter or
    hash mismatch, or a flow address that is not a dotted quad, for
    which no cookie is minted). Rejection is a value, never an exception.
    """
    return _check_cookie(_cookie_key(secret), flow, counter_now, value)


def _check_cookie(key: int, flow: FlowKey, counter_now: int, value: int) -> int | None:
    """``check_syn_cookie`` with the secret's ``_cookie_key`` already mixed."""
    top = value >> 29
    mss_idx = (value >> 26) & 7
    low = value & 0x03FFFFFF
    for c in (counter_now, counter_now - 1):
        if c >= 0 and c % 8 == top:
            h = _cookie_hash(key, flow, c)
            if h is not None and h & 0x03FFFFFF == low:
                return mss_idx
            return None
    return None


class Analyzer:
    """Single-writer analyzer state; packets must arrive in timestamp
    order, which ``Engine.process_event`` guards for the pipeline."""

    def __init__(self, config: AnalyzerConfig | None = None):
        self.config = config or AnalyzerConfig()
        self._bucket_width = self.config.window_secs / self.config.bucket_count
        self._cookie_key = _cookie_key(self.config.syncookie_secret)
        # oldest first: half-open flow -> its SYN's ts, and established flows
        self._half_open: OrderedDict[FlowKey, float] = OrderedDict()
        self._established: OrderedDict[FlowKey, None] = OrderedDict()
        self.entries = ChainMap(self._half_open, self._established)  # every tracked flow
        self._pending_by_source: dict[str, int] = {}
        self._expires_at = 0.0
        # finding code -> source -> its ring [epoch, total, *counts], made on its
        # first count; each table in epoch order, oldest first
        self._rings: dict[str, dict[str, list[int]]] = {
            code: {} for code in (SYN_HALF_OPEN, ACK_FLOOD, RST_FLOOD, PSH_ANOMALY, URG_ANOMALY)}
        self._windows = ChainMap(*self._rings.values())  # every source that holds a ring
        self._new_ring = [0] * (self.config.bucket_count + 2)  # copied, never written
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
        and then moves to the back of its table. Its epoch never goes
        back, and no count's epoch is below an earlier count's: packets
        arrive in ts order, and ``_expire`` folds flows in age order before
        a packet counts anything, each at an expiry no earlier than the
        previous packet. So each table stays in epoch order. A read at an
        earlier ts gives the current total and leaves the ring as it was."""
        epoch = self._epoch(ts)
        table = self._rings[code]
        ring = table.get(src_ip)
        if ring is None:
            if not n:
                return 0
            ring = table[src_ip] = self._new_ring.copy()
            ring[0] = epoch
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
            del table[src_ip]
            table[src_ip] = ring
        ring[2 + epoch % size] += n
        ring[1] += n
        return ring[1]

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

    def _evict_expired_windows(self, now: float) -> None:
        """Drop every ring that last moved bucket_count or more epochs
        before ``epoch(now)``. Called after the expiry step, so every
        later add or count uses an epoch at or after ``epoch(now)`` and
        would first reset such a ring to all zeros, which is what a
        missing ring reads. Each table is in epoch order, so its stale
        rings are its front, and the scan stops at its first ring still in
        the window. Runs at most once per bucket width of trace time, so a
        ring is gone within one bucket of leaving the window."""
        cutoff = self._epoch(now) - self.config.bucket_count
        for table in self._rings.values():
            stale = []
            for src, ring in table.items():
                if ring[0] > cutoff:
                    break
                stale.append(src)
            for src in stale:
                del table[src]
        self._next_sweep = now + self._bucket_width

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
        body = pkt.body
        if not isinstance(body, TcpInfo):
            raise TypeError(f"event {pkt.event_id}, kind {pkt.kind}: body is {type(body).__name__}, not TcpInfo")
        cfg = self.config
        now = pkt.ts
        # _expires_at is never later than the oldest flow's expiry: the
        # oldest SYN's ts only grows, and a flow added later has ts >= now
        if now > self._expires_at:
            self._expire(now)
        if now >= self._next_sweep:
            self._evict_expired_windows(now)
        threshold = cfg.syn_half_open_global
        self.cookie_mode = len(self._half_open) >= (threshold / 2 if self.cookie_mode else threshold)
        flags = body.flags
        payload = body.payload
        src = pkt.src_ip

        # (1) concrete maliciousness beats rate anomalies
        if flags & PSH and payload:
            for sig, verdict in self._signatures:
                if sig in payload:
                    return verdict

        # (2) connection-opening SYN
        opening = flags & SYN and not flags & ACK
        if opening and self.cookie_mode:
            return None  # stateless server: cookie goes out, nothing stored, no flow key built
        flow = _new(FlowKey, (src, pkt.src_port, pkt.dst_ip, pkt.dst_port))
        if opening:
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
            # (3) handshake completion: of a half-open flow, from the table,
            # or under SYN cookies of any new flow whose ACK has a valid cookie
            if pending or self.cookie_mode and flow not in self._established:
                if not pending and _check_cookie(
                        self._cookie_key, flow, int(now // COOKIE_COUNTER_SECS),
                        (body.ack - 1) & 0xFFFFFFFF) is None:
                    return _VERDICTS[COOKIE_INVALID]
                if pending:
                    self._close_half_open(flow)
                else:
                    self._evict_for_capacity(now)
                self._established[flow] = None
                return None

        # (4)-(7) pick the packet's rate finding; count it, and flag the
        # source once its window total reaches the finding's threshold
        if flags & ACK and not payload and flow not in self._established:
            code, threshold = ACK_FLOOD, cfg.ack_flood_per_source  # (4) bare ACK with no flow behind it
        elif flags & RST:
            code, threshold = RST_FLOOD, cfg.rst_flood_per_source  # (5) reset frequency
        elif flags & PSH and not payload:
            code, threshold = PSH_ANOMALY, cfg.psh_anomaly_per_source  # (6) push with nothing pushed
        elif flags & URG and (body.urgent_ptr == 0 or not flags & ACK):
            code, threshold = URG_ANOMALY, cfg.urg_anomaly_per_source  # (7) urgent-pointer misuse
        else:
            return None
        return _VERDICTS[code] if self._count(src, code, now) >= threshold else None

    def observe_udp(self, pkt: TraceEvent) -> Verdict | None:
        """Stateless checks: blocked port, then size, then checksum."""
        body = pkt.body
        if not isinstance(body, UdpInfo):
            raise TypeError(f"event {pkt.event_id}, kind {pkt.kind}: body is {type(body).__name__}, not UdpInfo")
        cfg = self.config
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
