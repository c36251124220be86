"""Event model, trace parsing/serialization, the IPv4 codec and UDP checksum math.

Trace files are UTF-8 JSONL, one event per line. Every line carries
``event_id, ts, kind, src_ip, dst_ip, src_port, dst_port`` plus per-kind
fields; ``ts`` is a finite non-negative number and addresses are ASCII
dotted quads without leading zeros:

  tcp   flags (string over "SAFRPU"), seq, ack, urgent_ptr, payload_b64
  udp   length, checksum, payload_b64
  http  method, uri, version, headers ([[name, value], ...]), body_b64,
        duration_ms

An optional ``label`` field ("benign" or "attack:<type>") is generator
ground truth and is never consulted by any defense layer.

Verdict log lines carry ``event_id, decision, layer, reason`` and an
optional ``rule_id``.
"""

from __future__ import annotations

import base64
import functools
import json
import re
import socket
import sys
from dataclasses import dataclass
from typing import NoReturn

# TCP flag bits, letter-coded "SAFRPU" in traces.
SYN = 0x01
ACK = 0x02
FIN = 0x04
RST = 0x08
PSH = 0x10
URG = 0x20

_FLAG_BY_LETTER = {"S": SYN, "A": ACK, "F": FIN, "R": RST, "P": PSH, "U": URG}
_LETTER_ORDER = "SAFRPU"

# Dotted quad, ASCII digits only, no leading zeros, each octet 0..255.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")

_U16 = 2**16 - 1
_U32 = 2**32 - 1
_U63 = 2**63 - 1
_MAX_TS = sys.float_info.max  # 0 <= ts <= _MAX_TS fails for NaN, inf and ints float() cannot hold

# Verdict decisions (wire spelling).
FORWARD = "forward"
DROP_RATE_LIMITED = "drop_rate_limited"
REJECT_BLACKLISTED = "reject_blacklisted"
SANDBOX = "sandbox"


class TraceParseError(ValueError):
    """A trace line could not be turned into a TraceEvent."""

    def __init__(self, message: str, field: str | None = None, line_no: int | None = None):
        self.field = field
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True, slots=True)
class TcpInfo:
    flags: int  # bitmask of SYN/ACK/FIN/RST/PSH/URG; empty set is legal
    seq: int
    ack: int
    urgent_ptr: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class UdpInfo:
    length: int  # UDP length field; may disagree with 8+len(payload)
    checksum: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class HttpInfo:
    method: str
    uri: str
    version: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    duration_ms: int  # time the client took to deliver the full request


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Directional 5-tuple; no normalization of direction."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: str


@dataclass(frozen=True, slots=True)
class TraceEvent:
    event_id: int
    ts: float
    kind: str  # "tcp" | "udp" | "http"
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    body: TcpInfo | UdpInfo | HttpInfo
    label: str | None = None


@dataclass(frozen=True, slots=True)
class Verdict:
    decision: str  # forward | drop_rate_limited | reject_blacklisted | sandbox
    layer: int  # 0 for forward, else 1..4
    reason: str  # machine-readable code, "" for forward
    rule_id: int | None = None


def flags_from_str(s: str) -> int:
    mask = 0
    for ch in s:
        bit = _FLAG_BY_LETTER.get(ch)
        if bit is None:
            raise TraceParseError(f"unknown TCP flag letter {ch!r}", field="flags")
        mask |= bit
    return mask


def flags_to_str(mask: int) -> str:
    return "".join(ch for ch in _LETTER_ORDER if mask & _FLAG_BY_LETTER[ch])


# Every canonical-order flag string, so the parser's common case is one lookup.
_FLAGS_BY_STR = {flags_to_str(mask): mask for mask in range(64)}


def ipv4_to_int(text: str) -> int | None:
    """The 32-bit value of a dotted quad such as "10.0.0.1", or None when
    ``text`` is not one: ASCII digits only, no leading zeros, octets 0..255."""
    if _IPV4.fullmatch(text) is None:
        return None
    return int.from_bytes(socket.inet_aton(text), "big")


def int_to_ipv4(value: int) -> str:
    """Inverse of ipv4_to_int for 0 <= value < 2**32."""
    return socket.inet_ntoa(value.to_bytes(4, "big"))


# The parser checks each field inline. Only once a check has failed does it
# call a _bad_* helper, which raises the error that names the field.

def _require(obj: dict, key: str, line_no: int | None):
    try:
        return obj[key]
    except KeyError:
        raise TraceParseError(f"missing required field {key!r}", field=key, line_no=line_no) from None


def _bad_ts(obj: dict, line_no: int | None) -> NoReturn:
    ts = _require(obj, "ts", line_no)
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or ts < 0:
        raise TraceParseError("ts must be a non-negative number", field="ts", line_no=line_no)
    raise TraceParseError(f"ts must be finite, got {ts!r}", field="ts", line_no=line_no)


def _bad_ipv4(obj: dict, field: str, line_no: int | None) -> NoReturn:
    value = _require(obj, field, line_no)
    if not isinstance(value, str):
        raise TraceParseError(f"{field} must be a dotted-quad string", field=field, line_no=line_no)
    raise TraceParseError(f"{field} is not a valid IPv4 address: {value!r}", field=field, line_no=line_no)


def _bad_int(obj: dict, field: str, line_no: int | None) -> NoReturn:
    value = _require(obj, field, line_no)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceParseError(f"{field} must be an integer", field=field, line_no=line_no)
    raise TraceParseError(f"{field} out of range", field=field, line_no=line_no)


def _check_flags(obj: dict, line_no: int | None) -> int:
    # Also the success path for flag strings outside canonical "SAFRPU" order.
    flags_s = _require(obj, "flags", line_no)
    if not isinstance(flags_s, str):
        raise TraceParseError("flags must be a string over 'SAFRPU'", field="flags", line_no=line_no)
    try:
        return flags_from_str(flags_s)
    except TraceParseError as exc:
        raise TraceParseError(str(exc), field="flags", line_no=line_no) from None


def _decode_b64(value, field: str, line_no: int | None) -> bytes:
    if not isinstance(value, str):
        raise TraceParseError(f"{field} must be a base64 string", field=field, line_no=line_no)
    try:
        return base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII string
        raise TraceParseError(f"{field} is not valid base64", field=field, line_no=line_no) from None


def _b64_field(obj: dict, key: str, line_no: int | None) -> bytes:
    value = obj.get(key)
    if value == "":
        return b""
    if value is None:
        _require(obj, key, line_no)
    return _decode_b64(value, key, line_no)


def parse_trace_event(line: str, line_no: int | None = None) -> TraceEvent:
    """Parse one JSONL trace line. Unknown fields are ignored.

    Malformed-but-parseable packets (empty flag set, UDP length that
    disagrees with the payload) are preserved; flagging them is the
    analyzer's job, not the parser's. Fields are checked in a fixed
    order and the first bad one is named in the TraceParseError.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"malformed JSON: {exc.msg}", line_no=line_no) from None
    if type(obj) is not dict:
        raise TraceParseError("trace line is not a JSON object", line_no=line_no)
    get = obj.get

    event_id = get("event_id")
    if type(event_id) is not int or not 0 <= event_id <= _U63:
        _bad_int(obj, "event_id", line_no)
    ts = get("ts")
    if (type(ts) is not float and type(ts) is not int) or not 0 <= ts <= _MAX_TS:
        _bad_ts(obj, line_no)
    kind = get("kind")
    if kind is None:
        _require(obj, "kind", line_no)
    src_ip = get("src_ip")
    if type(src_ip) is not str or ipv4_to_int(src_ip) is None:
        _bad_ipv4(obj, "src_ip", line_no)
    dst_ip = get("dst_ip")
    if type(dst_ip) is not str or ipv4_to_int(dst_ip) is None:
        _bad_ipv4(obj, "dst_ip", line_no)
    src_port = get("src_port")
    if type(src_port) is not int or not 0 <= src_port <= _U16:
        _bad_int(obj, "src_port", line_no)
    dst_port = get("dst_port")
    if type(dst_port) is not int or not 0 <= dst_port <= _U16:
        _bad_int(obj, "dst_port", line_no)

    body: TcpInfo | UdpInfo | HttpInfo
    if kind == "tcp":
        flags = get("flags")
        flags = _FLAGS_BY_STR.get(flags) if type(flags) is str else None
        if flags is None:
            flags = _check_flags(obj, line_no)
        seq = get("seq")
        if type(seq) is not int or not 0 <= seq <= _U32:
            _bad_int(obj, "seq", line_no)
        ack = get("ack")
        if type(ack) is not int or not 0 <= ack <= _U32:
            _bad_int(obj, "ack", line_no)
        urgent_ptr = get("urgent_ptr")
        if type(urgent_ptr) is not int or not 0 <= urgent_ptr <= _U16:
            _bad_int(obj, "urgent_ptr", line_no)
        body = TcpInfo(flags, seq, ack, urgent_ptr, _b64_field(obj, "payload_b64", line_no))
    elif kind == "udp":
        length = get("length")
        if type(length) is not int or not 0 <= length <= _U16:
            _bad_int(obj, "length", line_no)
        checksum = get("checksum")
        if type(checksum) is not int or not 0 <= checksum <= _U16:
            _bad_int(obj, "checksum", line_no)
        body = UdpInfo(length, checksum, _b64_field(obj, "payload_b64", line_no))
    elif kind == "http":
        method = get("method")
        if type(method) is not str or not method:
            _require(obj, "method", line_no)
            raise TraceParseError("method must be a non-empty string", field="method", line_no=line_no)
        raw_headers = get("headers")
        if type(raw_headers) is not list:
            _require(obj, "headers", line_no)
            raise TraceParseError("headers must be an array of [name, value] pairs", field="headers", line_no=line_no)
        headers = []
        for pair in raw_headers:
            if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str or type(pair[1]) is not str:
                raise TraceParseError("headers must be an array of [name, value] pairs", field="headers", line_no=line_no)
            headers.append((pair[0], pair[1]))
        uri = get("uri")
        version = get("version")
        if type(uri) is not str or type(version) is not str:
            _require(obj, "uri", line_no)
            _require(obj, "version", line_no)
            raise TraceParseError("uri and version must be strings", field="uri", line_no=line_no)
        body_bytes = _b64_field(obj, "body_b64", line_no)
        duration_ms = get("duration_ms")
        if type(duration_ms) is not int or not 0 <= duration_ms <= _U63:
            _bad_int(obj, "duration_ms", line_no)
        body = HttpInfo(method, uri, version, tuple(headers), body_bytes, duration_ms)
    else:
        raise TraceParseError(f"unknown event kind {kind!r}", field="kind", line_no=line_no)

    label = get("label")
    if label is not None and type(label) is not str:
        raise TraceParseError("label must be a string", field="label", line_no=line_no)
    return TraceEvent(event_id, float(ts), kind, src_ip, dst_ip, src_port, dst_port, body, label)


def serialize_trace_event(event: TraceEvent) -> str:
    """Inverse of parse_trace_event; stable key order, compact separators."""
    obj: dict = {
        "event_id": event.event_id,
        "ts": event.ts,
        "kind": event.kind,
        "src_ip": event.src_ip,
        "dst_ip": event.dst_ip,
        "src_port": event.src_port,
        "dst_port": event.dst_port,
    }
    body = event.body
    if event.kind == "tcp":
        assert isinstance(body, TcpInfo)
        obj["flags"] = flags_to_str(body.flags)
        obj["seq"] = body.seq
        obj["ack"] = body.ack
        obj["urgent_ptr"] = body.urgent_ptr
        obj["payload_b64"] = base64.b64encode(body.payload).decode("ascii")
    elif event.kind == "udp":
        assert isinstance(body, UdpInfo)
        obj["length"] = body.length
        obj["checksum"] = body.checksum
        obj["payload_b64"] = base64.b64encode(body.payload).decode("ascii")
    else:
        assert isinstance(body, HttpInfo)
        obj["method"] = body.method
        obj["uri"] = body.uri
        obj["version"] = body.version
        obj["headers"] = [[n, v] for n, v in body.headers]
        obj["body_b64"] = base64.b64encode(body.body).decode("ascii")
        obj["duration_ms"] = body.duration_ms
    if event.label is not None:
        obj["label"] = event.label
    return json.dumps(obj, separators=(",", ":"))


def flow_key(event: TraceEvent) -> FlowKey:
    """Directional 5-tuple key for tcp/udp events; http has no flow."""
    if event.kind not in ("tcp", "udp"):
        raise ValueError(f"flow_key is only defined for tcp/udp events, got {event.kind!r}")
    return FlowKey(event.src_ip, event.src_port, event.dst_ip, event.dst_port, event.kind)


def _ones_complement_sum(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                         length: int, checksum: int, payload: bytes) -> int:
    # Pseudo-header (src, dst, zero byte + protocol 17, UDP length),
    # UDP header, payload padded with one zero byte if odd.
    src, dst = ipv4_to_int(src_ip), ipv4_to_int(dst_ip)
    if src is None or dst is None:
        raise ValueError(f"not an IPv4 address pair: {src_ip!r}, {dst_ip!r}")
    total = ((src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
             + 0x0011 + length + src_port + dst_port + length + checksum)
    n = len(payload)
    data = payload if n % 2 == 0 else payload + b"\x00"
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def compute_udp_checksum(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                         length: int, payload: bytes) -> int:
    """Internet one's-complement checksum over pseudo-header + UDP header + payload.

    A computed value of 0 is transmitted as 0xFFFF, so 0 is never returned.
    Requires length == 8 + len(payload); packets violating that are an
    analyzer finding, not something this function will sign.
    """
    if length != 8 + len(payload):
        raise ValueError(f"length field {length} != 8 + payload size {len(payload)}")
    value = (~_ones_complement_sum(src_ip, dst_ip, src_port, dst_port, length, 0, payload)) & 0xFFFF
    return 0xFFFF if value == 0 else value


def validate_udp_checksum(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                          length: int, checksum: int, payload: bytes) -> bool:
    """True iff re-summing with the checksum field in place yields 0xFFFF."""
    return _ones_complement_sum(src_ip, dst_ip, src_port, dst_port, length, checksum, payload) == 0xFFFF


# Verdicts differ only by layer, reason and rule id, so a small cache of
# verdict-line tails serves every event; its bound holds even for a caller
# that invents reasons.
@functools.lru_cache(maxsize=4096)
def _verdict_tail(verdict: Verdict) -> str:
    obj: dict = {"event_id": 0, "decision": verdict.decision, "layer": verdict.layer, "reason": verdict.reason}
    if verdict.rule_id is not None:
        obj["rule_id"] = verdict.rule_id
    return json.dumps(obj, separators=(",", ":"))[len('{"event_id":0'):]


def serialize_verdict_record(event: TraceEvent, verdict: Verdict) -> str:
    """One verdict-log JSONL line; byte-identical for identical inputs."""
    return '{"event_id":%d%s' % (event.event_id, _verdict_tail(verdict))
