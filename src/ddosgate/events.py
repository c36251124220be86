"""Event model, trace parsing/serialization, the IPv4 codec and UDP checksum math.

Trace files are UTF-8 JSONL, one event per line. Every line starts with
the seven head fields, the first seven fields of TraceEvent: ``event_id,
ts, kind, src_ip, dst_ip, src_port, dst_port``. ``ts`` is a finite
non-negative number and addresses are ASCII dotted quads without leading
zeros. Each kind's body fields are stated once, in ``_BODIES``: their
wire keys, checks and order, which is also the order of the body
record's fields. Parse and serialize both read that table.

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
from typing import NamedTuple

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


# The records are NamedTuples: immutable, positional, hashed in C, and equal
# to the plain tuple of their fields.

class TcpInfo(NamedTuple):
    flags: int  # bitmask of SYN/ACK/FIN/RST/PSH/URG; empty set is legal
    seq: int
    ack: int
    urgent_ptr: int
    payload: bytes


class UdpInfo(NamedTuple):
    length: int  # UDP length field; may disagree with 8+len(payload)
    checksum: int
    payload: bytes


class HttpInfo(NamedTuple):
    method: str
    uri: str
    version: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    duration_ms: int  # time the client took to deliver the full request


class FlowKey(NamedTuple):
    """Directional 5-tuple; no normalization of direction."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: str


class TraceEvent(NamedTuple):
    event_id: int
    ts: float
    kind: str  # "tcp" | "udp" | "http"
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    body: TcpInfo | UdpInfo | HttpInfo
    label: str | None = None


class Verdict(NamedTuple):
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


# A field's check: int (an integer from 0 to bound), float (a finite
# non-negative number), str (a string of at least bound characters), or one
# of these four wire encodings.
_ADDR = "ipv4"  # a dotted-quad string, kept as text
_FLAGS = "flags"  # letters over "SAFRPU" in any order, as a bitmask
_B64 = "base64"  # a base64 string, as bytes
_PAIRS = "pairs"  # [[name, value], ...] of strings, as a tuple of pairs

# The wire format of each kind's body, stated once: kind -> (body record,
# its fields in record order as (wire key, check, bound)).
_BODIES = {
    "tcp": (TcpInfo, (("flags", _FLAGS, 0), ("seq", int, _U32), ("ack", int, _U32),
                      ("urgent_ptr", int, _U16), ("payload_b64", _B64, 0))),
    "udp": (UdpInfo, (("length", int, _U16), ("checksum", int, _U16), ("payload_b64", _B64, 0))),
    "http": (HttpInfo, (("method", str, 1), ("uri", str, 0), ("version", str, 0), ("headers", _PAIRS, 0),
                        ("body_b64", _B64, 0), ("duration_ms", int, _U63))),
}
_HEAD_KEYS = TraceEvent._fields[:7]

# Compact JSON; json.dumps would build a new encoder per call for these options.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _require(obj: dict, key: str, line_no: int | None):
    try:
        return obj[key]
    except KeyError:
        raise TraceParseError(f"missing required field {key!r}", field=key, line_no=line_no) from None


def _bad(obj: dict, key: str, check, bound: int, line_no: int | None):
    """The slow path of a field that its inline check did not take: its
    value when it is valid after all (flag letters out of canonical order,
    non-empty base64, header pairs), else the TraceParseError naming it."""
    value = _require(obj, key, line_no)
    if check is int:
        message = f"{key} must be an integer" if type(value) is not int else f"{key} out of range"
    elif check is float:
        if (type(value) is not float and type(value) is not int) or value < 0:
            message = f"{key} must be a non-negative number"
        else:
            message = f"{key} must be finite, got {value!r}"
    elif check is str:
        message = f"{key} must be a {'non-empty ' if bound else ''}string"
    elif check is _ADDR:
        if type(value) is not str:
            message = f"{key} must be a dotted-quad string"
        else:
            message = f"{key} is not a valid IPv4 address: {value!r}"
    elif check is _FLAGS:
        if type(value) is not str:
            message = f"{key} must be a string over 'SAFRPU'"
        else:
            try:
                return flags_from_str(value)
            except TraceParseError as exc:
                message = str(exc)
    elif check is _B64:
        if type(value) is not str:
            message = f"{key} must be a base64 string"
        else:
            try:
                return base64.b64decode(value, validate=True)
            except ValueError:  # binascii.Error, or a non-ASCII string
                message = f"{key} is not valid base64"
    else:  # _PAIRS
        if type(value) is list and all(type(pair) is list and len(pair) == 2 and type(pair[0]) is str
                                       and type(pair[1]) is str for pair in value):
            return tuple((name, text) for name, text in value)
        message = f"{key} must be an array of [name, value] pairs"
    raise TraceParseError(message, field=key, line_no=line_no)


def parse_trace_event(line: str, line_no: int | None = None) -> TraceEvent:
    """Parse one JSONL trace line. Unknown fields are ignored.

    Malformed-but-parseable packets (empty flag set, UDP length that
    disagrees with the payload) are preserved; flagging them is the
    analyzer's job, not the parser's. Fields are checked in a fixed
    order, the head's and then the body's in ``_BODIES`` order, and the
    first bad one is named in the TraceParseError. A line holding
    undecodable bytes (read with ``errors="surrogateescape"``) is
    rejected as not UTF-8.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise TraceParseError("not valid UTF-8", line_no=line_no) from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"malformed JSON: {exc.msg}", line_no=line_no) from None
    if type(obj) is not dict:
        raise TraceParseError("trace line is not a JSON object", line_no=line_no)
    get = obj.get

    event_id = get("event_id")
    if type(event_id) is not int or not 0 <= event_id <= _U63:
        _bad(obj, "event_id", int, _U63, line_no)
    ts = get("ts")
    if (type(ts) is not float and type(ts) is not int) or not 0 <= ts <= _MAX_TS:
        _bad(obj, "ts", float, 0, line_no)
    kind = get("kind")
    if kind is None:
        _require(obj, "kind", line_no)
    src_ip = get("src_ip")
    if type(src_ip) is not str or ipv4_to_int(src_ip) is None:
        _bad(obj, "src_ip", _ADDR, 0, line_no)
    dst_ip = get("dst_ip")
    if type(dst_ip) is not str or ipv4_to_int(dst_ip) is None:
        _bad(obj, "dst_ip", _ADDR, 0, line_no)
    src_port = get("src_port")
    if type(src_port) is not int or not 0 <= src_port <= _U16:
        _bad(obj, "src_port", int, _U16, line_no)
    dst_port = get("dst_port")
    if type(dst_port) is not int or not 0 <= dst_port <= _U16:
        _bad(obj, "dst_port", int, _U16, line_no)

    spec = _BODIES.get(kind) if type(kind) is str else None
    if spec is None:
        raise TraceParseError(f"unknown event kind {kind!r}", field="kind", line_no=line_no)
    record, fields = spec
    values = []
    for key, check, bound in fields:
        value = get(key)
        if check is int:
            if type(value) is not int or not 0 <= value <= bound:
                _bad(obj, key, check, bound, line_no)
        elif check is str:
            if type(value) is not str or len(value) < bound:
                _bad(obj, key, check, bound, line_no)
        elif check is _FLAGS and type(value) is str and value in _FLAGS_BY_STR:
            value = _FLAGS_BY_STR[value]
        elif check is _B64 and value == "":
            value = b""
        else:
            value = _bad(obj, key, check, bound, line_no)
        values.append(value)

    label = get("label")
    if label is not None and type(label) is not str:
        raise TraceParseError("label must be a string", field="label", line_no=line_no)
    return TraceEvent(event_id, float(ts), kind, src_ip, dst_ip, src_port, dst_port, record._make(values), label)


def serialize_trace_event(event: TraceEvent) -> str:
    """Inverse of parse_trace_event; stable key order, compact separators.

    Raises ValueError when the body is not the record of the event's kind.
    """
    record, fields = _BODIES.get(event.kind, (None, ()))
    if record is None or not isinstance(event.body, record):
        raise ValueError(f"a {event.kind!r} event cannot carry a {type(event.body).__name__} body")
    obj = dict(zip(_HEAD_KEYS, event))
    for (key, check, _), value in zip(fields, event.body):
        if check is _FLAGS:
            value = flags_to_str(value)
        elif check is _B64:
            value = base64.b64encode(value).decode("ascii")
        obj[key] = value  # header pairs are tuples, which JSON writes as arrays
    if event.label is not None:
        obj["label"] = event.label
    return _dumps(obj)


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
    return _dumps(obj)[len('{"event_id":0'):]


def serialize_verdict_record(event: TraceEvent, verdict: Verdict) -> str:
    """One verdict-log JSONL line; byte-identical for identical inputs."""
    return '{"event_id":%d%s' % (event.event_id, _verdict_tail(verdict))
