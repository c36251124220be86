"""Event model, trace parsing/serialization, the IPv4 codec and UDP checksum math.

Trace files are UTF-8 JSONL, one event per line. Every line starts with
the seven head fields, the first seven fields of TraceEvent: ``event_id,
ts, kind, src_ip, dst_ip, src_port, dst_port``. ``ts`` is a finite
non-negative number and addresses are ASCII dotted quads without leading
zeros. The head fields are stated once, in ``_HEAD``, and each kind's
body fields once, in ``_BODIES``: their wire keys, checks and order,
which is also the order of the record's fields. Parse and serialize
both read these tables: a canonical line, as serialize writes it, is
read by regexes built from them in ``parse_trace_event`` itself, which
makes the checks of ``_BODIES`` the regexes leave, and any other line by
``_parse_json``, through ``json``. Apart from the http header list,
those regexes repeat or make optional single characters and classes
only, which keeps ``re`` on its fast paths. Serialize writes every event
as compact JSON of its fields, which for an event read from a canonical
line whose ts is spelled as repr writes it are that line's bytes, and
reads it back, so serialize refuses every event parse refuses.

An optional ``label`` field ("benign" or "attack:<type>") is generator
ground truth and is never consulted by any defense layer.

Verdict log lines carry ``event_id, decision, layer, reason`` and an
optional ``rule_id``.

The config file, WAF ruleset, blacklist feed and signature list share one
line layout, read by ``content_lines``. A bad line there (the feed skips
its own) or in a trace raises a ``LineError``, which keeps ``line_no``
and writes the "line N: " prefix.
"""

from __future__ import annotations

import binascii
import functools
import json
import re
import sys
from collections.abc import Iterator
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

# Dotted quad, ASCII digits only, no leading zeros, each octet 0..255, as
# the address group of the canonical head regex; ipv4_to_int reads the same
# set. Written out four times, not as a {3} repeat: see the shape rule below.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = r"\.".join((_OCTET,) * 4)

_U16 = 2**16 - 1
_U32 = 2**32 - 1
_U63 = 2**63 - 1
_MAX_TS = sys.float_info.max  # 0 <= ts <= _MAX_TS fails for NaN, inf and ints float() cannot hold

# Verdict decisions (wire spelling).
FORWARD = "forward"
DROP_RATE_LIMITED = "drop_rate_limited"
REJECT_BLACKLISTED = "reject_blacklisted"
SANDBOX = "sandbox"


# content_lines splits this many characters of a text, up to the next "\n",
# at a time, so the lines of an 8 MiB feed are never all alive at once.
_SLICE_CHARS = 8192


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped line) of each line of ``text`` that
    is neither blank nor a '#' comment. A "\n" always ends a line break,
    so a slice cut just after one splits into exactly the lines, and
    line numbers, of ``text.splitlines()``."""
    line_no = 0
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        for raw in text[start:cut].splitlines():
            line_no += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line_no, line
        start = cut


def _natural(text: str) -> int | None:
    """``text`` as an integer if it is ASCII digits only, else None."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


class LineError(ValueError):
    """A bad input line; the message starts "line N: " when N is known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class TraceParseError(LineError):
    """A trace line could not be turned into a TraceEvent."""

    def __init__(self, message: str, field: str | None = None, line_no: int | None = None):
        self.field = field
        super().__init__(message, line_no)


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
    """A TCP flow's directional 4-tuple; no normalization of direction."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int


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


# Every flag string in canonical letter order, by mask, and the mask of each,
# so writing a mask or reading a canonical line's flags is one lookup.
_FLAG_STRS = tuple(flags_to_str(mask) for mask in range(64))
_FLAGS_BY_STR = {text: mask for mask, text in enumerate(_FLAG_STRS)}


_OCTETS = {str(n): n for n in range(256)}  # each octet's one spelling -> its value


def ipv4_to_int(text: str) -> int | None:
    """The 32-bit value of a dotted quad such as "10.0.0.1", or None when
    ``text`` is not one: ASCII digits only, no leading zeros, octets 0..255.
    Keeps no state."""
    try:
        a, b, c, d = text.split(".", 3)
        return _OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d]
    except (ValueError, KeyError):  # not four parts; a part that is not an octet
        return None


def int_to_ipv4(value: int) -> str:
    """Inverse of ipv4_to_int for 0 <= value < 2**32."""
    return ".".join(map(str, value.to_bytes(4, "big")))


# A field's check: int (an integer from 0 to bound), float (a number from 0
# to bound, as a float), str (a string of at least bound characters), or one
# of these five wire encodings.
_KIND = "kind"  # one of the kinds in _BODIES
_ADDR = "ipv4"  # a dotted-quad string, kept as text
_FLAGS = "flags"  # letters over "SAFRPU" in any order, as a bitmask
_B64 = "base64"  # a base64 string, as bytes
_PAIRS = "pairs"  # [[name, value], ...] of strings, as a tuple of pairs

# The wire format, stated once as (wire key, check, bound) fields: the head
# every line starts with, in TraceEvent order, and each kind's body, as
# kind -> (body record, its fields in record order).
_HEAD = (("event_id", int, _U63), ("ts", float, _MAX_TS), ("kind", _KIND, 0), ("src_ip", _ADDR, 0),
         ("dst_ip", _ADDR, 0), ("src_port", int, _U16), ("dst_port", int, _U16))
_BODIES = {
    "tcp": (TcpInfo, (("flags", _FLAGS, 0), ("seq", int, _U32), ("ack", int, _U32),
                      ("urgent_ptr", int, _U16), ("payload_b64", _B64, 0))),
    "udp": (UdpInfo, (("length", int, _U16), ("checksum", int, _U16), ("payload_b64", _B64, 0))),
    "http": (HttpInfo, (("method", str, 1), ("uri", str, 0), ("version", str, 0), ("headers", _PAIRS, 0),
                        ("body_b64", _B64, 0), ("duration_ms", int, _U63))),
}

# Compact JSON; json.dumps would build a new encoder per call for these options.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


# One base64 rule for both parse paths and the writer: a trace holds
# exactly what b64encode writes (RFC 4648 canonical encoding).
def _b64(data: bytes) -> str:
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def _b64decode(text: str) -> bytes | None:
    """The bytes of ``text`` if it is exactly what _b64 writes for them,
    else None: bad padding, stray low bits ("QR=="), excess padding
    ("AAAA=") and non-ASCII text all decline."""
    try:
        data = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error, or a non-ASCII string
        return None
    return data if binascii.b2a_base64(data, newline=False) == text.encode() else None


def _field(obj: dict, key: str, check, bound, line_no: int | None):
    """The value of field ``key`` of a decoded line, or the TraceParseError
    naming it."""
    try:
        value = obj[key]
    except KeyError:
        raise TraceParseError(f"missing required field {key!r}", field=key, line_no=line_no) from None
    if check is int:
        if type(value) is int and 0 <= value <= bound:
            return value
        message = f"{key} must be an integer" if type(value) is not int else f"{key} out of range"
    elif check is float:
        if (type(value) is not float and type(value) is not int) or value < 0:
            message = f"{key} must be a non-negative number"
        elif value <= bound:  # False for NaN
            return float(value)
        else:
            message = f"{key} must be finite, got {value!r}"
    elif check is str:
        if type(value) is str and len(value) >= bound:
            return value
        message = f"{key} must be a {'non-empty ' if bound else ''}string"
    elif check is _KIND:
        if type(value) is str and value in _BODIES:
            return value
        message = f"unknown event kind {value!r}"
    elif check is _ADDR:
        if type(value) is not str:
            message = f"{key} must be a dotted-quad string"
        elif ipv4_to_int(value) is not None:
            return value
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
            data = _b64decode(value)
            if data is not None:
                return data
            message = f"{key} is not valid base64"
    else:  # _PAIRS
        if type(value) is list and all(type(pair) is list and len(pair) == 2 and type(pair[0]) is str
                                       and type(pair[1]) is str for pair in value):
            return tuple((name, text) for name, text in value)
        message = f"{key} must be an array of [name, value] pairs"
    raise TraceParseError(message, field=key, line_no=line_no)


# A canonical line, exactly as serialize_trace_event writes it, as regexes
# built from _HEAD and _BODIES: one for the head, which reads the kind, and
# one for each kind's body and the label, with one group per field of a
# sub-pattern per check. Integers have at most 20 digits, so int() stays far
# below the interpreter's digit limit and a ts never rounds into range.
# Strings are printable ASCII without '"' or '\', so a matched line is valid
# UTF-8 and each string's text is its value. The shape rule: re runs a group
# that is repeated or optional on its slow path, which saves and restores
# state on each pass, so a repeat is written out, an optional group is
# written "(?:X|)", and only the header list keeps a "(?:,X)*".
_PLAIN = r'[ !#-\[\]-~]*'
_PAIR = re.compile(r'\["(%s)","(%s)"\]' % (_PLAIN, _PLAIN))
_GROUP = {
    int: "(0|[1-9][0-9]{0,19})",
    float: r"((?:0|[1-9][0-9]{0,19})(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|))",
    str: '"(%s)"' % _PLAIN,
    _KIND: '"(%s)"' % "|".join(_BODIES),
    _ADDR: '"(%s)"' % _IPV4,
    _FLAGS: '"([SAFRPU]*)"',
    _B64: '"([A-Za-z0-9+/=]*)"',
    _PAIRS: r'(\[\]|\[%s(?:,%s)*\])' % ((r'\["%s","%s"\]' % (_PLAIN, _PLAIN),) * 2),
}
_CANONICAL_HEAD = re.compile(r"\{" + ",".join('"%s":%s' % (key, _GROUP[check]) for key, check, _ in _HEAD))
# kind -> the regex of the rest of its line: the body's fields, then the label
_CANONICAL_BODY = {
    kind: re.compile(r'%s(?:,"label":%s|)\}[ \t\n\r]*'
                     % ("".join(',"%s":%s' % (key, _GROUP[check]) for key, check, _ in fields), _GROUP[str]))
    for kind, (_, fields) in _BODIES.items()
}
# Records are built with tuple.__new__, which skips the NamedTuple
# constructor's argument handling.
_new = tuple.__new__


def parse_trace_event(line: str, line_no: int | None = None) -> TraceEvent:
    """Parse one JSONL trace line. Unknown fields are ignored.

    Malformed-but-parseable packets (empty flag set, UDP length that
    disagrees with the payload) are preserved; flagging them is the
    analyzer's job, not the parser's. Fields are checked in a fixed
    order, the head's in ``_HEAD`` order and then the body's in
    ``_BODIES`` order, and the first bad one is named in the
    TraceParseError. A line holding undecodable bytes (read with
    ``errors="surrogateescape"``) is rejected as not UTF-8.

    A canonical line is read here, by the regexes; every other line, and
    every error, comes from ``_parse_json``, which gives the same event
    for a canonical line.
    """
    head = _CANONICAL_HEAD.match(line)
    if head is None:
        return _parse_json(line, line_no)
    event_id, ts, kind, src_ip, dst_ip, src_port, dst_port = head.groups()
    match = _CANONICAL_BODY[kind].fullmatch(line, head.end())
    if match is None:
        return _parse_json(line, line_no)
    event_id, ts, src_port, dst_port = int(event_id), float(ts), int(src_port), int(dst_port)
    if event_id > _U63 or ts > _MAX_TS or src_port > _U16 or dst_port > _U16:
        return _parse_json(line, line_no)
    # The checks of _BODIES that the regexes leave: int bounds, flag letters
    # in canonical order, canonical base64 and a non-empty method.
    if kind == "tcp":
        flags, seq, ack, urgent_ptr, payload, label = match.groups()
        flags = _FLAGS_BY_STR.get(flags)  # letters out of canonical order miss
        seq, ack, urgent_ptr = int(seq), int(ack), int(urgent_ptr)
        payload = _b64decode(payload) if payload else b""
        if flags is None or seq > _U32 or ack > _U32 or urgent_ptr > _U16 or payload is None:
            return _parse_json(line, line_no)
        body = _new(TcpInfo, (flags, seq, ack, urgent_ptr, payload))
    elif kind == "udp":
        length, checksum, payload, label = match.groups()
        length, checksum = int(length), int(checksum)
        payload = _b64decode(payload) if payload else b""
        if length > _U16 or checksum > _U16 or payload is None:
            return _parse_json(line, line_no)
        body = _new(UdpInfo, (length, checksum, payload))
    else:
        method, uri, version, headers, payload, duration_ms, label = match.groups()
        duration_ms = int(duration_ms)
        payload = _b64decode(payload) if payload else b""
        if not method or duration_ms > _U63 or payload is None:
            return _parse_json(line, line_no)
        body = _new(HttpInfo, (method, uri, version, tuple(_PAIR.findall(headers)), payload, duration_ms))
    return _new(TraceEvent, (event_id, ts, kind, src_ip, dst_ip, src_port, dst_port, body, label))


def _parse_json(line: str, line_no: int | None) -> TraceEvent:
    """The event of any trace line, read by ``json`` and checked field by
    field through ``_field``, or the TraceParseError naming the first bad
    field."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise TraceParseError("not valid UTF-8", line_no=line_no) from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"malformed JSON: {exc.msg}", line_no=line_no) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise TraceParseError("malformed JSON: integer has too many digits", line_no=line_no) from None
    except RecursionError:
        raise TraceParseError("malformed JSON: nested too deeply", line_no=line_no) from None
    if type(obj) is not dict:
        raise TraceParseError("trace line is not a JSON object", line_no=line_no)
    head = [_field(obj, key, check, bound, line_no) for key, check, bound in _HEAD]
    record, fields = _BODIES[head[2]]  # by its kind
    body = record._make([_field(obj, key, check, bound, line_no) for key, check, bound in fields])
    label = obj.get("label")
    if label is not None and type(label) is not str:
        raise TraceParseError("label must be a string", field="label", line_no=line_no)
    return TraceEvent(*head, body, label)


def _event_json(event: TraceEvent) -> str:
    """Compact JSON of the fields of ``event``, unchecked: keyed and
    ordered by _HEAD and its kind's _BODIES entry, then its label when set.
    Raises ValueError naming a field whose value cannot be encoded, or for
    a body that is not its kind's record."""
    record, fields = _BODIES.get(event.kind, (None, ()))
    if record is None or not isinstance(event.body, record):
        raise ValueError(f"a {event.kind!r} event cannot carry a {type(event.body).__name__} body")
    obj = {}
    for (key, check, _), value in zip(_HEAD + fields, (*event[:7], *event.body)):
        try:
            obj[key] = _FLAG_STRS[value & 63] if check is _FLAGS else _b64(value) if check is _B64 else value
        except TypeError:
            raise ValueError(f"{key} cannot be written: {value!r}") from None
    if event.label is not None:
        obj["label"] = event.label
    try:
        return _dumps(obj)
    except (TypeError, ValueError) as exc:  # a value json cannot write: name the first
        for key, value in obj.items():
            try:
                _dumps(value)
            except (TypeError, ValueError):
                raise ValueError(f"{key} cannot be written: {exc}") from None
        raise


def serialize_trace_event(event: TraceEvent) -> str:
    """Inverse of parse_trace_event; stable key order, compact separators.

    The event is written by ``_event_json`` and read back, so every event
    the reader would refuse or read as another event raises ValueError
    naming the field.
    """
    line = _event_json(event)
    read = parse_trace_event(line)  # its TraceParseError names the field
    if read != event:
        for (key, _, _), wrote, got in zip(_HEAD + _BODIES[event.kind][1] + (("label", str, 0),),
                                           (*event[:7], *event.body, event.label),
                                           (*read[:7], *read.body, read.label)):
            if wrote != got:
                raise ValueError(f"{key} {wrote!r} would read back as {got!r}")
    return line


def _ones_complement_sum(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                         length: int, checksum: int, payload: bytes) -> int | None:
    # Pseudo-header (src, dst, zero byte + protocol 17, UDP length),
    # UDP header, payload padded with one zero byte if odd. None when
    # either address is not a dotted quad, or a port or the length is
    # outside 0-65535, which no UDP header holds. Since 2**16 % 0xFFFF == 1,
    # a big-endian number is congruent modulo 0xFFFF to the sum of its
    # 16-bit words, and folding the carries of a positive sum gives the one
    # value in [1, 0xFFFF] congruent to it. So each address and the whole
    # payload are one term each, and one % replaces the fold.
    src, dst = ipv4_to_int(src_ip), ipv4_to_int(dst_ip)
    if (src is None or dst is None
            or not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF and 0 <= length <= 0xFFFF)):
        return None
    if len(payload) % 2:
        payload += b"\x00"
    total = (src + dst + 0x0011 + length + src_port + dst_port + length + checksum
             + int.from_bytes(payload, "big"))
    return total % 0xFFFF or (0xFFFF if total else 0)


def compute_udp_checksum(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                         length: int, payload: bytes) -> int:
    """Internet one's-complement checksum over pseudo-header + UDP header + payload.

    A computed value of 0 is transmitted as 0xFFFF, so 0 is never returned.
    Requires length == 8 + len(payload); packets violating that are an
    analyzer finding, not something this function will sign. Raises
    ValueError when either is violated, an address is not a dotted quad,
    or a port or the length is outside 0-65535.
    """
    if length != 8 + len(payload):
        raise ValueError(f"length field {length} != 8 + payload size {len(payload)}")
    total = _ones_complement_sum(src_ip, dst_ip, src_port, dst_port, length, 0, payload)
    if total is None:
        raise ValueError(f"not an IPv4 address pair with ports and length in 0-65535: "
                         f"{src_ip!r}, {dst_ip!r}, {src_port}, {dst_port}, {length}")
    value = ~total & 0xFFFF
    return 0xFFFF if value == 0 else value


def validate_udp_checksum(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                          length: int, checksum: int, payload: bytes) -> bool:
    """True iff re-summing with the checksum field in place yields 0xFFFF;
    False when an address is not a dotted quad, or a port or the length is
    outside 0-65535."""
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
    return f'{{"event_id":{event.event_id}{_verdict_tail(verdict)}'
