"""Trace model: parsing, serialization, flags, the IPv4 codec and the UDP checksum."""

import json
import random

import pytest

from ddosgate.events import (
    ACK,
    PSH,
    SYN,
    URG,
    HttpInfo,
    TcpInfo,
    TraceEvent,
    TraceParseError,
    UdpInfo,
    Verdict,
    compute_udp_checksum,
    flags_from_str,
    flags_to_str,
    flow_key,
    int_to_ipv4,
    ipv4_to_int,
    parse_trace_event,
    serialize_trace_event,
    serialize_verdict_record,
    validate_udp_checksum,
)


def _tcp_line(**overrides):
    obj = {
        "event_id": 1, "ts": 0.5, "kind": "tcp", "src_ip": "10.0.0.2",
        "dst_ip": "10.0.0.1", "src_port": 40000, "dst_port": 80,
        "flags": "S", "seq": 7, "ack": 0, "urgent_ptr": 0, "payload_b64": "",
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_flags_round_trip():
    assert flags_from_str("SA") == SYN | ACK
    assert flags_from_str("") == 0
    assert flags_to_str(SYN | ACK | PSH | URG) == "SAPU"
    # canonical letter order regardless of input order
    assert flags_to_str(flags_from_str("AS")) == "SA"


def test_unknown_flag_letter_rejected():
    with pytest.raises(TraceParseError):
        flags_from_str("SX")


def test_parse_flags_any_order_and_rejects_unknown_letters():
    assert parse_trace_event(_tcp_line(flags="AS")).body.flags == SYN | ACK
    assert parse_trace_event(_tcp_line(flags="")).body.flags == 0
    for bad in ("SX", "x", "s", 7, None):
        with pytest.raises(TraceParseError) as exc:
            parse_trace_event(_tcp_line(flags=bad))
        assert exc.value.field == "flags"


def test_parse_tcp_event():
    ev = parse_trace_event(_tcp_line())
    assert ev.kind == "tcp"
    assert isinstance(ev.body, TcpInfo)
    assert ev.body.flags == SYN
    assert ev.label is None


def test_parse_missing_field_names_it():
    obj = json.loads(_tcp_line())
    del obj["seq"]
    with pytest.raises(TraceParseError) as exc:
        parse_trace_event(json.dumps(obj), line_no=3)
    assert exc.value.field == "seq"
    assert "line 3" in str(exc.value)


def test_parse_rejects_bad_ip_and_port():
    with pytest.raises(TraceParseError):
        parse_trace_event(_tcp_line(src_ip="10.0.0.256"))
    with pytest.raises(TraceParseError):
        parse_trace_event(_tcp_line(src_ip="10.0.0"))
    with pytest.raises(TraceParseError):
        parse_trace_event(_tcp_line(src_port=65536))
    with pytest.raises(TraceParseError):
        parse_trace_event(_tcp_line(ts=-1.0))
    # digits outside ASCII: superscript two, ARABIC-INDIC DIGIT THREE
    for bad in ("10.0.0.\u00b2", "10.0.0.\u0663"):
        with pytest.raises(TraceParseError) as exc:
            parse_trace_event(_tcp_line(src_ip=bad))
        assert exc.value.field == "src_ip"


def test_parse_rejects_non_finite_ts():
    base = _tcp_line()
    for text in ("NaN", "Infinity", "-Infinity", "1e400"):
        line = base.replace('"ts": 0.5', f'"ts": {text}')
        assert text in line
        with pytest.raises(TraceParseError) as exc:
            parse_trace_event(line)
        assert exc.value.field == "ts"


def test_ipv4_codec():
    assert ipv4_to_int("0.0.0.0") == 0
    assert ipv4_to_int("10.0.0.1") == 0x0A000001
    assert ipv4_to_int("255.255.255.255") == 0xFFFFFFFF
    for bad in ("", "10.0.0", "10.0.0.1.2", "10.0.0.256", "010.0.0.1", "10.0.0.-1", "10.0.0.1 ",
                " 10.0.0.1", "10.0.0.1\n", "10.0..1", "0x0A.0.0.1", "10.0.0.\u0663", "10.0.0.\u00b2"):
        assert ipv4_to_int(bad) is None, bad
    rng = random.Random(77)
    for value in [0, 0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(500)]:
        text = int_to_ipv4(value)
        assert text == ".".join(str(value >> shift & 255) for shift in (24, 16, 8, 0))
        assert ipv4_to_int(text) == value


def test_parse_rejects_unknown_kind_and_bad_base64():
    with pytest.raises(TraceParseError):
        parse_trace_event(_tcp_line(kind="icmp"))
    with pytest.raises(TraceParseError):
        parse_trace_event(_tcp_line(payload_b64="!!!"))
    with pytest.raises(TraceParseError):
        parse_trace_event("not json at all")


def test_unknown_fields_ignored_label_kept():
    ev = parse_trace_event(_tcp_line(label="attack:syn_flood", extra_junk=42))
    assert ev.label == "attack:syn_flood"


def test_serialize_parse_round_trip_all_kinds():
    events = [
        TraceEvent(1, 0.25, "tcp", "10.0.0.2", "10.0.0.1", 40000, 80,
                   TcpInfo(SYN | ACK, 123, 456, 0, b"\x00\xffdata"), "benign"),
        TraceEvent(2, 0.5, "udp", "10.0.0.3", "10.0.0.1", 9999, 53,
                   UdpInfo(12, 0x1234, b"abcd"), None),
        TraceEvent(3, 1.0, "http", "10.0.0.4", "10.0.0.1", 41000, 80,
                   HttpInfo("GET", "/x?a=1", "HTTP/1.1",
                            (("host", "h"), ("user-agent", "ua")), b"body", 120),
                   "attack:http_attack"),
    ]
    for ev in events:
        assert parse_trace_event(serialize_trace_event(ev)) == ev


def test_records_are_tuples_of_their_fields():
    body = TcpInfo(SYN, 7, 0, 0, b"")
    assert body == (SYN, 7, 0, 0, b"") and hash(body) == hash((SYN, 7, 0, 0, b""))
    assert Verdict("forward", 0, "").rule_id is None
    with pytest.raises(AttributeError):
        body.seq = 8


def test_serialize_rejects_a_body_of_another_kind():
    ev = TraceEvent(1, 0.25, "tcp", "10.0.0.2", "10.0.0.1", 40000, 80, UdpInfo(12, 0x1234, b"abcd"))
    with pytest.raises(ValueError, match="'tcp' event cannot carry a UdpInfo body"):
        serialize_trace_event(ev)
    with pytest.raises(ValueError):
        serialize_trace_event(ev._replace(kind="icmp"))


def _http_line(**overrides):
    obj = {
        "event_id": 1, "ts": 0.5, "kind": "http", "src_ip": "10.0.0.2",
        "dst_ip": "10.0.0.1", "src_port": 40000, "dst_port": 80, "method": "GET",
        "uri": "/", "version": "HTTP/1.1", "headers": [["host", "h"]], "body_b64": "",
        "duration_ms": 10,
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_http_fields_checked_in_record_order():
    # each case breaks two fields; the first in record order is named
    cases = [
        ({"method": "", "uri": 1}, "method", "method must be a non-empty string"),
        ({"uri": None, "headers": 1}, "uri", "uri must be a string"),
        ({"version": 1.1, "headers": 1}, "version", "version must be a string"),
        ({"headers": [["a"]], "body_b64": "!"}, "headers", "headers must be an array of [name, value] pairs"),
        ({"body_b64": 7, "duration_ms": -1}, "body_b64", "body_b64 must be a base64 string"),
    ]
    for overrides, field, message in cases:
        with pytest.raises(TraceParseError) as exc:
            parse_trace_event(_http_line(**overrides))
        assert (exc.value.field, str(exc.value)) == (field, message)
    assert parse_trace_event(_http_line()).body == HttpInfo("GET", "/", "HTTP/1.1", (("host", "h"),), b"", 10)


def test_parse_rejects_undecodable_bytes():
    # a trace file is read with errors="surrogateescape", so b"\xff" arrives as "\udcff"
    raw = _tcp_line(label="x").encode().replace(b'"x"', b'"\xff"')
    with pytest.raises(TraceParseError, match="line 4: not valid UTF-8") as exc:
        parse_trace_event(raw.decode("utf-8", "surrogateescape"), line_no=4)
    assert exc.value.field is None
    assert parse_trace_event(_tcp_line(label="naïve ✓")).label == "naïve ✓"


def test_serialized_bytes_are_stable():
    ev = parse_trace_event(_tcp_line())
    assert serialize_trace_event(ev) == serialize_trace_event(ev)


def test_flow_key_only_for_packets():
    ev = parse_trace_event(_tcp_line())
    assert flow_key(ev).proto == "tcp"
    http = TraceEvent(1, 0.0, "http", "10.0.0.2", "10.0.0.1", 1, 80,
                      HttpInfo("GET", "/", "HTTP/1.1", (), b"", 10))
    with pytest.raises(ValueError):
        flow_key(http)


# checksum vectors frozen from an independent byte-level reference
def test_udp_checksum_known_vector():
    assert compute_udp_checksum("192.0.2.1", "192.0.2.2", 1, 2, 10, b"hi") == 0x136A


def test_udp_checksum_zero_maps_to_ffff():
    # this payload makes the one's-complement sum come out to zero
    value = compute_udp_checksum("192.0.2.1", "192.0.2.2", 1, 2, 10, b"\x7b\xd3")
    assert value == 0xFFFF
    assert validate_udp_checksum("192.0.2.1", "192.0.2.2", 1, 2, 10, 0xFFFF, b"\x7b\xd3")


def test_udp_checksum_length_must_agree():
    with pytest.raises(ValueError):
        compute_udp_checksum("192.0.2.1", "192.0.2.2", 1, 2, 11, b"hi")


def test_udp_validate_of_computed_random_packets():
    rng = random.Random(1801)
    for _ in range(300):
        src = f"{rng.randint(1, 223)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
        dst = f"{rng.randint(1, 223)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
        sport, dport = rng.randint(0, 65535), rng.randint(0, 65535)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        length = 8 + len(payload)
        csum = compute_udp_checksum(src, dst, sport, dport, length, payload)
        assert 1 <= csum <= 0xFFFF
        assert validate_udp_checksum(src, dst, sport, dport, length, csum, payload)


def test_udp_single_byte_payload_corruption_detected():
    src, dst, sport, dport = "198.51.100.9", "10.0.0.1", 5353, 53
    payload = bytes(range(40))
    length = 8 + len(payload)
    csum = compute_udp_checksum(src, dst, sport, dport, length, payload)
    for i in range(len(payload)):
        corrupted = bytearray(payload)
        corrupted[i] ^= 0x41
        assert not validate_udp_checksum(src, dst, sport, dport, length, csum, bytes(corrupted))


def test_verdict_record_shape():
    ev = parse_trace_event(_tcp_line())
    line = serialize_verdict_record(ev, Verdict("sandbox", 3, "syn_half_open", None))
    assert line == '{"event_id":1,"decision":"sandbox","layer":3,"reason":"syn_half_open"}'
    line = serialize_verdict_record(ev, Verdict("sandbox", 4, "waf_rule_1001", 1001))
    assert '"rule_id":1001' in line
    line = serialize_verdict_record(ev, Verdict("forward", 0, ""))
    assert '"reason":""' in line and "rule_id" not in line


def test_verdict_record_matches_json_for_any_verdict():
    ev = parse_trace_event(_tcp_line(event_id=2**63 - 1))
    reasons = ["", "rate_limited", 'quote" and \\ slash', "naïve ✓"]
    reasons += [f"waf_rule_{i}" for i in range(5000)]  # more than the tail cache holds
    for i, reason in enumerate(reasons):
        verdict = Verdict("sandbox", 1 + i % 4, reason, None if i % 2 else i)
        expected = {"event_id": ev.event_id, "decision": "sandbox", "layer": verdict.layer, "reason": reason}
        if verdict.rule_id is not None:
            expected["rule_id"] = verdict.rule_id
        line = json.dumps(expected, separators=(",", ":"))
        assert serialize_verdict_record(ev, verdict) == line
        assert serialize_verdict_record(ev, verdict) == line  # now from the cache
