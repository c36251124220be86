"""Trace model: parsing, serialization, flags, the IPv4 codec and the UDP checksum."""

import enum
import itertools
import json
import random
import re
import tracemalloc

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
    _IPV4,
    _OCTET,
    _ones_complement_sum,
    compute_udp_checksum,
    flags_from_str,
    flags_to_str,
    int_to_ipv4,
    ipv4_to_int,
    parse_trace_event,
    serialize_trace_event,
    serialize_verdict_record,
    validate_udp_checksum,
)
from ddosgate.pipeline import Engine


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


def test_head_fields_checked_in_head_order():
    # each case breaks two head fields, by a bad value or by leaving the
    # first out; the first in head order is named
    bad = {"event_id": -1, "ts": -1.0, "kind": "icmp", "src_ip": "10.0.0.256", "dst_ip": 7,
           "src_port": 65536, "dst_port": None}
    for first, second in itertools.combinations(bad, 2):
        obj = json.loads(_tcp_line(**{second: bad[second]}))
        missing = {key: value for key, value in obj.items() if key != first}
        for broken in ({**obj, first: bad[first]}, missing):
            with pytest.raises(TraceParseError) as exc:
                parse_trace_event(json.dumps(broken))
            assert exc.value.field == first, broken


def test_ipv4_codec():
    assert ipv4_to_int("0.0.0.0") == 0
    assert ipv4_to_int("10.0.0.1") == 0x0A000001
    assert ipv4_to_int("255.255.255.255") == 0xFFFFFFFF
    for bad in ("", "10.0.0", "10.0.0.1.2", "10.0.0.256", "010.0.0.1", "10.0.0.-1", "10.0.0.1 ",
                " 10.0.0.1", "10.0.0.1\n", "10.0..1", "0x0A.0.0.1", "10.0.0.\u0663", "10.0.0.\u00b2",
                "10.0.0.1.", ".10.0.0.1", "+1.0.0.1", "10.0.0.+1", "10.0.0.1_0", "10.0.0.1\x00"):
        assert ipv4_to_int(bad) is None, bad
        assert re.fullmatch(_IPV4, bad) is None, bad
    rng = random.Random(77)
    for value in [0, 0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(500)]:
        text = int_to_ipv4(value)
        assert text == ".".join(str(value >> shift & 255) for shift in (24, 16, 8, 0))
        assert ipv4_to_int(text) == value


def _is_octet(text: str) -> bool:
    return str(int(text)) == text and int(text) <= 255


def test_octet_and_dotted_quad_match_the_oracle():
    # every string of 1-4 ASCII digits in each place of a quad, then
    # 4-tuples over the boundaries; int() also reads "\u0663", which no
    # octet may be
    for width in range(1, 5):
        for digits in itertools.product("0123456789", repeat=width):
            text = "".join(digits)
            octet = _is_octet(text)
            assert (re.fullmatch(_OCTET, text) is not None) == octet, text
            for place in range(4):
                quad = ".".join(text if i == place else "0" for i in range(4))
                value = ipv4_to_int(quad)
                assert value == (int(text) << 8 * (3 - place) if octet else None), quad
    edges = "0 9 10 99 100 199 200 249 250 255 256 01 001 300 999 \u0663".split()
    for octets in itertools.product(edges, repeat=4):
        text = ".".join(octets)
        valid = all(map(_is_octet, octets))
        assert (re.fullmatch(_IPV4, text) is not None) == valid, text
        assert (ipv4_to_int(text) is not None) == valid, text


def test_a_long_dotted_tail_is_read_in_one_split():
    """The reader splits at most three times: a quad followed by 8 Mi dots
    is refused with a peak of one copy of its tail, not a list of 8 Mi
    parts."""
    text = "1.2.3.4" + "." * 2**23
    tracemalloc.start()
    try:
        assert ipv4_to_int(text) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text)


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


@pytest.mark.parametrize("sport, dport, payload, checksum", [
    (-5, 70000, b"hi", 30193), (65536, 2, b"hi", 34650), (1, -1, b"hi", 34653), (1, 2, bytes(65528), 61397)],
    ids=["ports-minus-5-and-70000", "sport-65536", "dport-minus-1", "length-65536"])
def test_udp_checksum_refuses_ports_and_lengths_outside_16_bits(sport, dport, payload, checksum):
    """No UDP header holds such a port or length (the last case's is
    65,536): compute raises, and validate answers False even for the
    checksum that re-sums to 0xFFFF when the values are not checked."""
    length = 8 + len(payload)
    with pytest.raises(ValueError, match="ports and length in 0-65535"):
        compute_udp_checksum("1.2.3.4", "5.6.7.8", sport, dport, length, payload)
    assert not validate_udp_checksum("1.2.3.4", "5.6.7.8", sport, dport, length, checksum, payload)


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


def _reference_sum(src, dst, sport, dport, length, checksum, payload):
    """The one's-complement sum as a byte-pair loop over pseudo-header,
    UDP header and payload, padded with one zero byte if odd."""
    data = (bytes(int(part) for part in f"{src}.{dst}".split(".")) + bytes((0, 17))
            + b"".join(v.to_bytes(2, "big") for v in (length, sport, dport, length, checksum))
            + payload)
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def test_ones_complement_sum_matches_byte_pair_loop():
    rng = random.Random(2207)
    for size in list(range(80)) * 4:  # every length 0-79, odd ones included, four times
        src, dst = (int_to_ipv4(rng.getrandbits(32)) for _ in range(2))
        sport, dport, checksum = rng.getrandbits(16), rng.getrandbits(16), rng.getrandbits(16)
        payload = rng.randbytes(size) if size % 3 else b"\xff" * size  # all-ones words carry most
        args = (src, dst, sport, dport, 8 + size, checksum, payload)
        assert _ones_complement_sum(*args) == _reference_sum(*args), args


def _rfc1071_sum(src, dst, sport, dport, length, checksum, payload):
    """RFC 1071's loop: add the 16-bit words one at a time and fold the
    carries once at the end. The header terms are added as given, so a
    negative checksum term can cancel the protocol word."""
    words = [int(part) << 8 | int(low) for part, low in zip(*[iter(f"{src}.{dst}".split("."))] * 2)]
    words += [17, length, sport, dport, length, checksum]
    padded = payload + b"\x00" * (len(payload) % 2)
    words += [padded[i] << 8 | padded[i + 1] for i in range(0, len(padded), 2)]
    total = sum(words)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def test_ones_complement_sum_matches_rfc1071_fold():
    rng = random.Random(1071)
    cases = []
    for size in (0, 1, 2, 3, 7, 64, 65, 1471, 1472):
        src, dst = (int_to_ipv4(rng.getrandbits(32)) for _ in range(2))
        for payload in (rng.randbytes(size), b"\xff" * size, bytes(size)):
            cases.append([src, dst, rng.getrandbits(16), rng.getrandbits(16), 8 + size, 0, payload])
    random_cases = len(cases)
    for args in cases[:random_cases]:
        # the checksum that brings the total to an exact multiple of 0xFFFF
        cases.append(args[:5] + [0xFFFF - _rfc1071_sum(*args), args[6]])
    cases.append(["255.255.255.255", "255.255.255.255", 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, b"\xff" * 9001])
    cases.append(["0.0.0.0", "0.0.0.0", 0, 0, 0, -17, b""])  # the all-zero total
    multiples = 0
    for args in cases:
        expected = _rfc1071_sum(*args)
        assert _ones_complement_sum(*args) == expected, args
        multiples += expected == 0xFFFF
    assert multiples >= random_cases
    assert _ones_complement_sum(*cases[-1]) == 0


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


@pytest.mark.parametrize("event_id", [True, 7.9, -3])
def test_an_id_the_reader_refuses_is_refused_at_the_door(event_id):
    engine = Engine()
    ev = parse_trace_event(_tcp_line())._replace(event_id=event_id)
    with pytest.raises(ValueError) as exc:
        engine.process_event(ev)
    assert str(exc.value).startswith(f"event {event_id}: event_id ")
    assert not engine.stats.tally and not engine.limiter.buckets


def test_verdict_record_writes_an_int_subclass_id_as_its_digits():
    ev = parse_trace_event(_tcp_line())._replace(event_id=enum.IntEnum("Id", "A B C D E").E)
    verdict = Engine().process_event(ev)
    assert serialize_verdict_record(ev, verdict) == '{"event_id":5,"decision":"forward","layer":0,"reason":""}'


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
