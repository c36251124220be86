"""The trace codec's fast paths against the general ones.

``parse_trace_event`` reads canonical lines with regexes; every other
line goes through ``json``, in ``events._parse_json``. For each line here
the fast path must give the event the ``json`` path gives, or decline it;
a counting wrapper on ``events._parse_json`` tells which path read a
line. ``serialize_trace_event`` writes every event as compact JSON of its
fields, and the engine captures an event given without its line as the
line the writer wrote; either way they must write the bytes of the
dict-plus-JSON serializer kept here as the reference. So every line
either path reads, written back, must give the reference bytes. An event
whose line the reader would refuse, or read as another event, the writer
must refuse, and so must the engine's door. An event given with its line
is captured as that line, as it arrived.
"""

import base64
import io
import json
import random

import pytest

from ddosgate import events
from ddosgate.events import (
    SYN,
    HttpInfo,
    TcpInfo,
    TraceEvent,
    TraceParseError,
    UdpInfo,
    flags_to_str,
    parse_trace_event,
    serialize_trace_event,
)
from ddosgate.pipeline import Engine, EngineConfig, OutOfOrderError, SandboxSink
from ddosgate.ratelimit import LimiterConfig
from ddosgate.trafficgen import _SCENARIOS, Scenario, generate
from test_golden import REFERENCE, workloads
from test_parse_fuzz import _golden_lines, _mutate

MUTANTS = 4000
BENCH_STRIDE = 10  # every 10th line of each benchmark trace: 16,309 lines in all


def _scenario_events(tmp_path) -> list[TraceEvent]:
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    evs = []
    for name in sorted(_SCENARIOS):
        params = {"feed": str(feed)} if name == "blacklist_mix" else {}
        evs += generate(Scenario(name, params=params, seed=11, duration_secs=3.0))
    return evs


# each kind's body fields, read once, so a test that patches the writer's
# tables leaves the reference as it is
_BODY_FIELDS = {kind: fields for kind, (_, fields) in events._BODIES.items()}


def _reference_serialize(event: TraceEvent) -> str:
    obj = dict(zip(TraceEvent._fields[:7], event))
    for (key, check, _), value in zip(_BODY_FIELDS[event.kind], event.body):
        if check == events._FLAGS:
            value = flags_to_str(value)
        elif check == events._B64:
            value = base64.b64encode(value).decode("ascii")
        obj[key] = value
    if event.label is not None:
        obj["label"] = event.label
    return json.dumps(obj, separators=(",", ":"))


def _reference_capture(event: TraceEvent, reason: str) -> str:
    return '{"event":%s,"reason":%s,"verdict_ts":%s}\n' % (
        _reference_serialize(event), json.dumps(reason), json.dumps(event.ts))


def _typed(event: TraceEvent):
    return event, tuple(map(type, event)), tuple(map(type, event.body))


def _json_outcome(line: str):
    try:
        return _typed(events._parse_json(line, None))
    except TraceParseError as exc:
        return exc.field, str(exc)


_json_reads = [0]  # calls of events._parse_json, counted by _count_json_reads


@pytest.fixture(autouse=True)
def _count_json_reads(monkeypatch):
    # parse_trace_event calls _parse_json through the module, so every line
    # the fast path declines passes through this wrapper
    parse_json = events._parse_json

    def counted(line, line_no):
        _json_reads[0] += 1
        return parse_json(line, line_no)

    monkeypatch.setattr(events, "_parse_json", counted)


def _fast(line: str) -> TraceEvent | None:
    """The event the fast path read from ``line``; None when it declined
    the line, as it does every line parse_trace_event refuses."""
    reads = _json_reads[0]
    try:
        event = parse_trace_event(line)
    except TraceParseError:
        return None
    return event if _json_reads[0] == reads else None


def _assert_fast_agrees_or_declines(lines) -> int:
    """The number of lines the fast path read."""
    taken = 0
    for line in lines:
        fast = _fast(line)
        if fast is not None:
            taken += 1
            assert _typed(fast) == _json_outcome(line), line
    return taken


def _tcp(**changes) -> str:
    obj = {"event_id": 7, "ts": 1.5, "kind": "tcp", "src_ip": "10.0.0.2", "dst_ip": "10.0.0.1",
           "src_port": 40000, "dst_port": 80, "flags": "SA", "seq": 1, "ack": 2, "urgent_ptr": 0,
           "payload_b64": "AAE=", "label": "benign"}
    obj.update(changes)
    return json.dumps(obj, separators=(",", ":"))


def _golden_and_mutant_lines() -> list[str]:
    rng = random.Random(4047)
    golden = _golden_lines()
    return golden + [_mutate(rng, rng.choice(golden))[0] for _ in range(MUTANTS)]


def _bench_sample(workload: str, bench_inputs_root: str) -> list[str]:
    inputs = workloads.prepare(workload, REFERENCE["seed"], bench_inputs_root)
    with open(inputs.trace, encoding="utf-8") as fh:
        return fh.readlines()[::BENCH_STRIDE]


def test_fast_path_agrees_on_mutants():
    assert _assert_fast_agrees_or_declines(_golden_and_mutant_lines()) > MUTANTS // 100


def test_fast_path_agrees_on_every_scenario(tmp_path):
    lines = [serialize_trace_event(e) + "\n" for e in _scenario_events(tmp_path)]
    taken = _assert_fast_agrees_or_declines(lines)
    # only a string the compact encoder escaped sends a generated line the long way
    assert taken == sum("\\" not in line for line in lines) > len(lines) // 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_json_path_agrees_on_benchmark_traces(workload, bench_inputs_root):
    # perfbench/workloads.py writes these lines without the program's
    # serializer; every one takes the fast path, so only here does the json
    # path read them
    lines = _bench_sample(workload, bench_inputs_root)
    fast = [_fast(line) for line in lines]
    assert None not in fast
    assert [_typed(events._parse_json(line, None)) for line in lines] == [_typed(event) for event in fast]


def _http(**changes) -> str:
    obj = {"event_id": 8, "ts": 2.0, "kind": "http", "src_ip": "10.0.0.3", "dst_ip": "10.0.0.1",
           "src_port": 40001, "dst_port": 80, "method": "GET", "uri": "/a?b=[c]", "version": "HTTP/1.1",
           "headers": [["host", "h"], ["x", "],[ "]], "body_b64": "", "duration_ms": 9}
    obj.update(changes)
    return json.dumps(obj, separators=(",", ":"))


_EDGE_LINES = [
    (_tcp(), True),
    (_tcp() + "\r\n", True),
    (_tcp() + "  \t", True),
    (_tcp(label=None)[:-len(',"label":null}')] + "}", True),
    (_tcp(ts=0), True),
    (_tcp(ts=5), True),
    (_tcp().replace('"ts":1.5', '"ts":1e5'), True),
    (_tcp().replace('"ts":1.5', '"ts":1E-3'), True),
    (_tcp(ts=2**64), True),
    (_tcp().replace('"ts":1.5', '"ts":0.10'), True),  # like 5, 1e5 and 1E-3: not as repr writes it
    (_tcp(flags="AS"), False),  # letters out of canonical order
    (_tcp(payload_b64="AAE"), False),  # bad padding: the json path names it
    (_tcp(payload_b64="QR=="), False),  # stray low bits
    (_tcp(payload_b64="AAAA="), False),  # excess padding
    (_tcp(payload_b64="AAA=="), False),
    (_tcp(payload_b64="QQ==QQ=="), False),  # data after padding
    (_tcp(seq=2**32), False),
    (_tcp(seq=10**20), False),  # 21 digits
    (_tcp(ts=10**20), False),
    (" " + _tcp(), False),
    (_tcp().replace('{"event_id":7,', '{')[:-1] + ',"event_id":7}', False),  # reordered keys
    (_tcp()[:-1] + ',"x":1}', False),  # an extra key
    (_tcp()[:-1] + ',"seq":3}', False),  # a duplicate key: json keeps the last
    (_tcp(label='say "hi"'), False),  # an escaped label
    (_tcp(label="naïve"), False),
    (_tcp(label=None), False),
    (_http(), True),
    (_http(headers=[]), True),
    (_http(method=""), False),  # the json path names the empty method
    (_http(headers=[["a", "b", "c"]]), False),
    (_http(headers=[["a", 'q"']]), False),
    (_http(uri="/\u00e9"), False),
]


@pytest.mark.parametrize("line, fast", _EDGE_LINES)
def test_fast_path_edge_lines(line, fast):
    assert (_fast(line) is not None) == fast
    assert _assert_fast_agrees_or_declines([line]) == fast


def test_canonical_patterns_keep_off_the_general_repeat():
    # re compiles a repeat or an optional group over a multi-character
    # sub-pattern to its slow path, which saves and restores state on each
    # pass; only the header list needs one
    pairs = events._GROUP[events._PAIRS]
    assert pairs.count(")*") == 1
    patterns = [events._IPV4, events._CANONICAL_HEAD.pattern]
    patterns += [pattern.pattern for pattern in events._CANONICAL_BODY.values()]
    for pattern in patterns:
        rest = pattern.replace(pairs, "")
        for shape in (")?", "){", ")+", ")*"):
            assert shape not in rest, (shape, pattern)
    assert sum(pairs in pattern for pattern in patterns) == 1


@pytest.mark.parametrize("text", ["QR==", "AAAA=", "AAA==", "AAAA====", "QQ==QQ==", "AA AA", "AAE\u00e9"])
def test_non_canonical_base64_is_not_valid_base64(text):
    # the same error on every interpreter: both paths take only what
    # b64encode writes, whatever b64decode(validate=True) would accept
    line = _tcp(payload_b64=text)
    assert _fast(line) is None
    assert _json_outcome(line) == ("payload_b64", "payload_b64 is not valid base64")


def _assert_written_as_read(lines) -> tuple[int, int]:
    """The numbers of lines the fast path and the json path read. Each
    one's event, parsed and then written, must give the reference bytes.
    A canonical line holds exactly those bytes, without trailing
    whitespace, when its ts is spelled as repr writes it, and only then.
    (A json line may equal its written line too, e.g. one with an escaped
    label.)"""
    fast = slow = 0
    for line in lines:
        reads = _json_reads[0]
        try:
            event = parse_trace_event(line)
        except TraceParseError:
            continue
        canonical = _json_reads[0] == reads
        fast += canonical
        slow += not canonical
        written = serialize_trace_event(event)
        assert written == _reference_serialize(event), line
        if canonical:
            ts_text = events._CANONICAL_HEAD.match(line).group(2)
            assert (written == line.rstrip(" \t\n\r")) == (ts_text == repr(event.ts)), line
    return fast, slow


def test_every_parsed_line_is_written_as_the_reference_writes_it(tmp_path, bench_inputs_root):
    lines = _golden_and_mutant_lines() + [serialize_trace_event(e) + "\n" for e in _scenario_events(tmp_path)]
    for workload in workloads.WORKLOADS:
        lines += _bench_sample(workload, bench_inputs_root)
    lines += [line for line, _ in _EDGE_LINES]
    fast, slow = _assert_written_as_read(lines)
    assert fast > len(lines) // 2 and slow > MUTANTS // 100, (fast, slow)


def _respelled(line: str) -> list[str]:
    """``line`` with its ts spelled as %.10e, as %.12f, with a trailing
    zero and in upper case; json reads each as a number, and only an
    upper-case spelling without an exponent is the one repr writes."""
    head, key, rest = line.partition('"ts":')
    text, comma, tail = rest.partition(",")
    value = float(text)
    mantissa, e, exponent = text.partition("e")
    zero = mantissa + ("0" if "." in mantissa else ".0") + e + exponent
    return [head + key + spelled + comma + tail for spelled in ("%.10e" % value, "%.12f" % value, zero, text.upper())]


def test_every_scenario_line_with_its_ts_respelled_is_written_as_read(tmp_path):
    lines = [spelled for event in _scenario_events(tmp_path) for spelled in _respelled(serialize_trace_event(event))]
    # every spelling is read by the fast path; the writer writes as read
    # only the upper-case ones without an exponent
    assert _assert_written_as_read(lines) == (len(lines), 0)


def _udp(**changes) -> str:
    obj = {"event_id": 9, "ts": 3.0, "kind": "udp", "src_ip": "10.0.0.5", "dst_ip": "10.0.0.1",
           "src_port": 40002, "dst_port": 53, "length": 10, "checksum": 0, "payload_b64": "AAE="}
    obj.update(changes)
    return json.dumps(obj, separators=(",", ":"))


_LINES = {"tcp": _tcp, "udp": _udp, "http": _http}
_INT_BODY_FIELDS = [(kind, key, bound) for kind, (_, fields) in events._BODIES.items()
                    for key, check, bound in fields if check is int]


@pytest.mark.parametrize("kind, key, bound", _INT_BODY_FIELDS, ids=[f"{k}.{f}" for k, f, _ in _INT_BODY_FIELDS])
def test_int_body_field_bounds(kind, key, bound):
    at_bound = _LINES[kind](**{key: bound})
    assert _assert_fast_agrees_or_declines([at_bound]) == 1
    past = _LINES[kind](**{key: bound + 1})
    assert _fast(past) is None
    assert _json_outcome(past) == (key, f"{key} out of range")


_B64_FIELDS = [("tcp", "payload_b64"), ("udp", "payload_b64"), ("http", "body_b64")]


@pytest.mark.parametrize("kind, key", _B64_FIELDS, ids=[kind for kind, _ in _B64_FIELDS])
@pytest.mark.parametrize("text", ["QR==", "AAAA=", "AAA==", "QQ==QQ=="])
def test_each_kinds_base64_check_on_the_fast_path(kind, key, text):
    line = _LINES[kind](**{key: text})
    assert _fast(line) is None
    assert _json_outcome(line) == (key, f"{key} is not valid base64")


def test_lone_surrogate_label_is_not_utf8():
    raw = _tcp(label="x").encode().replace(b'"x"', b'"\xff"').decode("utf-8", "surrogateescape")
    assert _fast(raw) is None
    with pytest.raises(TraceParseError, match="not valid UTF-8"):
        parse_trace_event(raw)


def _odd_http_events() -> list[TraceEvent]:
    headers = (("host", "hé"), ("x-q", 'a"b\\c\td'), ("x-u", "✓\U0001f600"), ("x-s", "\udc80"))
    return [TraceEvent(9, 0.1 * i, "http", "10.0.0.4", "10.0.0.1", 41000, 80,
                       HttpInfo("GET", uri, "HTTP/1.1", headers, b"\x00\xff", 120), label)
            for i, (uri, label) in enumerate([("/a?q=\"x\"", "attack:é"), ("/ü", None),
                                              ("/\\", 'we"ird\n')])]


def test_serializer_writes_the_reference_bytes(tmp_path):
    evs = _scenario_events(tmp_path) + _odd_http_events()
    assert {e.kind for e in evs} == {"tcp", "udp", "http"}
    for event in evs:
        assert serialize_trace_event(event) == _reference_serialize(event)


def test_capture_writes_the_reference_bytes(tmp_path):
    evs = _scenario_events(tmp_path)[::7] + _odd_http_events()
    for event in evs:  # given without its line: captured as the door wrote it
        assert _captured(event) == _reference_capture(event, "rate_limited")
    reasons = ["syn_flood", "waf_rule_1001", 'r"\\é']
    out = io.StringIO()
    sink = SandboxSink(out)
    expected = []
    for i, event in enumerate(evs):
        sink.capture(event, reasons[i % len(reasons)], serialize_trace_event(event))
        expected.append(_reference_capture(event, reasons[i % len(reasons)]))
    assert out.getvalue() == "".join(expected)


def _captured(event: TraceEvent, line: str | None = None) -> str:
    """What a fresh engine captures for ``event`` given ``line``: its L1
    sandboxes the event, its source's one token spent beforehand."""
    out = io.StringIO()
    engine = Engine(EngineConfig(limiter=LimiterConfig(rps=1e-9, burst=1), rate_drop_to_sandbox=True),
                    sandbox=SandboxSink(out))
    engine.limiter.acquire(event.src_ip, event.ts)
    assert engine.process_event(event, line).reason == "rate_limited"
    return out.getvalue()


def _as_arrived(line: str, event: TraceEvent) -> str:
    return '{"event":%s,"reason":"rate_limited","verdict_ts":%r}\n' % (line.rstrip(" \t\n\r"), event.ts)


def test_capture_of_a_parsed_line_is_the_line_itself(monkeypatch):
    # with no field tables the writer writes nothing, so a capture can only
    # be the line the event was read from
    monkeypatch.setattr(events, "_BODIES", {})
    for line in (_tcp() + "\r\n", _udp(), _http() + " \t", _tcp(ts=5), _tcp().replace('"ts":1.5', '"ts":1e5')):
        event = parse_trace_event(line)
        assert _captured(event, line) == _as_arrived(line, event)
        with pytest.raises(ValueError):
            _captured(event)  # no line: the writer has no tables


_GOOD = TraceEvent(1, 1.5, "tcp", "10.0.0.2", "10.0.0.1", 40000, 80, TcpInfo(SYN, 1, 0, 0, b""))
_GOOD_HTTP = TraceEvent(2, 1.5, "http", "10.0.0.2", "10.0.0.1", 40000, 80,
                        HttpInfo("GET", "/", "HTTP/1.1", (), b"", 10))

def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


# (field named, event): each but flags and payload_b64 writes a line the
# reader refuses; flags 64 would read back as flags 0, and a str payload
# has no base64. Then come two library events from an address that is not
# a str, and two with a value nested deeper than json writes or repr shows.
_REFUSED = [
    ("ts", _GOOD._replace(ts=float("nan"))),
    ("event_id", _GOOD._replace(event_id=-1)),
    ("src_port", _GOOD._replace(src_port=70_000)),
    ("src_ip", _GOOD._replace(src_ip="host")),
    ("method", _GOOD_HTTP._replace(body=_GOOD_HTTP.body._replace(method=""))),
    ("dst_port", _GOOD._replace(dst_port=True)),
    ("flags", _GOOD._replace(body=_GOOD.body._replace(flags=64))),
    ("payload_b64", _GOOD._replace(body=_GOOD.body._replace(payload="x"))),
    ("src_ip", TraceEvent(1, 1.0, "udp", None, "10.0.0.1", 1, 2, UdpInfo(10, 5, b"ab"))),
    ("src_ip", TraceEvent(1, 1.0, "udp", 167772161, "10.0.0.1", 1, 2, UdpInfo(10, 5, b"ab"))),
    ("headers", _GOOD_HTTP._replace(body=_GOOD_HTTP.body._replace(headers=(("X-A", _nested(100_000)),)))),
    ("flags", _GOOD._replace(body=_GOOD.body._replace(flags=_nested(100_000)))),
]


@pytest.mark.parametrize("field, event", _REFUSED, ids=[f"{field}-{i}" for i, (field, _) in enumerate(_REFUSED)])
def test_writer_refuses_what_the_reader_refuses(field, event):
    with pytest.raises(ValueError) as exc:
        serialize_trace_event(event)
    assert str(exc.value).startswith(field + " ")
    if isinstance(exc.value, TraceParseError):
        assert exc.value.field == field


@pytest.mark.parametrize("field, event", _REFUSED, ids=[f"{field}-{i}" for i, (field, _) in enumerate(_REFUSED)])
def test_the_door_refuses_what_the_writer_refuses(field, event):
    """The engine decides only events a trace line can carry: one given
    without its line is refused by name before the clock, L1 or any count
    sees it. A NaN ts fails the clock check, which comes first."""
    out = io.StringIO()
    engine = Engine(EngineConfig(), sandbox=SandboxSink(out))
    with pytest.raises((ValueError, OutOfOrderError)) as exc:
        engine.process_event(event)
    if field == "ts":
        assert type(exc.value) is OutOfOrderError
    else:
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(f"event {event.event_id}: {field} ")
    assert (engine.limiter.buckets, engine.stats.tally, engine._last_ts, out.getvalue()) == ({}, {}, 0.0, "")


def test_a_value_nested_near_the_json_limits_is_refused_by_its_field():
    """Around the depths at which json writes a line but cannot load it
    (which ones depends on the interpreter), each refusal by the writer
    and at the door names the field: the value is not a pair, or cannot
    be written, or cannot be read back."""
    engine = Engine(EngineConfig())
    for depth in range(900, 1_100):
        value = "x"
        for _ in range(depth):
            value = [value]
        event = _GOOD_HTTP._replace(body=_GOOD_HTTP.body._replace(headers=(("X-A", value),)))
        with pytest.raises(ValueError) as writer:
            serialize_trace_event(event)
        assert str(writer.value).startswith("headers "), depth
        with pytest.raises(ValueError) as door:
            engine.process_event(event)
        assert str(door.value).startswith("event 2: headers "), depth
    assert engine.stats.tally == {}


def test_read_back_leaves_each_capture_its_own_line():
    """A capture takes the line it is given, whatever was parsed or
    written since: events parsed before others, and before the writer's
    read-back, are each captured as their own line."""
    lines = [_tcp(ts=2.5), _tcp(ts=5) + "\n", " " + _udp(), _http(headers=[["a", 'q"']])]
    parsed = [parse_trace_event(line) for line in lines]
    assert serialize_trace_event(_GOOD) == _reference_serialize(_GOOD)
    for line, event in zip(lines, parsed):
        capture = _captured(event, line)
        assert capture == _as_arrived(line, event)
        assert json.loads(capture)["event"] == json.loads(line)


_TEXT = ' !"\\AZaz~\u00e9\u2713\U0001f600\t'  # quotes, a backslash, non-ASCII, a tab
# check -> values that break it, as a function of the field's bound
_BAD = {
    int: lambda bound: (-1, bound + 1, True, 1.0, "1"),
    float: lambda bound: (-1.0, float("nan"), float("inf"), True, "1"),
    str: lambda bound: ("", 5, b"x") if bound else (5, b"x"),
    events._ADDR: lambda bound: ("host", "010.0.0.1", "1.2.3", 5),
    events._FLAGS: lambda bound: (64, -1, "S", 1.0),
    events._B64: lambda bound: ("x", 5),
    events._PAIRS: lambda bound: ((("a", 1),), [["a", "b"]], ("ab",)),
}


def _random_value(rng, check, bound):
    if check is int:
        return rng.choice((0, bound, rng.randint(0, bound)))
    if check is float:
        return rng.choice((0.0, events._MAX_TS, 5e-324, rng.uniform(0, 1e6), float(rng.randint(0, 10**6))))
    if check is str:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randint(bound, 6)))
    if check is events._ADDR:
        return rng.choice(("0.0.0.0", "255.255.255.255", ".".join(str(rng.randrange(256)) for _ in range(4))))
    if check is events._FLAGS:
        return rng.randrange(64)
    if check is events._B64:
        return rng.randbytes(rng.choice((0, 1, 2, 3, 17)))
    return tuple((_random_value(rng, str, 0), _random_value(rng, str, 0)) for _ in range(rng.randint(0, 3)))


def _random_event(rng) -> TraceEvent:
    kind = rng.choice(sorted(events._BODIES))
    record, fields = events._BODIES[kind]
    head = [kind if check is events._KIND else _random_value(rng, check, bound) for _, check, bound in events._HEAD]
    body = record(*(_random_value(rng, check, bound) for _, check, bound in fields))
    return TraceEvent(*head, body, rng.choice((None, _random_value(rng, str, 0))))


def test_writer_round_trips_and_refuses_each_bad_field():
    """Seeded events built field by field from the tables' bounds read back
    as themselves, field types included. Each single-field violation raises
    a ValueError whose message starts with the field's wire key."""
    rng = random.Random(5)
    refused = 0
    for _ in range(150):
        event = _random_event(rng)
        assert _typed(parse_trace_event(serialize_trace_event(event))) == _typed(event)
        body_fields = events._BODIES[event.kind][1]
        for i, (key, check, bound) in enumerate(events._HEAD + body_fields + (("label", str, 0),)):
            if check is events._KIND:
                continue
            for bad in _BAD[check](bound) if key != "label" else (5, b"x"):
                if i < 7:
                    broken = event._replace(**{TraceEvent._fields[i]: bad})
                elif key != "label":
                    broken = event._replace(body=event.body._replace(**{event.body._fields[i - 7]: bad}))
                else:
                    broken = event._replace(label=bad)
                with pytest.raises(ValueError) as exc:
                    serialize_trace_event(broken)
                assert str(exc.value).startswith(key + " "), (key, bad, str(exc.value))
                refused += 1
    assert refused > 5000
