"""The trace codec's fast paths against the general ones.

``events._parse_canonical`` reads canonical lines with regexes; every
other line goes through ``json``. For each line here the
fast path must give the event the ``json`` path gives, or decline it.
``serialize_trace_event`` and ``SandboxSink.capture`` write the event the
fast path read last as its line, and any other as compact JSON of its
fields; either way they must write the bytes of the dict-plus-JSON
serializer kept here as the reference. So every line either path reads,
written back, must give the reference bytes.
"""

import base64
import inspect
import io
import json
import random

import pytest

from ddosgate import events
from ddosgate.events import (
    HttpInfo,
    TraceEvent,
    TraceParseError,
    flags_to_str,
    parse_trace_event,
    serialize_trace_event,
)
from ddosgate.pipeline import SandboxSink
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


def _json_outcome(line: str, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(events, "_parse_canonical", lambda line: None)
        try:
            return _typed(parse_trace_event(line))
        except TraceParseError as exc:
            return exc.field, str(exc)


def _assert_fast_agrees_or_declines(lines, monkeypatch) -> int:
    """The number of lines the fast path read."""
    taken = 0
    for line in lines:
        fast = events._parse_canonical(line)
        if fast is not None:
            taken += 1
            assert _typed(fast) == _json_outcome(line, monkeypatch), line
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


def test_fast_path_agrees_on_mutants(monkeypatch):
    assert _assert_fast_agrees_or_declines(_golden_and_mutant_lines(), monkeypatch) > MUTANTS // 100


def test_fast_path_agrees_on_every_scenario(tmp_path, monkeypatch):
    lines = [serialize_trace_event(e) + "\n" for e in _scenario_events(tmp_path)]
    taken = _assert_fast_agrees_or_declines(lines, monkeypatch)
    # only a string the compact encoder escaped sends a generated line the long way
    assert taken == sum("\\" not in line for line in lines) > len(lines) // 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_json_path_agrees_on_benchmark_traces(workload, bench_inputs_root, monkeypatch):
    # perfbench/workloads.py writes these lines without the program's
    # serializer; every one takes the fast path, so only here does the json
    # path read them
    lines = _bench_sample(workload, bench_inputs_root)
    fast = [events._parse_canonical(line) for line in lines]
    assert None not in fast
    monkeypatch.setattr(events, "_parse_canonical", lambda line: None)
    assert [_typed(parse_trace_event(line)) for line in lines] == [_typed(event) for event in fast]


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
def test_fast_path_edge_lines(line, fast, monkeypatch):
    assert (events._parse_canonical(line) is not None) == fast
    assert _assert_fast_agrees_or_declines([line], monkeypatch) == fast


@pytest.mark.parametrize("text", ["QR==", "AAAA=", "AAA==", "AAAA====", "QQ==QQ==", "AA AA", "AAE\u00e9"])
def test_non_canonical_base64_is_not_valid_base64(text, monkeypatch):
    # the same error on every interpreter: both paths take only what
    # b64encode writes, whatever b64decode(validate=True) would accept
    line = _tcp(payload_b64=text)
    assert events._parse_canonical(line) is None
    assert _json_outcome(line, monkeypatch) == ("payload_b64", "payload_b64 is not valid base64")


def _assert_written_as_read(lines) -> tuple[int, int]:
    """The numbers of lines the fast path and the json path read. Each
    one's event, parsed and then written, must give the reference bytes:
    a fast line's as the line itself, a json line's as compact JSON."""
    fast = slow = 0
    for line in lines:
        canonical = events._parse_canonical(line) is not None
        try:
            event = parse_trace_event(line)
        except TraceParseError:
            continue
        fast += canonical
        slow += not canonical
        assert serialize_trace_event(event) == _reference_serialize(event), line
    return fast, slow


def test_every_parsed_line_is_written_as_the_reference_writes_it(tmp_path, bench_inputs_root):
    lines = _golden_and_mutant_lines() + [serialize_trace_event(e) + "\n" for e in _scenario_events(tmp_path)]
    for workload in workloads.WORKLOADS:
        lines += _bench_sample(workload, bench_inputs_root)
    lines += [line for line, _ in _EDGE_LINES]
    fast, slow = _assert_written_as_read(lines)
    assert fast > len(lines) // 2 and slow > MUTANTS // 100, (fast, slow)


def _udp(**changes) -> str:
    obj = {"event_id": 9, "ts": 3.0, "kind": "udp", "src_ip": "10.0.0.5", "dst_ip": "10.0.0.1",
           "src_port": 40002, "dst_port": 53, "length": 10, "checksum": 0, "payload_b64": "AAE="}
    obj.update(changes)
    return json.dumps(obj, separators=(",", ":"))


_LINES = {"tcp": _tcp, "udp": _udp, "http": _http}
_INT_BODY_FIELDS = [(kind, key, bound) for kind, (_, fields) in events._BODIES.items()
                    for key, check, bound in fields if check is int]


@pytest.mark.parametrize("kind, key, bound", _INT_BODY_FIELDS, ids=[f"{k}.{f}" for k, f, _ in _INT_BODY_FIELDS])
def test_int_body_field_bounds(kind, key, bound, monkeypatch):
    at_bound = _LINES[kind](**{key: bound})
    assert _assert_fast_agrees_or_declines([at_bound], monkeypatch) == 1
    past = _LINES[kind](**{key: bound + 1})
    assert events._parse_canonical(past) is None
    assert _json_outcome(past, monkeypatch) == (key, f"{key} out of range")


@pytest.mark.parametrize("kind", sorted(events._BODIES))
def test_each_converter_takes_its_records_fields(kind):
    record, _ = events._BODIES[kind]
    convert = events._CANONICAL_BODY[kind][1]
    assert tuple(inspect.signature(convert).parameters) == record._fields


def test_lone_surrogate_label_is_not_utf8():
    raw = _tcp(label="x").encode().replace(b'"x"', b'"\xff"').decode("utf-8", "surrogateescape")
    assert events._parse_canonical(raw) is None
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
    reasons = ["syn_flood", "waf_rule_1001", 'r"\\é']
    out = io.StringIO()
    sink = SandboxSink(out)
    expected = []
    for i, event in enumerate(evs):
        sink.capture(event, reasons[i % len(reasons)])
        expected.append(_reference_capture(event, reasons[i % len(reasons)]))
    assert out.getvalue() == "".join(expected)


def test_capture_of_a_parsed_line_is_the_line_itself(monkeypatch):
    # with no field tables, only the event the parser built last can be written
    monkeypatch.setattr(events, "_BODIES", {})
    out = io.StringIO()
    sink = SandboxSink(out)
    expected = []
    for line in (_tcp() + "\r\n", _udp(), _http() + " \t"):
        event = parse_trace_event(line)
        sink.capture(event, "syn_flood")
        expected.append(_reference_capture(event, "syn_flood"))
        with pytest.raises(ValueError):
            sink.capture(event._replace(), "syn_flood")  # equal, but not the parser's
    assert out.getvalue() == "".join(expected)
    earlier = parse_trace_event(_tcp())
    parse_trace_event(_udp())
    with pytest.raises(ValueError):
        sink.capture(earlier, "syn_flood")
    with pytest.raises(ValueError):
        sink.capture(parse_trace_event(_tcp(ts=5)), "syn_flood")  # ts not as repr writes it
