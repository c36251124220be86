"""Layer ordering, verdict totality, sandbox capture, and stats."""

import hashlib
import io
import json
import sys
from collections import Counter

import pytest

from ddosgate import events
from ddosgate.analyzer import AnalyzerConfig, make_syn_cookie
from ddosgate.events import (
    FlowKey,
    HttpInfo,
    TcpInfo,
    TraceEvent,
    TraceParseError,
    UdpInfo,
    compute_udp_checksum,
    flags_from_str,
    parse_trace_event,
    serialize_trace_event,
    serialize_verdict_record,
)
from ddosgate.pipeline import Engine, EngineConfig, OutOfOrderError, SandboxSink
from ddosgate.ratelimit import LimiterConfig
from ddosgate.trafficgen import Scenario, generate
from ddosgate.waf import Ruleset, parse_ruleset

SRV = "10.0.0.1"


def _engine(**kwargs):
    sink = SandboxSink(io.StringIO())
    ruleset = kwargs.pop("ruleset", None)
    cfg = EngineConfig(**kwargs)
    return Engine(cfg, ruleset=ruleset, sandbox=sink)


def _http(eid, ts, src, uri="/", duration_ms=50):
    return TraceEvent(eid, ts, "http", src, SRV, 40000, 80,
                      HttpInfo("GET", uri, "HTTP/1.1", (("host", "h"),), b"", duration_ms))


def _syn(eid, ts, src, sport):
    return TraceEvent(eid, ts, "tcp", src, SRV, sport, 80, TcpInfo(0x01, 1, 0, 0, b""))


def _udp_bad(eid, ts, src):
    return TraceEvent(eid, ts, "udp", src, SRV, 5000, 53, UdpInfo(2000, 0, b"xx"))


def test_benign_request_forwards_at_layer_zero():
    engine = _engine()
    v = engine.process_event(_http(1, 0.0, "10.8.0.1"))
    assert (v.decision, v.layer, v.reason) == ("forward", 0, "")


def test_empty_trace_gives_zero_stats():
    engine = _engine()
    engine.run_trace([], io.StringIO())
    snap = engine.stats_snapshot()
    assert snap["events"] == 0
    assert snap["verdicts"] == {"forward": 0, "drop_rate_limited": 0,
                                "reject_blacklisted": 0, "sandbox": 0}
    assert snap["first_ts"] is None


def test_rate_limit_beats_blacklist_beats_waf(tmp_path):
    """One event that is over-rate, blacklisted, and WAF-matching at once."""
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    engine = _engine(blacklist_path=str(feed))
    bad_uri = "/p?id=1%20union%20select%202"
    verdicts = [engine.process_event(_http(i + 1, 0.0, "203.0.113.9", uri=bad_uri))
                for i in range(11)]
    # burst exhausted on the 11th: layer 1 wins outright
    assert verdicts[10].decision == "drop_rate_limited"
    assert verdicts[10].layer == 1
    # under-rate the same event stops at the blacklist instead
    assert all(v.decision == "reject_blacklisted" and v.layer == 2 for v in verdicts[:10])


def test_waf_consulted_only_after_rate_and_blacklist_pass():
    engine = _engine()
    v = engine.process_event(_http(1, 0.0, "10.8.0.2", uri="/p?id=1%20union%20select%202"))
    assert (v.decision, v.layer, v.rule_id) == ("sandbox", 4, 1001)


def test_a_waf_rule_gives_one_shared_verdict():
    engine = _engine()
    caught = [_http(1, 0.0, "10.8.0.4", uri="/?q=<script>"), _http(2, 0.1, "10.8.0.5", uri="/x?<SCRIPT")]
    first, second = [engine.process_event(e) for e in caught]
    assert first is second
    assert serialize_verdict_record(caught[1], second) == (
        '{"event_id":2,"decision":"sandbox","layer":4,"reason":"waf_rule_1002","rule_id":1002}')


def test_engine_takes_any_sequence_of_rules():
    rules = parse_ruleset('RULE 1 any_header lowercase contains "sqlmap" log\n'
                          'RULE 2 uri lowercase,urldecode contains "union select" sandbox\n'
                          'RULE 3 uri none contains "/admin" sandbox\n'
                          'RULE 4 uri none contains "/" log\n')
    events = [TraceEvent(i + 1, i * 0.01, "http", f"10.8.1.{i}", SRV, 40000, 80,
                         HttpInfo("GET", uri, "HTTP/1.1", (("user-agent", agent),), b"", 50))
              for i, (uri, agent) in enumerate([("/", "curl"), ("/admin", "SQLMap"), ("/?q=UNION%20select", "x"),
                                                ("/x", "sqlmap"), ("/admin?q=union+select", "sqlmap")])]
    for ruleset in (rules, tuple(rules), list(rules), rules[1:], rules[:3]):
        expected = _engine(ruleset=Ruleset(ruleset))
        engine = _engine(ruleset=ruleset)
        assert list(engine.ruleset) == list(ruleset)  # the Rules, in file order
        for event in events:
            assert engine.process_event(event) == expected.process_event(event)
        assert engine.stats_snapshot() == expected.stats_snapshot()
    assert _engine(ruleset=rules).ruleset is rules
    engine = _engine(ruleset=rules[:3])
    assert [engine.process_event(e).reason for e in events] == ["", "waf_rule_3", "waf_rule_2", "", "waf_rule_2"]
    assert engine.stats_snapshot()["waf_log_hits"] == {"1": 3}


def test_packet_events_use_layer_three():
    engine = _engine()
    v = engine.process_event(_udp_bad(1, 0.0, "10.8.0.3"))
    assert (v.decision, v.layer, v.reason) == ("sandbox", 3, "udp_size_violation")


def test_layer_three_verdict_is_the_analyzers_own():
    engine = _engine()
    returned = []
    for name in ("observe_tcp", "observe_udp"):
        def spy(pkt, observe=getattr(engine.analyzer, name)):
            returned.append(observe(pkt))
            return returned[-1]
        setattr(engine.analyzer, name, spy)
    signature = TraceEvent(1, 0.0, "tcp", "10.8.0.9", SRV, 4000, 80,
                           TcpInfo(flags_from_str("PA"), 1, 1, 0, b"/bin/sh -c"))
    for event in (signature, _udp_bad(2, 0.1, "10.8.0.9")):
        verdict = engine.process_event(event)
        assert verdict is returned[-1] is not None
    assert [v.reason for v in returned] == ["payload_signature", "udp_size_violation"]


def _refused_at_the_door(engine, event, message):
    """``event`` is refused with ``message`` and leaves ``engine`` as it was."""
    def state():
        return (dict(engine.limiter.buckets), {kind: dict(v) for kind, v in engine.stats.tally.items()},
                engine._last_ts)

    before = state()
    with pytest.raises(ValueError) as exc:
        engine.process_event(event)
    assert str(exc.value) == message
    assert state() == before


def test_udp_from_a_name_is_refused_at_the_door():
    """A library-built event may not carry an address that is not a dotted
    quad; the door names it before L1 sees it."""
    event = TraceEvent(1, 0.0, "udp", "host-a", SRV, 5000, 53, UdpInfo(10, 7, b"ab"))
    _refused_at_the_door(_engine(), event, "event 1: src_ip is not a valid IPv4 address: 'host-a'")
    with pytest.raises(ValueError, match="not an IPv4 address pair"):
        compute_udp_checksum("host-a", SRV, 5000, 53, 10, b"ab")


def test_cookie_ack_from_a_name_is_refused_at_the_door():
    engine = _engine(analyzer=AnalyzerConfig(syn_half_open_global=1))
    assert engine.process_event(_syn(1, 0.0, "10.8.0.7", 4000)).decision == "forward"
    ack = TraceEvent(2, 0.1, "tcp", "host-a", SRV, 4001, 80, TcpInfo(flags_from_str("A"), 2, 1, 0, b""))
    _refused_at_the_door(engine, ack, "event 2: src_ip is not a valid IPv4 address: 'host-a'")
    assert not engine.analyzer.cookie_mode  # the refused ACK never reached L3's clock step
    with pytest.raises(ValueError, match="not an IPv4 flow"):
        make_syn_cookie(1, FlowKey("host-a", 4001, SRV, 80), 0, 0)


def test_sandbox_file_matches_sandbox_verdicts():
    buf = io.StringIO()
    engine = Engine(EngineConfig(), sandbox=SandboxSink(buf))
    events = [_udp_bad(1, 0.0, "10.8.0.4"), _http(2, 0.1, "10.8.0.5"),
              _udp_bad(3, 0.2, "10.8.0.4")]
    out = io.StringIO()
    engine.run_trace([serialize_trace_event(e) for e in events], out)
    verdicts = [json.loads(l) for l in out.getvalue().splitlines()]
    sandboxed_ids = [v["event_id"] for v in verdicts if v["decision"] == "sandbox"]
    captured = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert [c["event"]["event_id"] for c in captured] == sandboxed_ids == [1, 3]
    assert all(c["reason"] == "udp_size_violation" for c in captured)
    assert captured[0]["verdict_ts"] == 0.0
    assert engine.stats_snapshot()["sandbox_reasons"] == {"udp_size_violation": 2}


def _capture_as_before(event, reason, line, write_ts=repr):
    """A capture line as the sink wrote it with no caches: the reason
    through json and the verdict ts through ``write_ts``, each time."""
    return '{"event":%s,"reason":%s,"verdict_ts":%s}\n' % (line, events._dumps(reason), write_ts(event.ts))


def _tcp_line(eid, ts_text):
    return ('{"event_id":%d,"ts":%s,"kind":"tcp","src_ip":"10.8.1.1","dst_ip":"10.0.0.1","src_port":40000,'
            '"dst_port":80,"flags":"S","seq":1,"ack":0,"urgent_ptr":0,"payload_b64":""}\n' % (eid, ts_text))


def _udp_line():
    return ('{"event_id":10,"ts":4.5,"kind":"udp","src_ip":"10.8.1.2","dst_ip":"10.0.0.1","src_port":5000,'
            '"dst_port":53,"length":10,"checksum":0,"payload_b64":"AAE="}')


def test_capture_bytes_match_the_uncached_formula():
    by_hand = _syn(4, 7.25, "10.8.1.4", 40001)
    cases = []
    for text in ("2.5", "1e5", "200.10", "1E+5", "3"):  # only the first is spelled as repr writes it
        cases.append(("line " + text, lambda text=text: parse_trace_event(_tcp_line(1, text))))
    cases.append(("by hand", lambda: by_hand))
    cases.append(("read earlier", lambda: (parse_trace_event(_tcp_line(9, "4.5")), parse_trace_event(_udp_line()))[0]))
    # an event whose capture follows the read of a json-path line
    cases.append(("read before a json line",
                  lambda: (parse_trace_event(_tcp_line(9, "4.5")), parse_trace_event(" " + _udp_line()))[0]))
    reasons = ["syn_flood", 'quote " and \\ slash', "na\u00efve \u2713", "syn_flood"]
    for i, (name, make) in enumerate(cases * 2):  # the second round with other reasons
        event = make()
        reason = reasons[i % len(reasons)]
        line = serialize_trace_event(event)
        out = io.StringIO()
        SandboxSink(out).capture(event, reason, line)
        assert out.getvalue() == _capture_as_before(event, reason, line), name
    # a read-back, then at once an event with equal fields that no line built
    out = io.StringIO()
    sink = SandboxSink(out)
    read = parse_trace_event(_tcp_line(1, "1e5"))
    twin = TraceEvent(*read)
    assert twin == read and twin is not read
    line = serialize_trace_event(read)
    for event in (read, twin):
        sink.capture(event, "syn_flood", line)
    assert out.getvalue() == _capture_as_before(read, "syn_flood", line) * 2
    # a direct caller's ts the writer refuses, or a ts json writes otherwise than repr
    line = serialize_trace_event(by_hand)
    for ts in (float("nan"), float("inf"), -1.5, True, 5):
        event = by_hand._replace(ts=ts)
        out = io.StringIO()
        SandboxSink(out).capture(event, "syn_flood", line)
        assert out.getvalue() == _capture_as_before(event, "syn_flood", line, json.dumps), ts


def test_capture_of_a_canonical_line_writes_its_own_ts_text():
    out = io.StringIO()
    sink = SandboxSink(out)
    for text, written in (("0.1", "0.1"), ("1e5", "100000.0"), ("200.10", "200.1"), ("1.5e-07", "1.5e-07")):
        line = _tcp_line(1, text)
        sink.capture(parse_trace_event(line), "syn_flood", line)
        assert out.getvalue().endswith(',"verdict_ts":%s}\n' % written)
        assert json.loads(out.getvalue().splitlines()[-1])["verdict_ts"] == float(text)


def test_capture_writes_a_ts_as_json_does():
    """A library caller's ts may be a float subclass with its own repr, or
    an int: the capture's verdict_ts is JSON and reads as the event's ts,
    as the event's own line does."""

    class T(float):
        def __repr__(self):
            return f"T({float(self)})"

    for ts, written in ((T(1.5), "1.5"), (5, "5")):
        out = io.StringIO()
        engine = Engine(EngineConfig(), sandbox=SandboxSink(out))
        v = engine.process_event(TraceEvent(1, ts, "udp", "10.8.0.4", SRV, 5000, 53, UdpInfo(4, 0, b"")))
        assert v.reason == "udp_size_violation"
        assert out.getvalue().endswith(',"verdict_ts":%s}\n' % written)
        capture = json.loads(out.getvalue())
        assert capture["verdict_ts"] == capture["event"]["ts"] == ts


def _sandboxed_by_run_trace(lines, sink_stream) -> list[int]:
    """Run ``lines`` through a default engine capturing to ``sink_stream``;
    the event ids of its sandbox verdicts."""
    verdicts = io.StringIO()
    Engine(EngineConfig(), sandbox=SandboxSink(sink_stream)).run_trace(lines, verdicts)
    return [v["event_id"] for v in map(json.loads, verdicts.getvalue().splitlines()) if v["decision"] == "sandbox"]


def _udp_bad_line(eid, ts_text, src="10.8.2.1", **changes):
    """A canonical udp_size_violation line with its ts spelled ``ts_text``."""
    line = serialize_trace_event(_udp_bad(eid, 0.0, src)._replace(**changes))
    return line.replace('"ts":0.0', '"ts":' + ts_text)


def test_a_json_path_line_is_captured_as_it_arrived():
    # an unknown field, the keys reordered and json.dumps's spaced separators,
    # then trailing spaces and \r\n
    fields = json.loads(_udp_bad_line(1, "0.5"))
    line = json.dumps({"x": [1, None], **dict(reversed(fields.items()))}) + "  \r\n"
    out = io.StringIO()
    assert _sandboxed_by_run_trace([line], out) == [1]
    assert out.getvalue() == ('{"event":%s,"reason":"udp_size_violation","verdict_ts":0.5}\n'
                              % line.rstrip(" \t\n\r"))
    assert json.loads(out.getvalue())["event"] == json.loads(line)


def test_a_capture_is_one_line_to_a_reader_that_splits_at_newlines(tmp_path):
    """A raw U+2028 in a line read by the json path stays raw in its
    capture: one line to a file read by iteration, as perfbench's check
    reads it, but two to str.splitlines, which also splits there."""
    labeled = json.loads(_udp_bad_line(1, "0.5", label="attack:\u2028x"))
    trace = [json.dumps(labeled, ensure_ascii=False, separators=(",", ":")) + "\n", _udp_bad_line(2, "0.6") + "\n"]
    assert "\u2028" in trace[0]
    path = tmp_path / "sandbox.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        sandboxed = _sandboxed_by_run_trace(trace, fh)
    with open(path, encoding="utf-8") as fh:
        captured = [json.loads(capture)["event"] for capture in fh]
    assert [event["event_id"] for event in captured] == sandboxed == [1, 2]
    assert captured[0]["label"] == "attack:\u2028x"
    assert len(path.read_text(encoding="utf-8").splitlines()) == 3


@pytest.mark.parametrize("text, written", [("0.10", "0.1"), ("1e5", "100000.0")])
def test_a_canonical_lines_ts_keeps_its_spelling_in_the_capture(text, written):
    line = _udp_bad_line(1, text)
    out = io.StringIO()
    assert _sandboxed_by_run_trace([line + "\n"], out) == [1]
    assert out.getvalue() == '{"event":%s,"reason":"udp_size_violation","verdict_ts":%s}\n' % (line, written)


class _OwnRepr(float):
    def __repr__(self):
        return f"_OwnRepr({float(self)})"


def _captures_without_lines() -> str:
    """The captures process_event writes when given no line: for events
    parsed from canonical lines, ts spelled as repr writes it or not, from
    a json-path line, and built by hand, one with a ts that is a float
    subclass and one with an int ts. Each is sandboxed at L3."""
    lines = [_udp_bad_line(1, "0.5"), _udp_bad_line(2, "1e1"), _udp_bad_line(3, "20.50", label="benign")]
    lines.append(" " + json.dumps(dict(reversed(json.loads(_udp_bad_line(4, "30.0")).items()))))
    evs = [parse_trace_event(line) for line in lines]
    evs += [_udp_bad(5, 40.0, "10.8.4.2"), _udp_bad(6, _OwnRepr(50.0), "10.8.4.3"), _udp_bad(7, 60, "10.8.4.4")]
    out = io.StringIO()
    engine = Engine(EngineConfig(), sandbox=SandboxSink(out))
    assert [engine.process_event(event).decision for event in evs] == ["sandbox"] * len(evs)
    return out.getvalue()


def test_a_capture_without_its_line_keeps_its_bytes():
    # the sha256 of the bytes the sink wrote before a capture could take its line
    captures = _captures_without_lines()
    assert len(captures.splitlines()) == 7
    assert hashlib.sha256(captures.encode()).hexdigest() == "d6b5c581f0004c68f980d510577de8a985643d20d37e81a9f10eef250e7e3d85"


def test_rate_drop_to_sandbox_flag():
    engine = _engine(rate_drop_to_sandbox=True)
    for i in range(10):
        engine.process_event(_http(i + 1, 0.0, "10.8.0.6"))
    v = engine.process_event(_http(11, 0.0, "10.8.0.6"))
    assert (v.decision, v.layer, v.reason) == ("sandbox", 1, "rate_limited")
    assert engine.stats_snapshot()["sandbox_reasons"] == {"rate_limited": 1}


def test_out_of_order_event_identified():
    engine = _engine()
    engine.process_event(_http(1, 5.0, "10.8.0.7"))
    with pytest.raises(OutOfOrderError) as exc:
        engine.process_event(_http(2, 4.0, "10.8.0.7"))
    assert "event 2" in str(exc.value)


def test_an_earlier_ts_of_zero_is_named_as_earlier():
    engine = _engine()
    engine.process_event(_http(1, 1.0, "10.8.0.7"))
    with pytest.raises(OutOfOrderError) as exc:
        engine.process_event(_http(2, 0.0, "10.8.0.7"))
    assert str(exc.value) == "event 2: ts 0.0 is earlier than previous event ts 1.0"


def test_the_largest_finite_ts_passes_the_clock_guard():
    engine = _engine()
    last = sys.float_info.max
    events_at_last = [_http(1, last, "10.8.0.8"),
                      TraceEvent(2, last, "tcp", "10.8.0.8", SRV, 1000, 80, TcpInfo(0, 1, 0, 0, b"")),
                      TraceEvent(3, last, "udp", "10.8.0.8", SRV, 5000, 53, UdpInfo(10, 0, b"ab"))]
    assert [engine.process_event(event).decision for event in events_at_last] == ["forward"] * 3
    assert engine.stats_snapshot()["last_ts"] == last


@pytest.mark.parametrize("bad_ts", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_non_finite_or_negative_ts_refused(bad_ts):
    engine = _engine()
    with pytest.raises(OutOfOrderError) as exc:
        engine.process_event(_syn(1, bad_ts, "10.8.0.20", 1000))
    assert "event 1" in str(exc.value) and "earlier" not in str(exc.value)
    engine.process_event(_http(2, 1.0, "10.8.0.20"))
    with pytest.raises(OutOfOrderError):
        engine.process_event(_syn(3, bad_ts, "10.8.0.20", 1001))
    # refused events change nothing: the source has the rest of its burst
    decisions = [engine.process_event(_http(4 + i, 1.0, "10.8.0.20")).decision for i in range(10)]
    assert decisions == ["forward"] * 9 + ["drop_rate_limited"]
    assert engine.stats_snapshot()["events"] == 11


def test_strict_mode_aborts_on_malformed_line():
    engine = _engine()
    lines = [serialize_trace_event(_http(1, 0.0, "10.8.0.8")), "{broken json"]
    with pytest.raises(TraceParseError) as exc:
        engine.run_trace(lines, io.StringIO())
    assert "line 2" in str(exc.value)


def test_lenient_mode_skips_and_counts():
    engine = _engine()
    good1 = serialize_trace_event(_http(1, 1.0, "10.8.0.9"))
    out_of_order = serialize_trace_event(_http(2, 0.5, "10.8.0.9"))
    good2 = serialize_trace_event(_http(3, 2.0, "10.8.0.9"))
    stats = engine.run_trace([good1, "nonsense", out_of_order, good2],
                             io.StringIO(), strict=False)
    assert stats.skipped_lines == 2
    snap = engine.stats_snapshot()
    assert snap["events"] == 2
    assert snap["verdicts"]["forward"] == 2


_BLANK_LINES = ["", "\n", " \t\r\n"]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_blank_lines_get_no_verdict_and_count_as_lines(strict):
    # lines 2-4 and 6-8 are blank; line 9 is bad
    good = [serialize_trace_event(_http(i, float(i), "10.8.0.11")) + "\n" for i in (1, 2)]
    lines = [good[0], *_BLANK_LINES, good[1], *_BLANK_LINES]
    engine, out = _engine(), io.StringIO()
    assert engine.run_trace(lines, out, strict=strict).skipped_lines == 0
    assert [json.loads(v)["event_id"] for v in out.getvalue().splitlines()] == [1, 2]

    engine, out = _engine(), io.StringIO()
    if strict:
        with pytest.raises(TraceParseError, match="^line 9: malformed JSON") as exc:
            engine.run_trace(lines + ["{broken json\n"], out)
        assert exc.value.line_no == 9
    else:
        assert engine.run_trace(lines + ["{broken json\n"], out, strict=False).skipped_lines == 1
    assert [json.loads(v)["event_id"] for v in out.getvalue().splitlines()] == [1, 2]
    assert engine.stats_snapshot()["events"] == 2


def test_lenient_mode_skips_non_finite_ts():
    engine = _engine()
    lines = [serialize_trace_event(_syn(i, 1.0, "10.8.0.10", 40000 + i)) for i in range(1, 5)]
    lines[1] = lines[1].replace('"ts":1.0', '"ts":NaN')
    lines[2] = lines[2].replace('"ts":1.0', '"ts":Infinity')
    assert "NaN" in lines[1] and "Infinity" in lines[2]
    out = io.StringIO()
    stats = engine.run_trace(lines, out, strict=False)
    assert [json.loads(v)["event_id"] for v in out.getvalue().splitlines()] == [1, 4]
    assert stats.skipped_lines == 2


def test_blacklist_loads_lazily_and_survives_feed_failure(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    engine = _engine(blacklist_path=str(feed), blacklist_refresh_secs=300.0)
    assert engine.blacklist.last_attempt_ts is None  # nothing read before the first event
    assert engine.process_event(_http(1, 0.0, "203.0.113.1")).decision == "reject_blacklisted"
    assert engine.blacklist.current.version == 1
    feed.unlink()
    # within the interval: no new read attempt
    engine.process_event(_http(2, 100.0, "203.0.113.1"))
    assert (engine.blacklist.error_count, engine.blacklist.last_attempt_ts) == (0, 0.0)
    # interval elapsed, the read fails, old list keeps serving
    v = engine.process_event(_http(3, 300.0, "203.0.113.1"))
    assert v.decision == "reject_blacklisted"
    assert (engine.blacklist.error_count, engine.blacklist.current.version) == (1, 1)
    # the file comes back with a new CIDR: read at the next interval, not before
    feed.write_text("198.51.100.0/24\n")
    assert engine.process_event(_http(4, 599.0, "198.51.100.1")).decision == "forward"
    assert engine.process_event(_http(5, 600.0, "198.51.100.1")).decision == "reject_blacklisted"
    assert (engine.blacklist.error_count, engine.blacklist.current.version) == (1, 2)


def test_verdict_count_equals_event_count():
    engine = _engine()
    events = []
    eid = 1
    for i in range(50):
        events.append(_syn(eid, i * 0.01, "10.8.1.1", 1000 + i)); eid += 1
        events.append(_http(eid, i * 0.01, f"10.8.2.{i + 1}")); eid += 1
    out = io.StringIO()
    engine.run_trace([serialize_trace_event(e) for e in events], out)
    lines = out.getvalue().splitlines()
    snap = engine.stats_snapshot()
    assert len(lines) == snap["events"] == 100
    assert sum(snap["verdicts"].values()) == 100
    # short-circuit monotonicity of the examined counters
    layers = snap["layers"]
    assert layers["1"]["examined"] >= layers["2"]["examined"]
    assert layers["2"]["examined"] >= layers["3"]["examined"] + layers["4"]["examined"]


def _recount(events, verdict_lines):
    """The snapshot's verdict, layer, reason and clock fields, recounted
    from the verdict log joined with each event's kind and ts."""
    verdicts = dict.fromkeys(("forward", "drop_rate_limited", "reject_blacklisted", "sandbox"), 0)
    layers = {str(layer): {"examined": 0, "blocked": 0} for layer in range(1, 5)}
    reasons = Counter()
    accepted = []
    for line in verdict_lines:
        v = json.loads(line)
        event = events[v["event_id"]]
        accepted.append(event.ts)
        verdicts[v["decision"]] += 1
        for layer in (1, 2, 4 if event.kind == "http" else 3):  # the layers on its path
            layers[str(layer)]["examined"] += 1
            if layer == v["layer"]:
                layers[str(layer)]["blocked"] += 1  # a forward has layer 0, so never gets here
                break
        if v["decision"] == "sandbox":
            reasons[v["reason"]] += 1
    return {"events": len(verdict_lines), "verdicts": verdicts, "layers": layers,
            "sandbox_reasons": dict(sorted(reasons.items())),
            "first_ts": accepted[0] if accepted else None,
            "last_ts": accepted[-1] if accepted else None}


def test_stats_snapshot_matches_verdict_log(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("10.1.0.0/30\n")
    trace = list(generate(Scenario("mixed", seed=3, duration_secs=10.0)))
    events = {e.event_id: e for e in trace}
    lines = [serialize_trace_event(e) for e in trace]
    runs = [  # (engine, strict); a lenient run gets an out-of-order last line to skip
        (_engine(), True),
        (_engine(rate_drop_to_sandbox=True, limiter=LimiterConfig(burst=2)), True),
        (Engine(EngineConfig(blacklist_path=str(feed))), False),
    ]
    snaps = []
    for engine, strict in runs:
        out = io.StringIO()
        engine.run_trace(lines if strict else lines + [lines[0]], out, strict=strict)
        recount = _recount(events, out.getvalue().splitlines())
        snap = engine.stats_snapshot()
        assert {key: snap[key] for key in recount} == recount
        assert snap["skipped_lines"] == (0 if strict else 1)
        snaps.append(snap)
    _, l1_sandbox, no_sink = snaps
    assert l1_sandbox["sandbox_reasons"]["rate_limited"] > 0  # L1 sandboxes, which L2 must not count
    assert no_sink["layers"]["2"]["blocked"] > 0
    assert no_sink["last_ts"] == trace[-1].ts  # the skipped line's ts 0.0 is not the last


def test_top_offenders_counts_blocked_events():
    engine = _engine(top_n=2)
    for i in range(13):
        engine.process_event(_http(i + 1, 0.0, "10.8.3.1"))  # 3 over burst
    for i in range(12):
        engine.process_event(_http(i + 14, 0.0, "10.8.3.2"))  # 2 over burst
    snap = engine.stats_snapshot()
    assert snap["top_offenders"] == [["10.8.3.1", 3], ["10.8.3.2", 2]]


def test_labels_never_influence_verdicts():
    engine_a = _engine()
    engine_b = _engine()
    base = _udp_bad(1, 0.0, "10.8.4.1")
    labeled = TraceEvent(1, 0.0, "udp", "10.8.4.1", SRV, 5000, 53,
                         UdpInfo(2000, 0, b"xx"), label="benign")
    assert engine_a.process_event(base) == engine_b.process_event(labeled)


def test_forward_when_sink_absent_and_sandbox_required():
    # engine without a sink still produces sandbox verdicts; capture is optional
    engine = Engine(EngineConfig())
    v = engine.process_event(_udp_bad(1, 0.0, "10.8.5.1"))
    assert v.decision == "sandbox"
    assert engine.stats_snapshot()["sandbox_reasons"] == {"udp_size_violation": 1}


def test_a_kind_the_parser_never_writes_is_refused_at_the_door():
    event = TraceEvent(1, 0.0, "icmp", "10.8.6.1", SRV, 0, 0, UdpInfo(10, 0, b"ab"))
    _refused_at_the_door(Engine(), event, "event 1: a 'icmp' event cannot carry a UdpInfo body")


@pytest.mark.parametrize("kind, body", [
    ("http", TcpInfo(1, 0, 0, 0, b"")),
    ("http", UdpInfo(10, 0, b"ab")),
    ("tcp", UdpInfo(10, 0, b"ab")),
    ("udp", TcpInfo(1, 0, 0, 0, b"")),
    ("tcp", (1, 0, 0, 0, b"")),
], ids=["http_tcp_body", "http_udp_body", "tcp_udp_body", "udp_tcp_body", "tcp_plain_tuple"])
def test_a_body_that_is_not_its_kinds_record_is_refused_at_the_door(kind, body):
    """No layer reads a body of another record, also under ``python -O``:
    the door refuses it by name, and nothing is counted."""
    _refused_at_the_door(Engine(EngineConfig()), TraceEvent(1, 1.0, kind, "10.0.0.5", "10.0.0.1", 1, 2, body, ""),
                         f"event 1: a {kind!r} event cannot carry a {type(body).__name__} body")


def test_each_request_that_reaches_layer_four_calls_evaluate_once(monkeypatch):
    """The benchmark times L4 by wrapping ``ddosgate.pipeline.evaluate``:
    a pipeline that bypassed that name would report the layer as free."""
    import ddosgate.pipeline

    calls = []
    evaluate = ddosgate.pipeline.evaluate
    monkeypatch.setattr(ddosgate.pipeline, "evaluate",
                        lambda ruleset, request, log_hits: calls.append(request) or evaluate(ruleset, request, log_hits))
    trace = [serialize_trace_event(e) for e in generate(Scenario("http_attack", seed=7))]
    examined = []
    for limiter in (LimiterConfig(), LimiterConfig(burst=1)):  # the second stops some requests at L1
        calls.clear()
        engine = _engine(limiter=limiter)
        engine.run_trace(trace, io.StringIO())
        layers = engine.stats_snapshot()["layers"]
        assert len(calls) == layers["4"]["examined"] and layers["4"]["blocked"] > 0
        examined.append(len(calls))
    assert examined[0] > examined[1] > 0
