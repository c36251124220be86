"""Layer ordering, verdict totality, sandbox capture, and stats."""

import io
import json

import pytest

from ddosgate.events import (
    HttpInfo,
    TcpInfo,
    TraceEvent,
    TraceParseError,
    UdpInfo,
    serialize_trace_event,
)
from ddosgate.pipeline import Engine, EngineConfig, OutOfOrderError, SandboxSink
from ddosgate.waf import Ruleset, parse_ruleset

SRV = "10.0.0.1"


def _engine(**kwargs):
    sink = SandboxSink(io.StringIO())
    fetcher = kwargs.pop("fetcher", None)
    ruleset = kwargs.pop("ruleset", None)
    cfg = EngineConfig(**kwargs)
    return Engine(cfg, ruleset=ruleset, sandbox=sink, fetcher=fetcher)


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
    stats = engine.run_trace([], io.StringIO())
    assert stats.events == 0
    snap = engine.stats_snapshot()
    assert snap["verdicts"] == {"forward": 0, "drop_rate_limited": 0,
                                "reject_blacklisted": 0, "sandbox": 0}
    assert snap["first_ts"] is None


def test_rate_limit_beats_blacklist_beats_waf():
    """One event that is over-rate, blacklisted, and WAF-matching at once."""
    feed = "203.0.113.0/24\n"
    engine = _engine(blacklist_locator="feed", fetcher=lambda loc: feed)
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
    assert engine.stats.events == 11


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
    assert stats.events == 2
    assert stats.verdict_totals["forward"] == 2


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


def test_blacklist_loads_lazily_and_survives_feed_failure():
    calls = []

    def flaky(locator):
        calls.append(locator)
        if len(calls) == 1:
            return "203.0.113.0/24\n"
        raise OSError("feed down")

    engine = _engine(blacklist_locator="feed", blacklist_refresh_secs=300.0, fetcher=flaky)
    assert engine.process_event(_http(1, 0.0, "203.0.113.1")).decision == "reject_blacklisted"
    assert calls == ["feed"]
    # within the interval: no new fetch attempt
    engine.process_event(_http(2, 100.0, "203.0.113.1"))
    assert len(calls) == 1
    # interval elapsed, fetch fails, old list keeps serving
    v = engine.process_event(_http(3, 300.0, "203.0.113.1"))
    assert len(calls) == 2
    assert v.decision == "reject_blacklisted"
    assert engine.blacklist.error_count == 1


def test_verdict_count_equals_event_count():
    engine = _engine()
    events = []
    eid = 1
    for i in range(50):
        events.append(_syn(eid, i * 0.01, "10.8.1.1", 1000 + i)); eid += 1
        events.append(_http(eid, i * 0.01, f"10.8.2.{i + 1}")); eid += 1
    out = io.StringIO()
    stats = engine.run_trace([serialize_trace_event(e) for e in events], out)
    lines = out.getvalue().splitlines()
    assert len(lines) == stats.events == 100
    snap = engine.stats_snapshot()
    assert sum(snap["verdicts"].values()) == 100
    # short-circuit monotonicity of the examined counters
    layers = snap["layers"]
    assert layers["1"]["examined"] >= layers["2"]["examined"]
    assert layers["2"]["examined"] >= layers["3"]["examined"] + layers["4"]["examined"]


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
