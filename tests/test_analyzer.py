"""Header analysis: handshake tracking, sliding windows, SYN cookies."""

import random
import sys

import pytest

from ddosgate.analyzer import (
    ACK_FLOOD,
    COOKIE_INVALID,
    MAX_BUCKET_COUNT,
    PAYLOAD_SIGNATURE,
    PSH_ANOMALY,
    RST_FLOOD,
    SYN_HALF_OPEN,
    UDP_BAD_CHECKSUM,
    UDP_BLOCKED_PORT,
    UDP_SIZE_VIOLATION,
    URG_ANOMALY,
    _VERDICTS,
    Analyzer,
    AnalyzerConfig,
    check_syn_cookie,
    make_syn_cookie,
    parse_signatures,
)
from ddosgate.events import (
    SANDBOX,
    FlowKey,
    TcpInfo,
    TraceEvent,
    UdpInfo,
    Verdict,
    compute_udp_checksum,
    flags_from_str,
)
from test_state_bounded import CHURN_CONFIG, _churn_lines, _run

SRV = "10.0.0.1"


def _tcp(src, sport, flags, ts, seq=1, ack=0, urg=0, payload=b"", eid=1):
    return TraceEvent(eid, ts, "tcp", src, SRV, sport, 80,
                      TcpInfo(flags_from_str(flags), seq, ack, urg, payload))


def _udp(src, sport, dport, length, checksum, payload, ts=0.0):
    return TraceEvent(1, ts, "udp", src, SRV, sport, dport,
                      UdpInfo(length, checksum, payload))


@pytest.mark.parametrize("observe, body, record", [
    ("observe_tcp", UdpInfo(8, 0, b""), "TcpInfo"),
    ("observe_udp", TcpInfo(0, 1, 0, 0, b""), "UdpInfo"),
])
def test_a_body_that_is_not_the_record_read_is_a_type_error_before_the_clock_moves(observe, body, record):
    a = Analyzer()
    pkt = TraceEvent(3, 5.0, "tcp", "10.9.0.1", SRV, 1000, 80, body)
    with pytest.raises(TypeError) as exc:
        getattr(a, observe)(pkt)
    assert str(exc.value) == f"event 3, kind tcp: body is {type(body).__name__}, not {record}"
    assert a._next_sweep == 0.0  # no window sweep ran


def test_completed_handshake_leaves_nothing_pending():
    a = Analyzer()
    assert a.observe_tcp(_tcp("10.9.0.1", 1000, "S", 0.0)) is None
    assert a.half_open_count() == 1
    assert a.observe_tcp(_tcp("10.9.0.1", 1000, "A", 0.05)) is None
    assert a.half_open_count() == 0
    assert a.half_open_count("10.9.0.1") == 0


def test_half_open_threshold_counts_pending_entries():
    """The 50th simultaneous half-open SYN trips the per-source check even
    though none has been open long enough to expire into the window."""
    a = Analyzer()
    findings = []
    for i in range(60):
        f = a.observe_tcp(_tcp("10.9.0.2", 1000 + i, "S", 0.0))
        findings.append(f)
    assert all(f is None for f in findings[:49])
    assert findings[49] is not None and findings[49].reason == SYN_HALF_OPEN
    # once over, every further SYN keeps tripping
    assert all(f is not None for f in findings[49:])


def test_expired_syns_fold_into_window():
    a = Analyzer(AnalyzerConfig(syn_half_open_per_source=10))
    for i in range(9):
        assert a.observe_tcp(_tcp("10.9.0.3", 1000 + i, "S", 0.0)) is None
    # all nine expire at t=5; pending drains into the window instead
    assert a.observe_tcp(_tcp("10.9.0.3", 2000, "A", 6.0, payload=b"x")) is None
    assert a.half_open_count("10.9.0.3") == 0
    assert a.incomplete_count("10.9.0.3", 6.0) == 9
    # the tenth incomplete handshake crosses the threshold
    f = a.observe_tcp(_tcp("10.9.0.3", 3000, "S", 6.1))
    assert f is not None and f.reason == SYN_HALF_OPEN


def test_window_forgets_old_incompletes():
    a = Analyzer(AnalyzerConfig(syn_half_open_per_source=10, window_secs=10.0, bucket_count=10))
    for i in range(9):
        a.observe_tcp(_tcp("10.9.0.4", 1000 + i, "S", 0.0))
    # folds land at t=5; by t=16 they have rotated out of the 10 s window
    assert a.observe_tcp(_tcp("10.9.0.4", 5000, "S", 16.0)) is None
    assert a.incomplete_count("10.9.0.4", 16.0) == 1  # just the fresh pending SYN


def test_retransmitted_syn_charges_the_superseded_attempt():
    a = Analyzer()
    a.observe_tcp(_tcp("10.9.0.5", 1000, "S", 0.0))
    a.observe_tcp(_tcp("10.9.0.5", 1000, "S", 1.0))  # same flow again
    assert a.half_open_count("10.9.0.5") == 1  # still one pending entry
    assert a.incomplete_count("10.9.0.5", 1.0) == 2  # old attempt charged


def test_completion_ack_must_match_flow():
    a = Analyzer()
    a.observe_tcp(_tcp("10.9.0.6", 1000, "S", 0.0))
    # ACK from a different port is not a completion
    a.observe_tcp(_tcp("10.9.0.6", 1001, "A", 0.1))
    assert a.half_open_count("10.9.0.6") == 1


def test_bare_ack_flood_threshold():
    a = Analyzer()
    f = None
    for i in range(100):
        f = a.observe_tcp(_tcp("10.9.0.7", 2000 + i, "A", i * 0.01))
        if i < 99:
            assert f is None
    assert f is not None and f.reason == ACK_FLOOD


def test_ack_with_payload_is_not_a_bare_ack():
    a = Analyzer()
    for i in range(300):
        f = a.observe_tcp(_tcp("10.9.0.8", 2000, "A", i * 0.01, payload=b"data"))
        assert f is None


def test_rst_flood_threshold():
    a = Analyzer()
    f = None
    for i in range(100):
        f = a.observe_tcp(_tcp("10.9.0.9", 3000, "R", i * 0.01))
    assert f is not None and f.reason == RST_FLOOD


def test_empty_psh_threshold():
    a = Analyzer()
    f = None
    for i in range(50):
        f = a.observe_tcp(_tcp("10.9.0.10", 3000, "P", i * 0.01))
    assert f is not None and f.reason == PSH_ANOMALY


def test_urg_misuse_threshold():
    a = Analyzer()
    f = None
    for i in range(20):
        # URG without ACK is the anomaly
        f = a.observe_tcp(_tcp("10.9.0.11", 3000, "U", i * 0.01, urg=5))
    assert f is not None and f.reason == URG_ANOMALY


def test_urg_with_ack_and_pointer_is_tolerated():
    a = Analyzer()
    for i in range(100):
        f = a.observe_tcp(_tcp("10.9.0.12", 3000, "AU", i * 0.01, urg=7, payload=b"z"))
        assert f is None


def test_payload_signature_beats_rate_checks():
    a = Analyzer()
    f = a.observe_tcp(_tcp("10.9.0.13", 3000, "AP", 0.0, payload=b'x() { :; }; /bin/id'))
    assert f is not None and f.reason == PAYLOAD_SIGNATURE
    assert f.rule_id == 1  # first shipped signature


def test_custom_signature_rule_id_is_its_index():
    sigs = parse_signatures("# custom\nalpha\n\\xde\\xad\ngamma\n")
    a = Analyzer(AnalyzerConfig(payload_signatures=sigs))
    for rule_id, payload in enumerate((b"..alpha..", b"\x00\xde\xad", b"gamma"), start=1):
        f = a.observe_tcp(_tcp("10.9.0.14", 3000, "AP", 0.0, payload=payload))
        assert f == Verdict(SANDBOX, 3, PAYLOAD_SIGNATURE, rule_id)
    # a payload with no signature in it raises no finding
    assert a.observe_tcp(_tcp("10.9.0.14", 3000, "AP", 0.0, payload=b"/bin/sh")) is None


def test_parse_signatures_escapes():
    sigs = parse_signatures('# comment\n/bin/sh\n\\x90\\x90\n')
    assert sigs == (b"/bin/sh", b"\x90\x90")


@pytest.mark.parametrize("line", ["\\xZZ", "\\u0100", "ends in \\"])
def test_parse_signatures_refuses_bad_escapes(line):
    with pytest.raises(ValueError, match="line 2: bad signature"):
        parse_signatures("ok\n" + line + "\n")


def test_bucket_count_is_capped():
    assert AnalyzerConfig(bucket_count=MAX_BUCKET_COUNT).bucket_count == 1000
    # refused when the config is built, before any ring exists
    for count in (MAX_BUCKET_COUNT + 1, 100_000_000):
        with pytest.raises(ValueError, match="bucket_count must be from 1 to 1000"):
            AnalyzerConfig(bucket_count=count)


def test_conn_table_evicts_oldest_half_open_first():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=5))
    for i in range(5):
        a.observe_tcp(_tcp("10.9.0.15", 1000 + i, "S", i * 0.1))
    assert a.half_open_count() == 5
    # table is full; the next SYN evicts the oldest pending entry
    a.observe_tcp(_tcp("10.9.0.15", 2000, "S", 1.0))
    assert a.half_open_count() == 5
    # the evicted flow's completion no longer matches anything
    a.observe_tcp(_tcp("10.9.0.15", 1000, "A", 1.1, payload=b"x"))
    assert a.half_open_count() == 5
    # eviction charged the source an incomplete handshake
    assert a.incomplete_count("10.9.0.15", 1.1) == 5 + 1


_A, _B, _C = "10.9.1.1", "10.9.1.2", "10.9.1.3"


def _counts(a, now):
    return ([a.half_open_count(s) for s in (_A, _B, _C)],
            [a.incomplete_count(s, now) for s in (_A, _B, _C)])


def test_half_open_flows_expire_just_after_the_timeout():
    a = Analyzer()  # handshake_timeout_secs=5.0
    a.observe_tcp(_tcp(_A, 1000, "S", 1.0))
    a.observe_tcp(_tcp(_B, 1000, "S", 2.0))
    for now, pending in ((6.0, 2), (6.5, 1), (7.0, 1), (7.5, 0)):
        a.observe_tcp(_tcp(_C, 2000, "A", now, payload=b"x"))
        assert a.half_open_count() == pending


def test_conn_table_same_ts_retransmit_keeps_its_place():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2))
    for src, ts in ((_A, 1.0), (_B, 1.0), (_A, 1.0), (_C, 1.5)):
        a.observe_tcp(_tcp(src, 1000, "S", ts))
    # A's SYN is still the oldest, so A is the flow evicted
    assert _counts(a, 1.5) == ([0, 1, 1], [2, 1, 1])


def test_conn_table_later_retransmit_moves_flow_to_the_back():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2))
    for src, ts in ((_A, 1.0), (_B, 1.2), (_A, 1.5), (_C, 1.6)):
        a.observe_tcp(_tcp(src, 1000, "S", ts))
    assert _counts(a, 1.6) == ([1, 0, 1], [2, 1, 1])


def test_conn_table_reopened_flow_goes_to_the_back():
    """A flow dropped and opened again at the same ts is the newest flow,
    even after a same-ts retransmit of its earlier attempt."""
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2))
    for src in (_A, _B, _A, _C, _A):  # C evicts A, then A evicts B
        a.observe_tcp(_tcp(src, 1000, "S", 1.0))
    a.observe_tcp(_tcp("10.9.1.4", 1000, "S", 1.0))  # evicts C, opened before A
    assert _counts(a, 1.0)[0] == [1, 0, 0]


def test_conn_table_without_half_open_drops_oldest_established():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2, ack_flood_per_source=1))
    for src, ts in ((_A, 1.0), (_B, 1.2)):
        a.observe_tcp(_tcp(src, 1000, "S", ts))
        a.observe_tcp(_tcp(src, 1000, "A", ts + 0.1))
    a.observe_tcp(_tcp(_C, 1000, "S", 1.4))
    assert len(a.entries) == 2
    # A's flow is gone, so its next empty ACK is a bare ACK; B's still has a flow
    f = a.observe_tcp(_tcp(_A, 1000, "A", 1.5))
    assert f is not None and f.reason == ACK_FLOOD
    assert a.observe_tcp(_tcp(_B, 1000, "A", 1.5)) is None


def test_syn_on_established_flow_stores_nothing():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=1, ack_flood_per_source=1))
    a.observe_tcp(_tcp(_A, 1000, "S", 1.0))
    a.observe_tcp(_tcp(_A, 1000, "A", 1.1))
    assert a.observe_tcp(_tcp(_A, 1000, "S", 1.2)) is None
    assert (a.half_open_count(), len(a.entries)) == (0, 1)
    assert _counts(a, 1.2) == ([0, 0, 0], [0, 0, 0])
    # the flow is still established: its empty ACK is no bare ACK
    assert a.observe_tcp(_tcp(_A, 1000, "A", 1.3)) is None


# -- SYN cookies ----------------------------------------------------------

_FLOW = FlowKey("172.16.3.4", 51515, SRV, 80)


def test_cookie_round_trip_and_skew():
    secret = 0x1234_5678_9ABC_DEF0
    for counter in (0, 1, 7, 8, 1000):
        for mss_idx in range(8):
            value = make_syn_cookie(secret, _FLOW, counter, mss_idx)
            assert check_syn_cookie(secret, _FLOW, counter, value) == mss_idx
            # one counter tick of skew is accepted
            assert check_syn_cookie(secret, _FLOW, counter + 1, value) == mss_idx
            # two ticks is stale
            assert check_syn_cookie(secret, _FLOW, counter + 2, value) is None


def test_cookie_rejects_tampering():
    secret = 0xFEED_FACE_CAFE_BEEF
    value = make_syn_cookie(secret, _FLOW, 100, 3)
    for bit in range(32):
        assert check_syn_cookie(secret, _FLOW, 100, value ^ (1 << bit)) != 3 or bit in (26, 27, 28), \
            "flipping any non-mss bit must not verify"
    other_flow = FlowKey("172.16.3.5", 51515, SRV, 80)
    assert check_syn_cookie(secret, other_flow, 100, value) is None
    assert check_syn_cookie(secret ^ 1, _FLOW, 100, value) is None


def test_cookie_forgeries_rejected():
    rng = random.Random(99)
    secret = 0x0F0F_0F0F_0F0F_0F0F
    accepted = sum(1 for _ in range(20_000)
                   if check_syn_cookie(secret, _FLOW, 500, rng.getrandbits(32)) is not None)
    assert accepted == 0


def test_cookie_values_are_pinned():
    # the round trips above hold under any hash; no trace line yet echoes a
    # valid cookie, so these values are the only check of the hash itself,
    # its keyed round included
    secrets = (AnalyzerConfig().syncookie_secret, 0x1234_5678_9ABC_DEF0, 0)
    flows = (_FLOW, FlowKey("203.0.113.250", 1024, "198.51.100.7", 443))
    values = [[make_syn_cookie(secret, flow, counter, mss_idx)
               for counter in (0, 1000) for mss_idx in (0, 7)]
              for secret in secrets for flow in flows]
    assert values == [
        [0x022372CC, 0x1E2372CC, 0x0263E6FF, 0x1E63E6FF],
        [0x016E5DC6, 0x1D6E5DC6, 0x02616590, 0x1E616590],
        [0x01814C27, 0x1D814C27, 0x030D3693, 0x1F0D3693],
        [0x0326EB88, 0x1F26EB88, 0x02EA74BD, 0x1EEA74BD],
        [0x017D5208, 0x1D7D5208, 0x008BBF2D, 0x1C8BBF2D],
        [0x002CBEC8, 0x1C2CBEC8, 0x001B3C74, 0x1C1B3C74],
    ]
    assert make_syn_cookie(secrets[0], _FLOW, 9, 5) == 0x34AA9447


def test_cookie_mss_idx_range_enforced():
    with pytest.raises(ValueError):
        make_syn_cookie(1, _FLOW, 0, 8)


def test_cookie_mode_hysteresis_and_stateless_completion():
    cfg = AnalyzerConfig(syn_half_open_global=10, syn_half_open_per_source=1000)
    a = Analyzer(cfg)
    # ten distinct sources each park one half-open connection
    for i in range(10):
        a.observe_tcp(_tcp(f"10.20.0.{i + 1}", 1000, "S", 0.0))
    assert not a.cookie_mode
    # threshold is evaluated before the next packet is dispatched
    a.observe_tcp(_tcp("10.21.0.1", 1000, "S", 0.1))
    assert a.cookie_mode
    # in cookie mode SYNs are answered statelessly: nothing stored
    assert a.half_open_count() == 10

    # a completion ACK must present ack = cookie + 1 for its own flow
    flow = FlowKey("10.22.0.1", 7777, SRV, 80)
    cookie = make_syn_cookie(cfg.syncookie_secret, flow, int(0.2 // 64), 2)
    ok = a.observe_tcp(_tcp("10.22.0.1", 7777, "A", 0.2, ack=(cookie + 1) & 0xFFFFFFFF))
    assert ok is None

    bad = a.observe_tcp(_tcp("10.23.0.1", 7777, "A", 0.3, ack=12345))
    assert bad is not None and bad.reason == COOKIE_INVALID

    # pending entries expire at t=5; below half the threshold the mode drops
    a.observe_tcp(_tcp("10.24.0.1", 1000, "A", 9.0, payload=b"x"))
    assert not a.cookie_mode


def test_each_analyzer_checks_cookies_with_its_own_secret():
    secrets = (0x1234_5678_9ABC_DEF0, 0xFEED_FACE_CAFE_BEEF)
    analyzers = [Analyzer(AnalyzerConfig(syn_half_open_global=1, syn_half_open_per_source=1000,
                                         handshake_timeout_secs=1000.0, syncookie_secret=secret))
                 for secret in secrets]
    for a in analyzers:
        a.observe_tcp(_tcp("10.32.0.1", 1000, "S", 0.0))
        a.observe_tcp(_tcp("10.32.0.2", 1000, "S", 0.0))  # arms the mode, stores nothing
        assert a.cookie_mode and a.half_open_count() == 1
    for i in range(40):  # interleaved: each ACK goes to both analyzers
        src, sport, ts = f"10.33.{i}.1", 2000 + i, 0.1 + 2 * i  # two cookie counters
        flow = FlowKey(src, sport, SRV, 80)
        counter = int(ts // 64)
        minted_by = i % 2
        cookie = make_syn_cookie(secrets[minted_by], flow, counter, i % 8)
        for j, a in enumerate(analyzers):
            valid = check_syn_cookie(secrets[j], flow, counter, cookie) is not None
            assert valid == (j == minted_by)
            verdict = a.observe_tcp(_tcp(src, sport, "A", ts, ack=(cookie + 1) & 0xFFFFFFFF))
            assert verdict == (None if valid else _VERDICTS[COOKIE_INVALID])
            assert (flow in a._established) == valid


def _probe(a, ts):
    """A packet no check acts on, so only its clock step changes state:
    the half-open count and cookie mode after it."""
    assert a.observe_tcp(_tcp("10.25.0.1", 1000, "P", ts, payload=b"x")) is None
    return a.half_open_count(), a.cookie_mode


@pytest.mark.parametrize("threshold, lowest_in", [(10, 5), (5, 3)])
def test_cookie_mode_enters_at_the_threshold_and_leaves_below_half(threshold, lowest_in):
    timeout = 100.0
    a = Analyzer(AnalyzerConfig(syn_half_open_global=threshold, syn_half_open_per_source=1000,
                                handshake_timeout_secs=timeout))
    rising = []
    for i in range(threshold):
        a.observe_tcp(_tcp(f"10.26.0.{i + 1}", 1000, "S", float(i)))
        rising.append(_probe(a, float(i)))
    assert rising == [(n, n == threshold) for n in range(1, threshold + 1)]
    # flow i, parked at ts i, expires just after i + timeout: each probe
    # expires exactly one more
    falling = [_probe(a, i + timeout + 0.5) for i in range(threshold)]
    assert falling == [(n, n >= lowest_in) for n in range(threshold - 1, -1, -1)]


def test_established_via_cookie_counts_as_connection():
    cfg = AnalyzerConfig(syn_half_open_global=2, syn_half_open_per_source=1000)
    a = Analyzer(cfg)
    a.observe_tcp(_tcp("10.30.0.1", 1000, "S", 0.0))
    a.observe_tcp(_tcp("10.30.0.2", 1000, "S", 0.0))
    a.observe_tcp(_tcp("10.30.0.3", 1000, "S", 0.1))  # flips to cookie mode
    assert a.cookie_mode
    flow = FlowKey("10.30.0.9", 4242, SRV, 80)
    cookie = make_syn_cookie(cfg.syncookie_secret, flow, 0, 1)
    assert a.observe_tcp(_tcp("10.30.0.9", 4242, "A", 0.2, ack=(cookie + 1) & 0xFFFFFFFF)) is None
    # established entry now exists: follow-up data is not a bare ACK
    for i in range(300):
        f = a.observe_tcp(_tcp("10.30.0.9", 4242, "A", 0.3 + i * 0.01))
        assert f is None


def test_flow_stored_before_cookie_mode_completes_from_the_table():
    """No cookie was sent for a flow stored half-open before the mode was
    armed, so its ACK completes it from the table; an ACK for a flow the
    table does not hold still needs a valid cookie."""
    a = Analyzer(AnalyzerConfig(syn_half_open_global=2))
    a.observe_tcp(_tcp("10.31.0.1", 1001, "S", 0.0))
    a.observe_tcp(_tcp("10.31.0.1", 1002, "S", 0.0))
    a.observe_tcp(_tcp("10.31.0.1", 1003, "S", 0.1))  # arms the mode, stores nothing
    assert a.cookie_mode
    assert a.observe_tcp(_tcp("10.31.0.1", 1001, "A", 0.2, ack=777)) is None
    assert a.half_open_count() == 1
    assert FlowKey("10.31.0.1", 1001, SRV, 80) in a._established
    assert a.cookie_mode
    assert a.observe_tcp(_tcp("10.31.0.1", 1003, "A", 0.3, ack=777)) == _VERDICTS[COOKIE_INVALID]
    assert FlowKey("10.31.0.1", 1003, SRV, 80) not in a.entries


# -- UDP ------------------------------------------------------------------


def _valid_udp(src="10.40.0.1", sport=5000, dport=53, payload=b"hello world!"):
    length = 8 + len(payload)
    csum = compute_udp_checksum(src, SRV, sport, dport, length, payload)
    return _udp(src, sport, dport, length, csum, payload)


def test_udp_valid_packet_passes():
    assert Analyzer().observe_udp(_valid_udp()) is None


def test_udp_blocked_port_checked_first():
    a = Analyzer(AnalyzerConfig(udp_blocked_ports=frozenset({19})))
    pkt = _udp("10.40.0.2", 5000, 19, 2000, 0, b"x")  # also oversized
    f = a.observe_udp(pkt)
    assert f is not None and f.reason == UDP_BLOCKED_PORT


def test_udp_size_violations():
    a = Analyzer()
    assert a.observe_udp(_udp("10.40.0.3", 1, 53, 2000, 0, b"x" * 64)).reason == UDP_SIZE_VIOLATION
    assert a.observe_udp(_udp("10.40.0.3", 1, 53, 7, 0, b"")).reason == UDP_SIZE_VIOLATION
    # length field that disagrees with the carried payload
    assert a.observe_udp(_udp("10.40.0.3", 1, 53, 24, 0, b"y" * 24)).reason == UDP_SIZE_VIOLATION


def test_udp_bad_checksum_detected():
    pkt = _valid_udp()
    bad = _udp(pkt.src_ip, pkt.src_port, pkt.dst_port, pkt.body.length,
               pkt.body.checksum ^ 0x0101, pkt.body.payload)
    f = Analyzer().observe_udp(bad)
    assert f is not None and f.reason == UDP_BAD_CHECKSUM


def test_udp_zero_checksum_means_not_computed():
    pkt = _udp("10.40.0.4", 5000, 53, 19, 0, b"no checksum")
    assert Analyzer().observe_udp(pkt) is None


def test_udp_checksum_validation_can_be_disabled():
    a = Analyzer(AnalyzerConfig(udp_validate_checksum=False))
    pkt = _udp("10.40.0.5", 5000, 53, 9, 0xBEEF, b"x")
    assert a.observe_udp(pkt) is None


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        AnalyzerConfig(bucket_count=0)
    with pytest.raises(ValueError):
        AnalyzerConfig(udp_min_len=4)
    with pytest.raises(ValueError):
        AnalyzerConfig(syn_half_open_per_source=0)


# -- window state ---------------------------------------------------------

def _ring_keys(a):
    """Every (source, finding) that holds a ring, each table in its order."""
    return [(src, code) for code, table in a._rings.items() for src in table]


def test_window_rings_are_made_only_when_written():
    a = Analyzer()
    assert a.incomplete_count("10.50.0.1", 0.0) == 0
    assert a.observe_tcp(_tcp("10.50.0.1", 1000, "S", 0.0)) is None
    assert _ring_keys(a) == []  # reading the incomplete count made nothing
    a.observe_tcp(_tcp("10.50.0.2", 1000, "A", 0.1))
    assert _ring_keys(a) == [("10.50.0.2", ACK_FLOOD)]


def test_window_state_dropped_once_it_leaves_the_window():
    """Width-1 s buckets over 10 s: a source whose last ring write was in
    epoch 1 still counts at epoch 10 and must survive the sweep there;
    one last written in epoch 0 is gone."""
    a = Analyzer(AnalyzerConfig(ack_flood_per_source=3, window_secs=10.0, bucket_count=10))
    a.observe_tcp(_tcp("10.51.0.1", 1000, "A", 0.0))  # sweeps; the next is due at 1.0
    for _ in range(2):
        assert a.observe_tcp(_tcp("10.51.0.2", 1000, "A", 1.5)) is None
    a.observe_tcp(_tcp("10.51.0.3", 1000, "A", 10.0))  # sweeps: epoch 0 <= 10 - 10
    assert set(_ring_keys(a)) == {("10.51.0.2", ACK_FLOOD), ("10.51.0.3", ACK_FLOOD)}
    f = a.observe_tcp(_tcp("10.51.0.2", 1000, "A", 10.0))
    assert f is not None and f.reason == ACK_FLOOD
    # both rings moved to epoch 10, which leaves at epoch 20
    a.observe_tcp(_tcp("10.51.0.3", 1000, "A", 20.0))
    assert set(_ring_keys(a)) == {("10.51.0.3", ACK_FLOOD)}


def test_stale_ring_gone_within_a_bucket_of_leaving_the_window():
    """Width-1 s buckets over 10 s and a packet each second: a ring last
    moved at ts 1.5 (epoch 1) counts through epoch 10, leaves the window
    at epoch 11 and is gone by ts 12.0, one bucket later. A sweep once per
    window, at 0.0, 10.0 and 20.0, would hold it until 20.0."""
    a = Analyzer(AnalyzerConfig(window_secs=10.0, bucket_count=10))
    a.observe_tcp(_tcp("10.51.2.1", 1000, "A", 0.0))
    for t in range(1, 13):
        a.observe_tcp(_tcp("10.51.2.2", 1000, "A", float(t)))
        if t == 1:
            a.observe_tcp(_tcp("10.51.2.3", 1000, "A", 1.5))
        if t <= 10:
            assert a._rings[ACK_FLOOD]["10.51.2.3"][0] == 1, t
    assert "10.51.2.3" not in a._rings[ACK_FLOOD]
    assert list(a._rings[ACK_FLOOD]) == ["10.51.2.2"]


def test_each_ring_of_a_source_is_dropped_on_its_own():
    """A source's stale RST ring goes in a sweep while its live bare-ACK
    ring stays, and the ACK count carries on across the sweep."""
    a = Analyzer(AnalyzerConfig(ack_flood_per_source=3, window_secs=10.0, bucket_count=10))
    src = "10.51.1.1"
    a.observe_tcp(_tcp(src, 1000, "R", 0.0))  # sweeps; the next is due at 1.0
    assert a.observe_tcp(_tcp(src, 1000, "A", 5.0)) is None
    assert set(_ring_keys(a)) == {(src, RST_FLOOD), (src, ACK_FLOOD)}
    assert a.observe_tcp(_tcp(src, 1000, "A", 10.0)) is None  # sweeps: epoch 0 <= 10 - 10
    assert set(_ring_keys(a)) == {(src, ACK_FLOOD)}
    assert a.observe_tcp(_tcp(src, 1000, "A", 10.5)) is _VERDICTS[ACK_FLOOD]


def test_epoch_saturates_instead_of_raising():
    """ts / bucket width overflows to inf for ts near the float maximum;
    the epoch saturates, so the window keeps counting."""
    a = Analyzer(AnalyzerConfig(bucket_count=100, ack_flood_per_source=2))
    assert a.observe_tcp(_tcp("10.52.0.1", 1000, "A", 1e308)) is None
    f = a.observe_tcp(_tcp("10.52.0.1", 1000, "A", sys.float_info.max))
    assert f is not None and f.reason == ACK_FLOOD


# -- window ring oracle ----------------------------------------------------

_KEYS = [(src, code) for src in ("10.53.0.1", "10.53.0.2") for code in (ACK_FLOOD, SYN_HALF_OPEN)]
_WIDTH = 0.5  # bucket width; ts / width overflows to inf above sys.float_info.max / 2
# ts near the float maximum, ascending: the first two have finite epochs
# far apart, the rest all saturate to one epoch
_HUGE_TS = (4e307, 8e307, 1e308, 1.2e308, 1.7e308, sys.float_info.max)


def _model_epoch(ts):
    q = ts / _WIDTH
    return int(sys.float_info.max) if q == float("inf") else int(q)


@pytest.mark.parametrize("bucket_count", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_window_count_matches_a_plain_model(bucket_count, seed):
    """Each (source, finding) keeps the list of (epoch, n) it was charged;
    its total at epoch E is the sum of n over epochs above E - bucket_count.
    ``_count`` must return that total after every call, with jumps of 0
    to 3 x bucket_count epochs and ts near the float maximum, where the
    epoch saturates. A read at a ts earlier than the ring's epoch returns
    the ring's total and leaves it as it was."""
    rng = random.Random(seed)
    a = Analyzer(AnalyzerConfig(window_secs=bucket_count * _WIDTH, bucket_count=bucket_count))
    charged = {key: [] for key in _KEYS}
    epoch = 0
    times = []
    for _ in range(300):
        epoch += rng.choice((0, 0, 0, rng.randint(0, 3 * bucket_count)))
        times.append((epoch + 0.05 + 0.9 * rng.random()) * _WIDTH)
    times += sorted(rng.choice(_HUGE_TS) for _ in range(30))
    for ts in times:
        key = rng.choice(_KEYS)
        n = rng.randint(0, 1)
        now = _model_epoch(ts)
        if n:
            charged[key].append(now)
        expected = sum(1 for e in charged[key] if e > now - bucket_count)
        assert a._count(*key, ts, n) == expected, (ts, key, n)
        src, code = key
        assert (src in a._rings[code]) == bool(charged[key])  # a read makes no ring
        ring = a._rings[code].get(src)
        if ring is not None and ring[0] > 0 and rng.random() < 0.3:
            before = list(ring)
            earlier = rng.uniform(0.0, ring[0] * _WIDTH * (1 - 1e-9))
            assert a._count(*key, earlier, 0) == before[1]
            if key[1] == SYN_HALF_OPEN:
                assert a.incomplete_count(key[0], earlier) == before[1]
            assert ring == before


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_ring_epochs_never_go_back(seed, monkeypatch):
    """The invariant ``_count`` relies on instead of a below-window case:
    with the handshake timeout longer than the window and a few packets
    per second, so the clock jumps, expired SYNs fold into their rings
    buckets behind the packet clock, yet no count lands before its
    ring's epoch, no ring's epoch goes back, and after every packet each
    finding's table is in epoch order, which the sweep relies on."""
    count = Analyzer._count
    clock = {"now": 0.0}
    lags = []  # buckets between the clock and each count
    rewrites = []  # counts on a ring that already existed

    def forward_only(self, src_ip, code, ts, n=1):
        ring = self._rings[code].get(src_ip)
        before = None if ring is None else ring[0]
        if n:
            assert before is None or self._epoch(ts) >= before, (src_ip, code, ts)
            lags.append(self._epoch(clock["now"]) - self._epoch(ts))
            rewrites.append(before is not None)
        total = count(self, src_ip, code, ts, n)
        ring = self._rings[code].get(src_ip)
        assert before is None or ring[0] >= before
        return total

    observe_tcp = Analyzer.observe_tcp

    def clocked_observe_tcp(self, pkt):
        clock["now"] = pkt.ts
        verdict = observe_tcp(self, pkt)
        for code, table in self._rings.items():
            epochs = [ring[0] for ring in table.values()]
            assert epochs == sorted(epochs), (code, pkt)
        return verdict

    monkeypatch.setattr(Analyzer, "_count", forward_only)
    monkeypatch.setattr(Analyzer, "observe_tcp", clocked_observe_tcp)
    config = CHURN_CONFIG._replace(analyzer=CHURN_CONFIG.analyzer._replace(handshake_timeout_secs=9.0))
    assert config.analyzer.handshake_timeout_secs > config.analyzer.window_secs
    _run(_churn_lines(seed=seed, seconds=200.0, sources=60, rate=3.0), config)
    assert sum(lag > 0 for lag in lags) > 30 and max(lags) >= 3
    assert sum(rewrites) > 30
