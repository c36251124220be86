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
    Analyzer,
    AnalyzerConfig,
    check_syn_cookie,
    make_syn_cookie,
    parse_signatures,
)
from ddosgate.events import (
    FlowKey,
    TcpInfo,
    TraceEvent,
    UdpInfo,
    compute_udp_checksum,
    flags_from_str,
)

SRV = "10.0.0.1"


def _tcp(src, sport, flags, ts, seq=1, ack=0, urg=0, payload=b"", eid=1):
    return TraceEvent(eid, ts, "tcp", src, SRV, sport, 80,
                      TcpInfo(flags_from_str(flags), seq, ack, urg, payload))


def _udp(src, sport, dport, length, checksum, payload, ts=0.0):
    return TraceEvent(1, ts, "udp", src, SRV, sport, dport,
                      UdpInfo(length, checksum, payload))


def test_completed_handshake_leaves_nothing_pending():
    a = Analyzer()
    assert a.observe_tcp(_tcp("10.9.0.1", 1000, "S", 0.0), 0.0) is None
    assert a.half_open_count() == 1
    assert a.observe_tcp(_tcp("10.9.0.1", 1000, "A", 0.05), 0.05) is None
    assert a.half_open_count() == 0
    assert a.half_open_count("10.9.0.1") == 0


def test_half_open_threshold_counts_pending_entries():
    """The 50th simultaneous half-open SYN trips the per-source check even
    though none has been open long enough to expire into the window."""
    a = Analyzer()
    findings = []
    for i in range(60):
        f = a.observe_tcp(_tcp("10.9.0.2", 1000 + i, "S", 0.0), 0.0)
        findings.append(f)
    assert all(f is None for f in findings[:49])
    assert findings[49] is not None and findings[49].code == SYN_HALF_OPEN
    # once over, every further SYN keeps tripping
    assert all(f is not None for f in findings[49:])


def test_expired_syns_fold_into_window():
    a = Analyzer(AnalyzerConfig(syn_half_open_per_source=10))
    for i in range(9):
        assert a.observe_tcp(_tcp("10.9.0.3", 1000 + i, "S", 0.0), 0.0) is None
    # all nine expire at t=5; pending drains into the window instead
    assert a.observe_tcp(_tcp("10.9.0.3", 2000, "A", 6.0, payload=b"x"), 6.0) is None
    assert a.half_open_count("10.9.0.3") == 0
    assert a.incomplete_count("10.9.0.3", 6.0) == 9
    # the tenth incomplete handshake crosses the threshold
    f = a.observe_tcp(_tcp("10.9.0.3", 3000, "S", 6.1), 6.1)
    assert f is not None and f.code == SYN_HALF_OPEN


def test_window_forgets_old_incompletes():
    a = Analyzer(AnalyzerConfig(syn_half_open_per_source=10, window_secs=10.0, bucket_count=10))
    for i in range(9):
        a.observe_tcp(_tcp("10.9.0.4", 1000 + i, "S", 0.0), 0.0)
    # folds land at t=5; by t=16 they have rotated out of the 10 s window
    assert a.observe_tcp(_tcp("10.9.0.4", 5000, "S", 16.0), 16.0) is None
    assert a.incomplete_count("10.9.0.4", 16.0) == 1  # just the fresh pending SYN


def test_retransmitted_syn_charges_the_superseded_attempt():
    a = Analyzer()
    a.observe_tcp(_tcp("10.9.0.5", 1000, "S", 0.0), 0.0)
    a.observe_tcp(_tcp("10.9.0.5", 1000, "S", 1.0), 1.0)  # same flow again
    assert a.half_open_count("10.9.0.5") == 1  # still one pending entry
    assert a.incomplete_count("10.9.0.5", 1.0) == 2  # old attempt charged


def test_completion_ack_must_match_flow():
    a = Analyzer()
    a.observe_tcp(_tcp("10.9.0.6", 1000, "S", 0.0), 0.0)
    # ACK from a different port is not a completion
    a.observe_tcp(_tcp("10.9.0.6", 1001, "A", 0.1), 0.1)
    assert a.half_open_count("10.9.0.6") == 1


def test_bare_ack_flood_threshold():
    a = Analyzer()
    f = None
    for i in range(100):
        f = a.observe_tcp(_tcp("10.9.0.7", 2000 + i, "A", i * 0.01), i * 0.01)
        if i < 99:
            assert f is None
    assert f is not None and f.code == ACK_FLOOD


def test_ack_with_payload_is_not_a_bare_ack():
    a = Analyzer()
    for i in range(300):
        f = a.observe_tcp(_tcp("10.9.0.8", 2000, "A", i * 0.01, payload=b"data"), i * 0.01)
        assert f is None


def test_rst_flood_threshold():
    a = Analyzer()
    f = None
    for i in range(100):
        f = a.observe_tcp(_tcp("10.9.0.9", 3000, "R", i * 0.01), i * 0.01)
    assert f is not None and f.code == RST_FLOOD


def test_empty_psh_threshold():
    a = Analyzer()
    f = None
    for i in range(50):
        f = a.observe_tcp(_tcp("10.9.0.10", 3000, "P", i * 0.01), i * 0.01)
    assert f is not None and f.code == PSH_ANOMALY


def test_urg_misuse_threshold():
    a = Analyzer()
    f = None
    for i in range(20):
        # URG without ACK is the anomaly
        f = a.observe_tcp(_tcp("10.9.0.11", 3000, "U", i * 0.01, urg=5), i * 0.01)
    assert f is not None and f.code == URG_ANOMALY


def test_urg_with_ack_and_pointer_is_tolerated():
    a = Analyzer()
    for i in range(100):
        f = a.observe_tcp(_tcp("10.9.0.12", 3000, "AU", i * 0.01, urg=7, payload=b"z"), i * 0.01)
        assert f is None


def test_payload_signature_beats_rate_checks():
    a = Analyzer()
    f = a.observe_tcp(_tcp("10.9.0.13", 3000, "AP", 0.0, payload=b'x() { :; }; /bin/id'), 0.0)
    assert f is not None and f.code == PAYLOAD_SIGNATURE
    assert f.detail == 1  # first shipped signature


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
        a.observe_tcp(_tcp("10.9.0.15", 1000 + i, "S", i * 0.1), i * 0.1)
    assert a.half_open_count() == 5
    # table is full; the next SYN evicts the oldest pending entry
    a.observe_tcp(_tcp("10.9.0.15", 2000, "S", 1.0), 1.0)
    assert a.half_open_count() == 5
    # the evicted flow's completion no longer matches anything
    a.observe_tcp(_tcp("10.9.0.15", 1000, "A", 1.1, payload=b"x"), 1.1)
    assert a.half_open_count() == 5
    # eviction charged the source an incomplete handshake
    assert a.incomplete_count("10.9.0.15", 1.1) == 5 + 1


_A, _B, _C = "10.9.1.1", "10.9.1.2", "10.9.1.3"


def _counts(a, now):
    return ([a.half_open_count(s) for s in (_A, _B, _C)],
            [a.incomplete_count(s, now) for s in (_A, _B, _C)])


def test_half_open_flows_expire_just_after_the_timeout():
    a = Analyzer()  # handshake_timeout_secs=5.0
    a.observe_tcp(_tcp(_A, 1000, "S", 1.0), 1.0)
    a.observe_tcp(_tcp(_B, 1000, "S", 2.0), 2.0)
    for now, pending in ((6.0, 2), (6.5, 1), (7.0, 1), (7.5, 0)):
        a.observe_tcp(_tcp(_C, 2000, "A", now, payload=b"x"), now)
        assert a.half_open_count() == pending


def test_conn_table_same_ts_retransmit_keeps_its_place():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2))
    for src, ts in ((_A, 1.0), (_B, 1.0), (_A, 1.0), (_C, 1.5)):
        a.observe_tcp(_tcp(src, 1000, "S", ts), ts)
    # A's SYN is still the oldest, so A is the flow evicted
    assert _counts(a, 1.5) == ([0, 1, 1], [2, 1, 1])


def test_conn_table_later_retransmit_moves_flow_to_the_back():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2))
    for src, ts in ((_A, 1.0), (_B, 1.2), (_A, 1.5), (_C, 1.6)):
        a.observe_tcp(_tcp(src, 1000, "S", ts), ts)
    assert _counts(a, 1.6) == ([1, 0, 1], [2, 1, 1])


def test_conn_table_reopened_flow_goes_to_the_back():
    """A flow dropped and opened again at the same ts is the newest flow,
    even after a same-ts retransmit of its earlier attempt."""
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2))
    for src in (_A, _B, _A, _C, _A):  # C evicts A, then A evicts B
        a.observe_tcp(_tcp(src, 1000, "S", 1.0), 1.0)
    a.observe_tcp(_tcp("10.9.1.4", 1000, "S", 1.0), 1.0)  # evicts C, opened before A
    assert _counts(a, 1.0)[0] == [1, 0, 0]


def test_conn_table_without_half_open_drops_oldest_established():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=2, ack_flood_per_source=1))
    for src, ts in ((_A, 1.0), (_B, 1.2)):
        a.observe_tcp(_tcp(src, 1000, "S", ts), ts)
        a.observe_tcp(_tcp(src, 1000, "A", ts + 0.1), ts + 0.1)
    a.observe_tcp(_tcp(_C, 1000, "S", 1.4), 1.4)
    assert len(a.entries) == 2
    # A's flow is gone, so its next empty ACK is a bare ACK; B's still has a flow
    f = a.observe_tcp(_tcp(_A, 1000, "A", 1.5), 1.5)
    assert f is not None and f.code == ACK_FLOOD
    assert a.observe_tcp(_tcp(_B, 1000, "A", 1.5), 1.5) is None


def test_syn_on_established_flow_stores_nothing():
    a = Analyzer(AnalyzerConfig(conn_table_max_entries=1, ack_flood_per_source=1))
    a.observe_tcp(_tcp(_A, 1000, "S", 1.0), 1.0)
    a.observe_tcp(_tcp(_A, 1000, "A", 1.1), 1.1)
    assert a.observe_tcp(_tcp(_A, 1000, "S", 1.2), 1.2) is None
    assert (a.half_open_count(), len(a.entries)) == (0, 1)
    assert _counts(a, 1.2) == ([0, 0, 0], [0, 0, 0])
    # the flow is still established: its empty ACK is no bare ACK
    assert a.observe_tcp(_tcp(_A, 1000, "A", 1.3), 1.3) is None


# -- SYN cookies ----------------------------------------------------------

_FLOW = FlowKey("172.16.3.4", 51515, SRV, 80, "tcp")


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
    other_flow = FlowKey("172.16.3.5", 51515, SRV, 80, "tcp")
    assert check_syn_cookie(secret, other_flow, 100, value) is None
    assert check_syn_cookie(secret ^ 1, _FLOW, 100, value) is None


def test_cookie_forgeries_rejected():
    rng = random.Random(99)
    secret = 0x0F0F_0F0F_0F0F_0F0F
    accepted = sum(1 for _ in range(20_000)
                   if check_syn_cookie(secret, _FLOW, 500, rng.getrandbits(32)) is not None)
    assert accepted == 0


def test_cookie_mss_idx_range_enforced():
    with pytest.raises(ValueError):
        make_syn_cookie(1, _FLOW, 0, 8)


def test_cookie_mode_hysteresis_and_stateless_completion():
    cfg = AnalyzerConfig(syn_half_open_global=10, syn_half_open_per_source=1000)
    a = Analyzer(cfg)
    # ten distinct sources each park one half-open connection
    for i in range(10):
        a.observe_tcp(_tcp(f"10.20.0.{i + 1}", 1000, "S", 0.0), 0.0)
    assert not a.cookie_mode
    # threshold is evaluated before the next packet is dispatched
    a.observe_tcp(_tcp("10.21.0.1", 1000, "S", 0.1), 0.1)
    assert a.cookie_mode
    # in cookie mode SYNs are answered statelessly: nothing stored
    assert a.half_open_count() == 10

    # a completion ACK must present ack = cookie + 1 for its own flow
    flow = FlowKey("10.22.0.1", 7777, SRV, 80, "tcp")
    cookie = make_syn_cookie(cfg.syncookie_secret, flow, int(0.2 // 64), 2)
    ok = a.observe_tcp(_tcp("10.22.0.1", 7777, "A", 0.2, ack=(cookie + 1) & 0xFFFFFFFF), 0.2)
    assert ok is None

    bad = a.observe_tcp(_tcp("10.23.0.1", 7777, "A", 0.3, ack=12345), 0.3)
    assert bad is not None and bad.code == COOKIE_INVALID

    # pending entries expire at t=5; below half the threshold the mode drops
    a.observe_tcp(_tcp("10.24.0.1", 1000, "A", 9.0, payload=b"x"), 9.0)
    assert not a.cookie_mode


def test_established_via_cookie_counts_as_connection():
    cfg = AnalyzerConfig(syn_half_open_global=2, syn_half_open_per_source=1000)
    a = Analyzer(cfg)
    a.observe_tcp(_tcp("10.30.0.1", 1000, "S", 0.0), 0.0)
    a.observe_tcp(_tcp("10.30.0.2", 1000, "S", 0.0), 0.0)
    a.observe_tcp(_tcp("10.30.0.3", 1000, "S", 0.1), 0.1)  # flips to cookie mode
    assert a.cookie_mode
    flow = FlowKey("10.30.0.9", 4242, SRV, 80, "tcp")
    cookie = make_syn_cookie(cfg.syncookie_secret, flow, 0, 1)
    assert a.observe_tcp(_tcp("10.30.0.9", 4242, "A", 0.2, ack=(cookie + 1) & 0xFFFFFFFF), 0.2) is None
    # established entry now exists: follow-up data is not a bare ACK
    for i in range(300):
        f = a.observe_tcp(_tcp("10.30.0.9", 4242, "A", 0.3 + i * 0.01), 0.3 + i * 0.01)
        assert f is None


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
    assert f is not None and f.code == UDP_BLOCKED_PORT


def test_udp_size_violations():
    a = Analyzer()
    assert a.observe_udp(_udp("10.40.0.3", 1, 53, 2000, 0, b"x" * 64)).code == UDP_SIZE_VIOLATION
    assert a.observe_udp(_udp("10.40.0.3", 1, 53, 7, 0, b"")).code == UDP_SIZE_VIOLATION
    # length field that disagrees with the carried payload
    assert a.observe_udp(_udp("10.40.0.3", 1, 53, 24, 0, b"y" * 24)).code == UDP_SIZE_VIOLATION


def test_udp_bad_checksum_detected():
    pkt = _valid_udp()
    bad = _udp(pkt.src_ip, pkt.src_port, pkt.dst_port, pkt.body.length,
               pkt.body.checksum ^ 0x0101, pkt.body.payload)
    f = Analyzer().observe_udp(bad)
    assert f is not None and f.code == UDP_BAD_CHECKSUM


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

def test_window_rings_are_made_only_when_written():
    a = Analyzer()
    assert a.incomplete_count("10.50.0.1", 0.0) == 0
    assert a.observe_tcp(_tcp("10.50.0.1", 1000, "S", 0.0), 0.0) is None
    assert a._windows == {}  # reading the incomplete count made nothing
    a.observe_tcp(_tcp("10.50.0.2", 1000, "A", 0.1), 0.1)
    assert [ring is not None for ring in a._windows["10.50.0.2"]] == [False, True, False, False, False]


def test_window_state_dropped_once_it_leaves_the_window():
    """Width-1 s buckets over 10 s: a source whose last ring write was in
    epoch 1 still counts at epoch 10 and must survive the sweep there;
    one last written in epoch 0 is gone."""
    a = Analyzer(AnalyzerConfig(ack_flood_per_source=3, window_secs=10.0, bucket_count=10))
    a.observe_tcp(_tcp("10.51.0.1", 1000, "A", 0.0), 0.0)  # sweeps; the next is due at 10.0
    for _ in range(2):
        assert a.observe_tcp(_tcp("10.51.0.2", 1000, "A", 1.5), 1.5) is None
    a.observe_tcp(_tcp("10.51.0.3", 1000, "A", 10.0), 10.0)
    assert set(a._windows) == {"10.51.0.2", "10.51.0.3"}
    f = a.observe_tcp(_tcp("10.51.0.2", 1000, "A", 10.0), 10.0)
    assert f is not None and f.code == ACK_FLOOD
    # the epoch-1 writes leave at epoch 11; the next sweep is due at 20.0
    a.observe_tcp(_tcp("10.51.0.3", 1000, "A", 20.0), 20.0)
    assert set(a._windows) == {"10.51.0.3"}


def test_epoch_saturates_instead_of_raising():
    """ts / bucket width overflows to inf for ts near the float maximum;
    the epoch saturates, so the window keeps counting."""
    a = Analyzer(AnalyzerConfig(bucket_count=100, ack_flood_per_source=2))
    assert a.observe_tcp(_tcp("10.52.0.1", 1000, "A", 1e308), 1e308) is None
    f = a.observe_tcp(_tcp("10.52.0.1", 1000, "A", sys.float_info.max), sys.float_info.max)
    assert f is not None and f.code == ACK_FLOOD
