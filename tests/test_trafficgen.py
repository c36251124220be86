"""Generator determinism, schedules, labels, and benign well-formedness."""

import hashlib
import json
import math

import pytest

from ddosgate.blacklist import CidrSnapshot, parse_feed
from ddosgate.events import SYN, TcpInfo, compute_udp_checksum, serialize_trace_event, validate_udp_checksum
from ddosgate import trafficgen
from ddosgate.trafficgen import SCENARIO_NAMES, Scenario, generate, resolve_params, summarize


def _trace_bytes(scenario):
    return "\n".join(serialize_trace_event(e) for e in generate(scenario))


def test_unknown_scenario_and_param_rejected():
    with pytest.raises(ValueError):
        resolve_params("teardrop", None)
    with pytest.raises(ValueError):
        resolve_params("syn_flood", {"warp": 9})


@pytest.mark.parametrize("name,key,value", [
    ("low_rate_pulse", "period", 0), ("low_rate_pulse", "period", "-5"),
    ("mixed", "pulse_period", "0"), ("low_rate_pulse", "burst_rate", "inf"),
    ("syn_flood", "rate", float("inf")), ("normal", "sources", "nan"),
    ("mixed", "bl_fraction", "-inf"), ("http_attack", "rate", "1e400"),
    ("low_rate_pulse", "period", "1e308"), ("syn_flood", "rate", "1e308"),
    ("low_rate_pulse", "width", "1e308"), ("normal", "sources", "-1"),
    ("mixed", "syn_rate", math.nextafter(1e9, math.inf)),
    ("syn_flood", "rate", "\u0661\u0660"), ("normal", "sources", "\uff11\uff10"),  # ten, not ASCII
])
def test_resolve_params_refuses_values_it_cannot_honour(name, key, value):
    with pytest.raises(ValueError, match=f"parameter '{key}' must be"):
        resolve_params(name, {key: value})


@pytest.mark.parametrize("duration", [float("inf"), float("-inf"), float("nan")])
def test_generate_refuses_non_finite_duration(duration):
    with pytest.raises(ValueError, match="duration_secs must be finite"):
        generate(Scenario("normal", seed=1, duration_secs=duration))


@pytest.mark.parametrize("duration", [1e308, -1.0])
def test_generate_refuses_duration_out_of_range(duration):
    with pytest.raises(ValueError, match=r"duration_secs must be finite, from 0 to 1e\+09"):
        generate(Scenario("normal", seed=1, duration_secs=duration))


def test_range_ends_are_accepted():
    assert resolve_params("low_rate_pulse", {"period": "1e9", "width": "0"})["period"] == 1e9
    assert generate(Scenario("normal", seed=1, duration_secs=0.0)) == []


# (scenario, parameters with a lane at its source limit, duration): the
# limit is accepted and one source more is refused. The low rates (and,
# for pulses, the zero duration) leave every lane empty.
SOURCE_LIMITS = [
    ("syn_flood", {"sources": 64000, "rate": 0.01, "benign_sources": 0}, 10.0),
    ("normal", {"sources": 64000, "rate": 0.01}, 10.0),
    ("low_rate_pulse", {"sources": 62536, "benign_sources": 0}, 0.0),
    ("blacklist_mix", {"sources": 255, "fraction": 0, "rate": 0.01, "benign_sources": 0}, 10.0),
]


@pytest.mark.parametrize("name,params,duration", SOURCE_LIMITS)
def test_generate_refuses_more_sources_than_a_lane_can_address(name, params, duration, tmp_path):
    if name == "blacklist_mix":
        feed = tmp_path / "feed.txt"
        feed.write_text("203.0.113.0/24\n")
        params = {**params, "feed": str(feed)}
    assert generate(Scenario(name, params=params, duration_secs=duration)) == []
    over = {**params, "sources": params["sources"] + 1}
    with pytest.raises(ValueError, match=f"addresses for at most {params['sources']} sources"):
        generate(Scenario(name, params=over, duration_secs=duration))


def test_blacklist_mix_without_clean_sources_may_exceed_the_clean_range(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    events = generate(Scenario("blacklist_mix", seed=2, duration_secs=2.0, params={
        "feed": str(feed), "sources": 300, "fraction": 1, "benign_sources": 0}))
    assert {e.label for e in events} == {"attack:blacklist_mix"}


def test_generate_refuses_more_rows_than_the_cap(monkeypatch):
    monkeypatch.setattr(trafficgen, "MAX_ROWS", 1000)
    # 2 sources x 100/s x 5 s = 1,000 flood rows, no benign lane
    params = {"sources": 2, "rate": 100, "benign_sources": 0}
    assert len(generate(Scenario("syn_flood", params=params, duration_secs=5.0))) == 1000
    with pytest.raises(ValueError, match="more than 1,000"):
        generate(Scenario("syn_flood", params=params, duration_secs=5.01))
    # pulses count loop iterations: 1 source x (10 s / 0.1 s + 1) bursts x (1 + 0) rows
    pulses = {"sources": 1, "period": 0.1, "width": 0, "benign_sources": 0}
    assert generate(Scenario("low_rate_pulse", params=pulses, duration_secs=10.0)) == []
    with pytest.raises(ValueError, match="more than 1,000"):
        generate(Scenario("low_rate_pulse", params={**pulses, "period": 0.0099},
                          duration_secs=10.0))


def test_blacklist_mix_requires_feed():
    with pytest.raises(ValueError):
        generate(Scenario("blacklist_mix", seed=1))


def test_same_inputs_same_bytes():
    sc = Scenario("mixed", seed=123, duration_secs=3.0)
    assert _trace_bytes(sc) == _trace_bytes(sc)


def test_different_seed_different_bytes():
    a = Scenario("normal", seed=1, duration_secs=5.0)
    b = Scenario("normal", seed=2, duration_secs=5.0)
    assert _trace_bytes(a) != _trace_bytes(b)


def test_ids_increase_and_ts_never_decreases():
    events = generate(Scenario("mixed", seed=5, duration_secs=3.0))
    assert [e.event_id for e in events] == list(range(1, len(events) + 1))
    assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))


def test_syn_flood_count_is_exact():
    events = generate(Scenario("syn_flood", seed=42, duration_secs=10.0,
                               params={"benign_sources": 0}))
    attack = [e for e in events if e.label == "attack:syn_flood"]
    assert len(events) == len(attack) == 1000  # 1 source * 100/s * 10 s
    assert all(isinstance(e.body, TcpInfo) and e.body.flags == SYN for e in attack)
    # zero completions: the flood never ACKs
    srcs = {e.src_ip for e in attack}
    assert len(srcs) == 1


def test_attack_rate_parameter_scales_count():
    events = generate(Scenario("ack_flood", seed=3, duration_secs=4.0,
                               params={"rate": 50, "sources": 2, "benign_sources": 0}))
    assert len(events) == 2 * 50 * 4


def test_normal_sources_stay_under_their_rate_and_complete_handshakes():
    duration = 10.0
    events = generate(Scenario("normal", seed=1, duration_secs=duration,
                               params={"sources": 3, "rate": 2.0}))
    assert events and all(e.label == "benign" for e in events)
    per_source: dict = {}
    for e in events:
        per_source.setdefault(e.src_ip, []).append(e)
    assert len(per_source) == 3
    for src, evs in per_source.items():
        assert len(evs) / duration <= 2.0 + 1e-9
        # every SYN is completed by an ACK on the same flow, afterwards
        syns = {(e.src_port): e.ts for e in evs
                if e.kind == "tcp" and e.body.flags == SYN}
        acks = {(e.src_port): e.ts for e in evs
                if e.kind == "tcp" and e.body.flags == 0x02}
        for port, ts in syns.items():
            assert port in acks and acks[port] > ts, (src, port)


def test_benign_udp_checksums_are_valid():
    events = generate(Scenario("normal", seed=8, duration_secs=20.0,
                               params={"sources": 4, "rate": 3.0}))
    udp = [e for e in events if e.kind == "udp"]
    assert udp, "expected some benign lookups"
    for e in udp:
        assert e.body.length == 8 + len(e.body.payload)
        assert validate_udp_checksum(e.src_ip, e.dst_ip, e.src_port, e.dst_port,
                                     e.body.length, e.body.checksum, e.body.payload)


def test_udp_flood_contains_all_malformation_kinds():
    events = generate(Scenario("udp_flood", seed=2, duration_secs=2.0,
                               params={"benign_sources": 0, "sources": 1, "rate": 30}))
    oversize = [e for e in events if e.body.length > 1500]
    mismatch = [e for e in events if e.body.length <= 1500
                and e.body.length != 8 + len(e.body.payload)]
    badsum = [e for e in events if e.body.length == 8 + len(e.body.payload)
              and e.body.checksum != 0
              and not validate_udp_checksum(e.src_ip, e.dst_ip, e.src_port, e.dst_port,
                                            e.body.length, e.body.checksum, e.body.payload)]
    assert oversize and mismatch and badsum
    assert len(oversize) + len(mismatch) + len(badsum) == len(events) == 60


def test_a_bad_checksum_that_would_be_zero_is_written_as_0x2aaa():
    """A flood packet of the bad-checksum kind carries its correct checksum
    xor 0x5555. Where that is 0, which a UDP header reads as "no checksum",
    0x2AAA is written instead: at seed 22, event 3143's correct checksum is
    0x5555."""
    events = generate(Scenario("udp_flood", params={"sources": 4, "rate": 200}, seed=22, duration_secs=10.0))
    e = events[3142]
    assert (e.event_id, e.label, e.body.length, e.body.checksum) == (3143, "attack:udp_flood", 40, 0x2AAA)
    assert compute_udp_checksum(e.src_ip, e.dst_ip, e.src_port, e.dst_port, 40, e.body.payload) == 0x5555
    assert not validate_udp_checksum(e.src_ip, e.dst_ip, e.src_port, e.dst_port, 40, 0x2AAA, e.body.payload)


def test_pulse_stays_quiet_between_bursts():
    events = generate(Scenario("low_rate_pulse", seed=4, duration_secs=10.0,
                               params={"benign_sources": 0, "sources": 1}))
    # 2 bursts in 10 s at period 5; 40 packets per 0.2 s burst
    assert len(events) == 80
    ts = [e.ts for e in events]
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    assert max(gaps) > 4.0  # the inter-burst silence


def test_a_pulse_cut_by_the_end_of_the_run_is_short():
    """At seed 7 the second source's last pulse starts 0.07 s before the
    21 s run ends, so only 14 of a full pulse's 40 packets are sent."""
    events = generate(Scenario("low_rate_pulse", seed=7, duration_secs=21.0))
    assert all(e.ts < 21.0 for e in events)
    pulses = {}  # source -> packets in each of its pulses
    last_ts = {}
    for e in events:
        if e.label == "attack:low_rate_pulse":
            sizes = pulses.setdefault(e.src_ip, [])
            if e.ts - last_ts.get(e.src_ip, -5.0) > 1.0:  # pulses are 5 s apart and 0.2 s wide
                sizes.append(0)
            sizes[-1] += 1
            last_ts[e.src_ip] = e.ts
    assert pulses == {"10.5.0.1": [40] * 5, "10.5.0.2": [40] * 4 + [14]}


def test_http_attack_hits_every_sandbox_rule():
    events = generate(Scenario("http_attack", seed=6, duration_secs=10.0,
                               params={"benign_sources": 0, "sources": 1, "rate": 2.0}))
    assert all(e.kind == "http" for e in events)
    uris = {e.body.uri for e in events}
    assert any("UNION" in u for u in uris)
    assert any(u.startswith("/" + "A" * 10) for u in uris)
    durations = {e.body.duration_ms for e in events}
    assert 45000 in durations


def test_blacklist_mix_draws_sources_from_feed(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n192.0.2.0/25\n")
    events = generate(Scenario("blacklist_mix", seed=9, duration_secs=10.0,
                               params={"feed": str(feed), "sources": 4, "fraction": 0.5,
                                       "benign_sources": 0}))
    entries, _ = parse_feed(feed.read_text())
    snap = CidrSnapshot(entries)
    listed = {e.src_ip for e in events if e.label == "attack:blacklist_mix"}
    clean = {e.src_ip for e in events if e.label == "benign"}
    assert len(listed) == 2 and all(snap.contains(ip) for ip in listed)
    assert len(clean) == 2 and not any(snap.contains(ip) for ip in clean)


def test_manifest_totals_match_trace():
    sc = Scenario("mixed", seed=11, duration_secs=3.0)
    events = generate(sc)
    manifest = summarize(sc, events)
    assert manifest["events"] == len(events)
    assert sum(manifest["label_counts"].values()) == len(events)
    # disjoint pools: each source carries exactly one label
    for e in events:
        assert manifest["source_labels"][e.src_ip] == (e.label or "benign")


# sha256 of the trace (one serialized event per line, as `gen` writes it) and
# of the manifest JSON, at seed 7, 4 s, default parameters. "mixed+feed" is
# `mixed` with a feed, so its blacklist lane runs.
PINNED = {
    "normal": ("4ef92e748bf77333aca7d0567fd0c9490e7843b17ecf1c99007777460814b97f",
               "8d9ca46b8883c0ab4255959e653746f38df68387096db592515c27448a4ad67c"),
    "syn_flood": ("c39507fd51d09268a5532e275e379442388f8ccb65a4134775aab797965db959",
                  "c53a049bc488a3ae8d1a72c392eaf4a88e22bc2ec32926de916e749f34f0932e"),
    "ack_flood": ("dcc84cb4a7ad71d5d27a055bed995b65f97b9bd3185eb610801bb3be1849c38e",
                  "152229d3747c9aaa11b0662c0e42cc429ba32c229faf4f0bb16faf7146151eae"),
    "udp_flood": ("278aade1e2f30522ab9a247e751c6d3a5f7440e60be7924846dc766075d058e6",
                  "6d93002bb8d8f870857ad27baddf019a4db6422fc98680006aef5120c3d2091d"),
    "low_rate_pulse": ("e36c93269f3bb6ac599597b910f41f2a687e5b8bc4646523c8b5b729deb2d4f6",
                       "41fa7d21a60061cba3158be0d00fa7263a3291d8efaca8644a4a88c5e00b69b6"),
    "blacklist_mix": ("01276372c818a88fa88787a6fc886da15c2c2ba565d89b983ccb2b3da438b449",
                      "e0f211454fbe98174ae4a69caad56149dd4b27d94e2ce2791b926a215b1cd68a"),
    "http_attack": ("fe1e954b40897774b554e6d11f5054503d2b5d0e5a74277213ce2d097fa56471",
                    "25f171e0e5ba231773275b71f9fc361b6dce8d3a6255e790395f62e09a04a3ef"),
    "mixed": ("f3e5042cd1c34e29fff5fda512a91253aa83e70773d0e02fe882d0a75611dcad",
              "e852798a77fec3dba1f94974d8af16f80f27770e1cec6fed7aa049cafc8e16d0"),
    "mixed+feed": ("224ba65c7d65da14a9f68139a29574d6744810496fd5d37a7f64a2610f70be2d",
                   "8543c567471d3394e68daaa585c90ede4d223cfd52f1aa484712d7dc0651c980"),
}


@pytest.mark.parametrize("case", [*SCENARIO_NAMES, "mixed+feed"])
def test_scenario_bytes_are_pinned(case, tmp_path):
    params = {}
    if case in ("blacklist_mix", "mixed+feed"):
        feed = tmp_path / "feed.txt"
        feed.write_text("203.0.113.0/24\n192.0.2.0/25\n")
        params["feed"] = str(feed)
    sc = Scenario(case.partition("+")[0], params=params, seed=7, duration_secs=4.0)
    events = generate(sc)
    trace = "".join(serialize_trace_event(e) + "\n" for e in events)
    manifest = summarize(sc, events)
    if "feed" in manifest["params"]:
        manifest["params"]["feed"] = "feed.txt"  # tmp_path differs from run to run
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (trace, json.dumps(manifest, indent=2)))
    assert digests == PINNED[case]
