"""End-to-end acceptance gate.

One test per shipped guarantee, each with its tolerance and runtime
budget pinned in the assertions. Oracles here are written against the
documented behavior, not against the implementation internals: the
blacklist check is recomputed with raw bit masks, the rate limiter is
re-simulated on a 1 ms grid, and the SYN-flood crossing is recounted
from the admission law alone.
"""

import ipaddress
import json
import random
import time
from collections import Counter
from io import StringIO

from ddosgate import blacklist as bl
from ddosgate.analyzer import check_syn_cookie, make_syn_cookie
from ddosgate.events import (
    SANDBOX,
    FlowKey,
    HttpInfo,
    Verdict,
    compute_udp_checksum,
    parse_trace_event,
    serialize_trace_event,
    validate_udp_checksum,
)
from ddosgate.pipeline import Engine, EngineConfig, SandboxSink
from ddosgate.ratelimit import LimiterConfig, LimiterTable
from ddosgate.trafficgen import Scenario, generate
from ddosgate.waf import default_ruleset, evaluate

# -- 1: token bucket, 5 rps / burst 10 ----------------------------------------


def test_01_rate_limit_burst_exactly_10_and_sustained_60():
    start = time.perf_counter()

    table = LimiterTable(LimiterConfig())
    allowed = sum(table.acquire("198.18.0.1", 0.0) for _ in range(100))
    assert allowed == 10

    # uniform 20 req/s for 10 s against a fresh bucket
    table = LimiterTable(LimiterConfig())
    arrivals = [i / 20.0 for i in range(200)]
    got = sum(table.acquire("198.18.0.2", t) for t in arrivals)
    assert abs(got - 60) <= 1

    # oracle: 1 ms discrete-time simulation of the same bucket
    tokens, oracle, queue = 10.0, 0, sorted(arrivals)
    idx = 0
    for ms in range(10_001):
        now = ms / 1000.0
        while idx < len(queue) and queue[idx] <= now:
            if tokens >= 1.0:
                tokens -= 1.0
                oracle += 1
            idx += 1
        tokens = min(10.0, tokens + 5.0 / 1000.0)
    assert abs(got - oracle) <= 1
    assert time.perf_counter() - start < 1.0


# -- 2: blacklist lookup vs O(n) mask oracle ----------------------------------


def test_02_blacklist_agrees_with_mask_oracle_on_10k_ips():
    start = time.perf_counter()
    rng = random.Random(1202)
    entries = []
    for _ in range(50):
        prefix = rng.randint(8, 32)
        base = rng.getrandbits(32) & (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
        entries.append(bl.Cidr(base, prefix))
    snap = bl.CidrSnapshot(entries)

    def oracle(ip_int):
        return any(ip_int >> (32 - c.prefix_len) == c.base >> (32 - c.prefix_len)
                   for c in entries)

    probes = [rng.getrandbits(32) for _ in range(10_000)]
    for c in entries:  # deterministic edge probes on top of the random ones
        probes += [c.base, c.last, (c.base - 1) & 0xFFFFFFFF, (c.last + 1) & 0xFFFFFFFF]
    agree = sum(
        snap.contains(str(ipaddress.IPv4Address(p))) == oracle(p) for p in probes
    )
    assert agree == len(probes)  # 100%, no tolerance
    assert time.perf_counter() - start < 1.0


# -- 3: SYN flood caught at the recounted crossing ----------------------------


def test_03_syn_flood_first_sandbox_matches_offline_recount():
    start = time.perf_counter()
    events = list(generate(Scenario(name="syn_flood", seed=42)))

    # Offline recount: replay layer-1 admission (5 rps, burst 10, denials
    # free) over the whole trace. Every admitted flood SYN stays half-open
    # inside one 10 s window (nothing ever completes and expiries fold back
    # in), so the 50th admitted SYN from the flooding source is the
    # threshold crossing.
    flood_sources = {e.src_ip for e in events if e.label == "attack:syn_flood"}
    assert len(flood_sources) == 1
    buckets: dict[str, tuple[float, float]] = {}
    admitted_syns = 0
    predicted = None
    for ev in events:
        tokens, last = buckets.get(ev.src_ip, (10.0, ev.ts))
        tokens = min(10.0, tokens + (ev.ts - last) * 5.0)
        ok = tokens >= 1.0
        if ok:
            tokens -= 1.0
        buckets[ev.src_ip] = (tokens, ev.ts)
        if ok and ev.src_ip in flood_sources:
            admitted_syns += 1
            if admitted_syns == 50 and predicted is None:
                predicted = ev.event_id
    assert predicted == 832  # frozen for seed 42, default params

    sink = SandboxSink(StringIO())
    engine = Engine(sandbox=sink)
    first_flagged = None
    benign_sandboxed = 0
    for ev in events:
        verdict = engine.process_event(ev)
        if verdict.decision == "sandbox":
            if verdict.reason == "syn_half_open" and first_flagged is None:
                first_flagged = ev.event_id
            if ev.label == "benign":
                benign_sandboxed += 1
    assert first_flagged == predicted
    assert benign_sandboxed == 0
    assert time.perf_counter() - start < 2.0


# -- 4: UDP checksum round trip and corruption coverage -----------------------


def test_04_udp_checksum_round_trip_and_single_byte_corruption():
    start = time.perf_counter()
    rng = random.Random(1204)
    for _ in range(1000):
        src = str(ipaddress.IPv4Address(rng.getrandbits(32)))
        dst = str(ipaddress.IPv4Address(rng.getrandbits(32)))
        sport, dport = rng.randint(0, 65535), rng.randint(0, 65535)
        payload = rng.randbytes(rng.randint(0, 100))
        csum = compute_udp_checksum(src, dst, sport, dport, 8 + len(payload), payload)
        assert validate_udp_checksum(src, dst, sport, dport, 8 + len(payload), csum, payload)

    # 64-byte datagram: 8-byte header + 56-byte payload, every position
    src, dst, sport, dport = "192.0.2.10", "203.0.113.9", 5353, 53
    payload = rng.randbytes(56)
    csum = compute_udp_checksum(src, dst, sport, dport, 64, payload)
    raw = sport.to_bytes(2, "big") + dport.to_bytes(2, "big") + \
        (64).to_bytes(2, "big") + csum.to_bytes(2, "big") + payload
    detected = tried = 0
    for pos in range(64):
        for flip in (0x01, 0x80, 0xFF):
            bad = bytearray(raw)
            bad[pos] ^= flip
            tried += 1
            ok = validate_udp_checksum(
                src, dst,
                int.from_bytes(bad[0:2], "big"), int.from_bytes(bad[2:4], "big"),
                int.from_bytes(bad[4:6], "big"), int.from_bytes(bad[6:8], "big"),
                bytes(bad[8:]))
            detected += not ok
    assert detected == tried == 192  # 100% of brute-forced positions
    assert time.perf_counter() - start < 1.0


# -- 5: SYN cookies: round trips and forgery rejection ------------------------


def test_05_syn_cookie_10k_round_trips_and_1m_forgeries():
    start = time.perf_counter()
    rng = random.Random(1205)
    for _ in range(10_000):
        secret = rng.getrandbits(64)
        flow = FlowKey(str(ipaddress.IPv4Address(rng.getrandbits(32))), rng.randint(1, 65535),
                       str(ipaddress.IPv4Address(rng.getrandbits(32))), rng.randint(1, 65535))
        counter = rng.getrandbits(20)
        mss_idx = rng.randrange(8)
        assert check_syn_cookie(secret, flow, counter,
                                make_syn_cookie(secret, flow, counter, mss_idx)) == mss_idx

    secret = 0xD1CEB0A710C0FFEE
    flow = FlowKey("198.51.100.7", 44123, "10.0.0.1", 443)
    counter = 1000

    def forgery_accepts(seed):
        r = random.Random(seed)
        bits = r.getrandbits
        return sum(check_syn_cookie(secret, flow, counter, bits(32)) is not None
                   for _ in range(1_000_000))

    accepts = forgery_accepts(1205)
    if accepts:  # ~2^-28 per guess; one resample allowed before failing
        accepts = forgery_accepts(5021)
    assert accepts == 0
    assert time.perf_counter() - start < 10.0


# -- 6: default WAF rules, near misses, and a clean corpus --------------------


def _request(uri="/", method="GET", headers=(("host", "shop.example"),),
             body=b"", duration_ms=120):
    return HttpInfo(method=method, uri=uri, version="HTTP/1.1",
                    headers=tuple(headers), body=body, duration_ms=duration_ms)


def test_06_waf_rules_hit_near_misses_pass_benign_corpus_clean():
    start = time.perf_counter()
    rules = default_ruleset()
    pairs = {
        1001: (_request(uri="/items?q=UNION%20SELECT+name"),
               _request(uri="/items?q=UNION%20SELEC")),
        1002: (_request(uri="/p?x=%3Cscript%3Ealert(1)"),
               _request(uri="/p?x=%3Cscrip%3E")),
        1003: (_request(uri="/static/../../etc/passwd"),
               _request(uri="/static/..%2F..%2Fetc")),
        1004: (_request(method="POST", body=b"user=%27+OR+1%3D1+--"),
               _request(method="POST", body=b"user=%27+OR+1%3D2")),
        1005: (_request(uri="/" + "a" * 2048),
               _request(uri="/" + "a" * 2047)),
        1006: (_request(duration_ms=30_001),
               _request(duration_ms=30_000)),
        1007: (_request(headers=(("user-agent", "() { :; }; /bin/id"),)),
               _request(headers=(("user-agent", "() }"),))),
    }
    log_hits = Counter()
    for rule_id, (hit, miss) in pairs.items():
        assert evaluate(rules, hit, log_hits) == Verdict(SANDBOX, 4, f"waf_rule_{rule_id}", rule_id)
        assert evaluate(rules, miss, log_hits) is None
    assert not log_hits

    assert evaluate(rules, _request(headers=(("user-agent", "sqlmap/1.7#dev"),)), log_hits) is None
    assert log_hits == {1008: 1}

    rng = random.Random(1206)
    words = ["shoes", "lamp", "garden", "mixer", "novel", "stand", "cable"]
    for i in range(200):
        if rng.random() < 0.5:
            req = _request(uri=f"/products/{rng.randint(1, 9999)}",
                           headers=(("host", "shop.example"),
                                    ("user-agent", "Mozilla/5.0"),
                                    ("accept", "text/html")))
        else:
            req = _request(method="POST", uri=f"/search?q={rng.choice(words)}",
                           body=f"note=order+{i}&qty={rng.randint(1, 9)}".encode(),
                           duration_ms=rng.randint(5, 2000))
        assert evaluate(rules, req, log_hits) is None
    assert log_hits == {1008: 1}
    assert time.perf_counter() - start < 1.0


# -- 7: layer ordering under overlapping violations ---------------------------


def test_07_rate_limit_outranks_blacklist_outranks_waf(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("10.9.0.0/16\n")
    engine = Engine(EngineConfig(blacklist_path=str(feed), blacklist_refresh_secs=300.0))
    line = ('{"event_id":%d,"ts":0.0,"kind":"http","src_ip":"10.9.0.1",'
            '"dst_ip":"10.0.0.1","src_port":40000,"dst_port":80,"method":"GET",'
            '"uri":"/?q=union+select","version":"HTTP/1.1",'
            '"headers":[["host","h"]],"body_b64":"","duration_ms":10}')
    verdicts = [engine.process_event(parse_trace_event(line % (i + 1)))
                for i in range(11)]
    # not over-rate: the blacklist wins even though the WAF would match
    assert verdicts[0].decision == "reject_blacklisted" and verdicts[0].layer == 2
    # over-rate + blacklisted + WAF-matching: the rate limiter wins
    assert verdicts[10].decision == "drop_rate_limited" and verdicts[10].layer == 1


# -- 8: gen | run determinism across runs -------------------------------------


def test_08_piped_mixed_run_twice_is_byte_identical(tmp_path, cli_run):
    outs = []
    for tag in ("a", "b"):
        gen = cli_run(["gen", "--scenario", "mixed", "--seed", "7", "--out", "-"])
        assert gen.returncode == 0, gen.stderr
        verdicts = tmp_path / f"v_{tag}.jsonl"
        stats = tmp_path / f"s_{tag}.json"
        sandbox = tmp_path / f"sb_{tag}.jsonl"
        run = cli_run(
            ["run", "--trace", "-", "--out", str(verdicts),
             "--stats", str(stats), "--set", f"sandbox.log_path={sandbox}"],
            input=gen.stdout)
        assert run.returncode == 0, run.stderr
        outs.append((verdicts.read_bytes(), stats.read_bytes(), sandbox.read_bytes()))
    assert outs[0] == outs[1]


# -- 9: totality and sandbox exactness at scale -------------------------------


def test_09_mixed_100k_events_total_verdicts_and_exact_sandbox_file():
    scenario = Scenario(name="mixed", seed=9, duration_secs=60.0,
                        params={"syn_sources": 4, "syn_rate": 200,
                                "ack_sources": 3, "ack_rate": 150,
                                "udp_sources": 3, "udp_rate": 150,
                                "benign_sources": 8})
    lines = [serialize_trace_event(ev) for ev in generate(scenario)]
    assert len(lines) == 103_775 >= 100_000  # frozen for seed 9

    sandbox_stream, verdict_out = StringIO(), StringIO()
    engine = Engine(sandbox=SandboxSink(sandbox_stream))
    started = time.perf_counter()
    engine.run_trace(lines, verdict_out)
    elapsed = time.perf_counter() - started

    snap = engine.stats_snapshot()
    verdict_lines = verdict_out.getvalue().splitlines()
    assert snap["events"] == len(verdict_lines) == len(lines)

    sandboxed_ids = [json.loads(l)["event_id"] for l in verdict_lines
                     if json.loads(l)["decision"] == "sandbox"]
    captured_ids = [json.loads(l)["event"]["event_id"]
                    for l in sandbox_stream.getvalue().splitlines()]
    assert captured_ids == sandboxed_ids  # same events, same order, nothing else
    assert len(captured_ids) == snap["verdicts"]["sandbox"]
    assert elapsed < 5.0


# -- 10: label/verdict separability, confusion matrix on mixed ----------------


def _run_scenario(scenario, engine):
    per_source_nonforward: dict[str, int] = {}
    source_label: dict[str, str] = {}
    benign_sandboxed = 0
    matrix: dict[tuple[str, str], int] = {}
    for ev in generate(scenario):
        verdict = engine.process_event(ev)
        source_label.setdefault(ev.src_ip, ev.label)
        if verdict.decision != "forward":
            per_source_nonforward[ev.src_ip] = per_source_nonforward.get(ev.src_ip, 0) + 1
        if verdict.decision == "sandbox" and ev.label == "benign":
            benign_sandboxed += 1
        key = (ev.label, verdict.decision)
        matrix[key] = matrix.get(key, 0) + 1
    return per_source_nonforward, source_label, benign_sandboxed, matrix


def test_10_every_attack_source_flagged_no_benign_sandboxed(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n198.18.64.0/18\n")
    for name in ("syn_flood", "ack_flood", "udp_flood", "low_rate_pulse",
                 "http_attack", "blacklist_mix"):
        params = {"feed": str(feed)} if name == "blacklist_mix" else {}
        config = (EngineConfig(blacklist_path=str(feed))
                  if name == "blacklist_mix" else EngineConfig())
        engine = Engine(config, sandbox=SandboxSink(StringIO()))
        flagged, labels, benign_sandboxed, _ = _run_scenario(
            Scenario(name=name, seed=5, params=params), engine)
        attack_sources = {s for s, lab in labels.items() if lab != "benign"}
        assert attack_sources, name
        missed = attack_sources - set(flagged)
        assert not missed, f"{name}: unflagged attack sources {sorted(missed)}"
        assert benign_sandboxed == 0, name


def test_10_mixed_confusion_matrix():
    engine = Engine(sandbox=SandboxSink(StringIO()))
    flagged, labels, benign_sandboxed, matrix = _run_scenario(
        Scenario(name="mixed", seed=5), engine)
    attack_sources = {s for s, lab in labels.items() if lab != "benign"}
    assert attack_sources - set(flagged) == set()
    assert benign_sandboxed == 0

    decisions = ("forward", "drop_rate_limited", "reject_blacklisted", "sandbox")
    print("\nlabel x verdict counts (mixed, seed 5):")
    print(f"{'label':<22}" + "".join(f"{d:>20}" for d in decisions))
    for label in sorted({lab for lab, _ in matrix}):
        row = [matrix.get((label, d), 0) for d in decisions]
        print(f"{label:<22}" + "".join(f"{n:>20}" for n in row))
    assert matrix.get(("benign", "sandbox"), 0) == 0
    assert matrix.get(("benign", "reject_blacklisted"), 0) == 0
