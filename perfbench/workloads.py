"""Seeded inputs for the four benchmark workloads.

Each workload is a trace file (JSONL, the format documented in
``ddosgate.events``) plus the ``--set`` overrides its run uses. Inputs
are a pure function of (workload, seed, GEN_VERSION): the same seed
gives byte-identical files. ``mixed`` and ``gates_open`` come from
``ddosgate.trafficgen``; ``http_mix``, ``spoof_churn`` and the CIDR
feed are generated here. Lines are written by this module, not by the
program's serialiser, so a change to the program cannot change its own
inputs.

Durations are shorter than the scenarios they model, so that one run of
the program takes a few seconds and a measured window holds several.
"""

from __future__ import annotations

import base64
import json
import os
import random
import shutil

# Bump whenever any generated byte changes; it keys the input cache.
GEN_VERSION = 1

WORKLOADS = ("mixed", "gates_open", "http_mix", "spoof_churn")

SERVER_IP = "10.0.0.1"

# test_09's trace shape: the mixed scenario with heavier floods and more
# benign sessions than the scenario defaults.
MIXED_PARAMS = {"syn_sources": 4, "syn_rate": 200, "ack_sources": 3, "ack_rate": 150,
                "udp_sources": 3, "udp_rate": 150, "benign_sources": 8}
MIXED_SECS = 20.0
GATES_OPEN_BL_SOURCES = 24
FEED_ENTRIES = 3300

HTTP_SOURCES = 1200
HTTP_SECS = 15.0
HTTP_ATTACK_SHARE = 0.10

SPOOF_SOURCES_PER_SEC = 300
SPOOF_SECS = 125.0  # more than twice the default rate.idle_evict_secs (60 s)
SPOOF_ACK_GAP_US = 500_000

# L1 admits everything, so every event reaches L2 and the later layers.
OPEN_GATES = ["rate.rps=1000000000", "rate.burst=1000000000"]

_FLAG_LETTERS = ((0x01, "S"), (0x02, "A"), (0x04, "F"), (0x08, "R"), (0x10, "P"), (0x20, "U"))


class Inputs:
    """Files and config overrides for one (workload, seed)."""

    def __init__(self, trace: str, overrides: list[str], events: int):
        self.trace = trace
        self.overrides = overrides
        self.events = events


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _head(event_id: int, t_us: int, kind: str, src_ip: str, src_port: int, dst_port: int) -> dict:
    return {"event_id": event_id, "ts": t_us / 1e6, "kind": kind, "src_ip": src_ip,
            "dst_ip": SERVER_IP, "src_port": src_port, "dst_port": dst_port}


def _event_line(ev) -> str:
    """One trafficgen TraceEvent as a trace line."""
    obj = {"event_id": ev.event_id, "ts": ev.ts, "kind": ev.kind, "src_ip": ev.src_ip,
           "dst_ip": ev.dst_ip, "src_port": ev.src_port, "dst_port": ev.dst_port}
    b = ev.body
    if ev.kind == "tcp":
        obj["flags"] = "".join(letter for bit, letter in _FLAG_LETTERS if b.flags & bit)
        obj.update(seq=b.seq, ack=b.ack, urgent_ptr=b.urgent_ptr, payload_b64=_b64(b.payload))
    elif ev.kind == "udp":
        obj.update(length=b.length, checksum=b.checksum, payload_b64=_b64(b.payload))
    else:
        obj.update(method=b.method, uri=b.uri, version=b.version,
                   headers=[[n, v] for n, v in b.headers], body_b64=_b64(b.body),
                   duration_ms=b.duration_ms)
    if ev.label is not None:
        obj["label"] = ev.label
    return _line(obj)


def _ip(value: int) -> str:
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def write_feed(path: str, seed: int) -> None:
    """About FEED_ENTRIES public CIDRs, /16 to /32, clear of the 10/8 and
    198.51.100/24 sources the generator uses."""
    rng = random.Random(seed * 7919 + 1)
    lines = ["# generated blocklist\n"]
    for _ in range(FEED_ENTRIES):
        while True:
            addr = rng.randrange(11 << 24, 224 << 24)
            if addr >> 8 != (198 << 16 | 51 << 8 | 100):
                break
        plen = rng.choice((16, 20, 24, 24, 28, 32, 32, 32))
        if addr >> 24 == 198 and plen < 24:
            plen = 32  # a wider prefix in 198/8 could cover 198.51.100/24
        mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
        lines.append(f"{_ip(addr & mask)}/{plen}\n")
    _write_atomic(path, "".join(lines))


def _trafficgen_lines(seed: int, feed: str | None) -> list[str]:
    from ddosgate.trafficgen import Scenario, generate

    params = dict(MIXED_PARAMS)
    if feed is not None:
        params.update(feed=feed, bl_sources=GATES_OPEN_BL_SOURCES)
    events = generate(Scenario(name="mixed", seed=seed, duration_secs=MIXED_SECS, params=params))
    return [_event_line(ev) for ev in events]


_WORDS = ("deterministic", "networks", "café", "résumé", "price/quality", "a&b",
          "50%", "blue", "widget", "deluxe", "müller", "2024", "tom's", "size=xl")
_AGENTS = ("Mozilla/5.0 (X11; Linux x86_64; rv:115.0) Gecko/20100101 Firefox/115.0",
           "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/117.0",
           "Mozilla/5.0 (Macintosh; Intel Mac OS X 13_5) AppleWebKit/605.1.15 Safari/605.1.15",
           "curl/8.1.2")
_LANGS = ("en-US,en;q=0.9", "de-DE,de;q=0.8,en;q=0.5", "fr-FR,fr;q=0.9")


def _pct(text: str) -> str:
    out = []
    for byte in text.encode("utf-8"):
        ch = chr(byte)
        if ch.isalnum() and byte < 128 or ch in "-_.~":
            out.append(ch)
        elif ch == " ":
            out.append("+")
        else:
            out.append(f"%{byte:02X}")
    return "".join(out)


def _benign_request(rng: random.Random) -> tuple[str, str, list, bytes, int]:
    headers = [["host", "shop.example.test"], ["user-agent", rng.choice(_AGENTS)],
               ["accept", "text/html,application/xhtml+xml,application/xml;q=0.9"],
               ["accept-language", rng.choice(_LANGS)],
               ["cookie", f"session={rng.getrandbits(64):016x}; theme=dark"]]
    if rng.random() < 0.15:
        comment = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 12)))
        body = f"item={rng.randint(1, 999)}&quantity={rng.randint(1, 5)}&note={_pct(comment)}"
        headers[2] = ["content-type", "application/x-www-form-urlencoded"]
        return "POST", "/cart/add", headers, body.encode("ascii"), rng.randint(20, 600)
    query = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 5)))
    uri = rng.choice((
        f"/search?q={_pct(query)}&page={rng.randint(1, 20)}&lang=en",
        f"/products/{rng.randint(1, 5000)}?ref={_pct(query)}&utm_source=newsletter",
        f"/api/v1/items?filter={_pct(query)}&sort=price&order=asc",
        "/static/app.css", "/", "/account/settings",
    ))
    return "GET", uri, headers, b"", rng.randint(20, 600)


def _attack_request(rng: random.Random) -> tuple[str, str, list, bytes, int]:
    """One request from a class the default ruleset covers (rules 1001-1008)."""
    headers = [["host", "shop.example.test"], ["user-agent", rng.choice(_AGENTS)],
               ["accept", "*/*"], ["accept-language", rng.choice(_LANGS)],
               ["cookie", f"session={rng.getrandbits(64):016x}"]]
    kind = rng.randrange(8)
    n = rng.randint(1, 999)
    if kind == 0:
        return "GET", f"/products?id={n}%20UnIoN%20SeLeCt%20name,pass%20FROM%20users", headers, b"", 45
    if kind == 1:
        return "GET", f"/search?q=%3CScRiPt%3Ealert({n})%3C%2Fscript%3E", headers, b"", 50
    if kind == 2:
        return "GET", f"/static/{'../' * rng.randint(2, 6)}etc/passwd", headers, b"", 40
    if kind == 3:
        headers[2] = ["content-type", "application/x-www-form-urlencoded"]
        return "POST", "/login", headers, f"username=u{n}&password=%27%20Or%201%3D1--".encode(), 60
    if kind == 4:
        return "GET", "/" + "A" * rng.randint(2049, 3000), headers, b"", 35
    if kind == 5:
        return "GET", f"/download?file=report{n}.pdf", headers, b"", rng.randint(30001, 90000)
    if kind == 6:
        headers[4] = ["x-probe", f"() {{ :; }}; /bin/id {n}"]
        return "GET", "/cgi-bin/status", headers, b"", 55
    headers[1] = ["user-agent", f"sqlmap/1.6.{n} (http://sqlmap.org)"]
    return "GET", "/admin", headers, b"", 65


def _http_mix_lines(seed: int) -> list[str]:
    """HTTP only; each source paces itself at >= 0.25 s per request, so
    the default limiter (5 rps, burst 10) never denies one."""
    rng = random.Random(seed * 7919 + 2)
    end_us = int(HTTP_SECS * 1e6)
    rows = []
    for s in range(HTTP_SOURCES):
        src_ip = f"172.{16 + s // 60000}.{s // 250 % 240}.{1 + s % 250}"
        t_us = rng.randrange(1_000_000)
        seq = 0
        while t_us < end_us:
            rows.append((t_us, s, seq, src_ip))
            seq += 1
            t_us += 250_000 + int(rng.expovariate(1 / 750_000))
    rows.sort()
    lines = []
    for event_id, (t_us, s, seq, src_ip) in enumerate(rows, start=1):
        attack = rng.random() < HTTP_ATTACK_SHARE
        method, uri, headers, body, duration_ms = (_attack_request if attack else _benign_request)(rng)
        obj = _head(event_id, t_us, "http", src_ip, 40000 + (s * 7 + seq) % 20000, 80)
        obj.update(method=method, uri=uri, version="HTTP/1.1", headers=headers,
                   body_b64=_b64(body), duration_ms=duration_ms,
                   label="attack:http" if attack else "benign")
        lines.append(_line(obj))
    return lines


def _spoof_churn_lines(seed: int) -> list[str]:
    """Every source is new, sends two bare ACKs 0.5 s apart, never returns."""
    rng = random.Random(seed * 7919 + 3)
    count = int(SPOOF_SOURCES_PER_SEC * SPOOF_SECS)
    step_us = 1_000_000 // SPOOF_SOURCES_PER_SEC
    # an odd multiplier makes k -> address a bijection, so sources never repeat
    mult, offset = rng.getrandbits(32) | 1, rng.getrandbits(32)
    rows = []
    for k in range(count):
        src_ip = _ip((mult * k + offset) & 0xFFFFFFFF)
        t_us = k * step_us
        for seq in range(2):
            rows.append((t_us + seq * SPOOF_ACK_GAP_US, k, seq, src_ip))
    rows.sort()
    lines = []
    for event_id, (t_us, k, seq, src_ip) in enumerate(rows, start=1):
        obj = _head(event_id, t_us, "tcp", src_ip, 1024 + k % 64000, 80)
        obj.update(flags="A", seq=rng.getrandbits(32), ack=rng.getrandbits(32), urgent_ptr=0,
                   payload_b64="", label="attack:spoof_churn")
        lines.append(_line(obj))
    return lines


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def prepare(workload: str, seed: int, cache_root: str, keep_seeds: tuple[int, ...] = ()) -> Inputs:
    """Generate (or reuse) the inputs for one workload and seed.

    Cached inputs of the same workload for seeds other than this one and
    ``keep_seeds`` are deleted, so the cache stays small when every run
    uses a new seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    name = f"{workload}-s{seed}-g{GEN_VERSION}"
    keep = {name} | {f"{workload}-s{s}-g{GEN_VERSION}" for s in keep_seeds}
    if os.path.isdir(cache_root):
        for entry in os.listdir(cache_root):
            if entry.startswith(f"{workload}-s") and entry not in keep:
                shutil.rmtree(os.path.join(cache_root, entry), ignore_errors=True)
    folder = os.path.join(cache_root, name)
    trace = os.path.join(folder, "trace.jsonl")
    feed = os.path.join(folder, "feed.txt")
    overrides: list[str] = []
    if workload == "gates_open":
        overrides = OPEN_GATES + [f"blacklist.path={feed}"]
    if not os.path.exists(trace):
        os.makedirs(folder, exist_ok=True)
        if workload == "mixed":
            lines = _trafficgen_lines(seed, None)
        elif workload == "gates_open":
            write_feed(feed, seed)
            lines = _trafficgen_lines(seed, feed)
        elif workload == "http_mix":
            lines = _http_mix_lines(seed)
        else:
            lines = _spoof_churn_lines(seed)
        _write_atomic(trace, "".join(lines))
    with open(trace, "rb") as fh:
        events = sum(1 for line in fh if line.strip())
    return Inputs(trace, overrides, events)
