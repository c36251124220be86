"""Seeded synthetic traffic: benign baseline plus canned attack patterns.

Every scenario is a pure function of (name, params, seed, duration):
identical inputs give byte-identical traces. Randomness comes from a
splitmix64 stream (golden-gamma increment, two multiply-xor-shift
finalizer rounds, constants in _Rng) — never the platform RNG or the
wall clock. Attack schedules are exact arithmetic sequences so event
counts are provable; benign inter-arrival jitter uses inverse-CDF
exponentials on the same stream.

Scenarios: normal, syn_flood, ack_flood, udp_flood, low_rate_pulse,
blacklist_mix, http_attack, mixed. Attack scenarios carry a concurrent
benign stream; source pools never overlap. Each event is labeled
"benign" or "attack:<lane>" for offline scoring; the pipeline never
reads labels.

_LANES lists every lane once, in rank order, with its size function. A
lane's rank, its index there, picks its own RNG stream, so one lane's
draws never shift another's. _SCENARIOS states each scenario once: its
parameter defaults (in manifest order) and its lanes, each a builder and
the parameters it takes. Lanes are built in rank order, each returning
rows in emission order; the merge is a stable sort on timestamp, so ties
go by lane rank, then by emission order within the lane. Events get
their ids only after the merge. Before any row is built, generate
refuses a lane with more sources than its address and port formulas can
name, and a trace of more than MAX_ROWS rows or pulse loop iterations;
both are products of the parameters (the size functions).

Benign sources are built to stay under every default threshold: they
complete handshakes, keep per-source averages at or below their rate
parameter (which sits below the limiter refill rate), and emit only
well-formed UDP and inoffensive HTTP.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from . import blacklist as bl
from .analyzer import _MASK64, _mix64
from .events import ACK, compute_udp_checksum, HttpInfo, int_to_ipv4, PSH, SYN, TcpInfo, TraceEvent, UdpInfo

_GAMMA = 0x9E3779B97F4A7C15

SERVER_IP = "10.0.0.1"
HTTP_PORT = 80
DNS_PORT = 53

class _Rng:
    """splitmix64: state += golden gamma; output = finalizer(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        return self.next64() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next64() % (hi - lo + 1)

    def uniform(self) -> float:
        return self.next64() / 2.0**64

    def expovariate(self, rate: float) -> float:
        return -math.log(1.0 - self.uniform()) / rate


def _sub_rng(seed: int, lane: int) -> _Rng:
    # decorrelate lanes so one lane's draw count never shifts another's
    z = (seed ^ ((lane + 1) * _GAMMA)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    return _Rng(z ^ (z >> 27))


class Scenario(NamedTuple):
    name: str
    params: dict | None = None  # parameter overrides, as resolve_params takes them
    seed: int = 0
    duration_secs: float = 10.0


# Lane builders take (rng, duration, *their parameters) and return rows
# (t_us, kind, src_ip, src_port, dst_port, body, label) in emission order.


_BENIGN_PATHS = (
    "/", "/index.html", "/products?id=3", "/products?id=17&sort=price",
    "/search?q=deterministic+networks", "/api/v1/items/42", "/static/app.css",
    "/account/settings", "/docs/getting-started", "/cart",
)
_BENIGN_AGENTS = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:115.0) Gecko/20100101 Firefox/115.0",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/117.0",
    "curl/8.1.2",
)


def _benign_http(rng: _Rng) -> HttpInfo:
    if rng.below(8) == 0:
        return HttpInfo("POST", "/cart", "HTTP/1.1",
                        (("host", "example.test"),
                         ("user-agent", _BENIGN_AGENTS[rng.below(len(_BENIGN_AGENTS))]),
                         ("content-type", "application/x-www-form-urlencoded")),
                        b"item=7&quantity=2", rng.randint(20, 600))
    return HttpInfo("GET", _BENIGN_PATHS[rng.below(len(_BENIGN_PATHS))], "HTTP/1.1",
                    (("host", "example.test"),
                     ("user-agent", _BENIGN_AGENTS[rng.below(len(_BENIGN_AGENTS))]),
                     ("accept", "text/html,application/xhtml+xml")),
                    b"", rng.randint(20, 600))


def _session_lane(rng: _Rng, duration: float, ips: list[tuple[str, str]], rate: float) -> list:
    """Well-behaved request/response traffic: complete handshakes, polite
    pacing, a hard per-source budget of rate * duration events."""
    rows = []
    dur_us = int(duration * 1e6)
    for src_ip, label in ips:
        budget = int(rate * duration)
        emitted = 0
        t_us = rng.below(500_000)  # staggered start
        while emitted < budget and t_us < dur_us:
            if rng.below(3) == 2:
                # standalone DNS-style lookup, checksum computed for real
                sport = 30000 + rng.below(20000)
                payload = bytes(rng.below(256) for _ in range(16 + rng.below(24)))
                length = 8 + len(payload)
                csum = compute_udp_checksum(src_ip, SERVER_IP, sport, DNS_PORT, length, payload)
                rows.append((t_us, "udp", src_ip, sport, DNS_PORT,
                             UdpInfo(length, csum, payload), label))
                emitted += 1
            elif emitted + 2 <= budget:
                sport = 40000 + rng.below(20000)
                isn = rng.next64() & 0xFFFFFFFF
                rtt_us = rng.randint(20_000, 80_000)
                ack_t = t_us + rtt_us
                if ack_t >= dur_us:
                    break  # never leave a half-open handshake behind
                rows.append((t_us, "tcp", src_ip, sport, HTTP_PORT,
                             TcpInfo(SYN, isn, 0, 0, b""), label))
                rows.append((ack_t, "tcp", src_ip, sport, HTTP_PORT,
                             TcpInfo(ACK, (isn + 1) & 0xFFFFFFFF,
                                     rng.next64() & 0xFFFFFFFF, 0, b""), label))
                emitted += 2
                req_t = ack_t + rng.randint(5_000, 40_000)
                if emitted + 1 <= budget and req_t < dur_us:
                    rows.append((req_t, "http", src_ip, sport, HTTP_PORT,
                                 _benign_http(rng), label))
                    emitted += 1
            else:
                break
            gap = max(1.0, rng.expovariate(max(rate, 0.1) / 3.5))
            t_us += int(gap * 1e6)
    return rows


_POOL_SIZE = 256 * 250  # _pool runs out of third octets after this many sources


def _pool(net: int, sources: float) -> list[str]:
    """A lane's own source addresses: 10.<net>.x.y, 250 to a /24."""
    return [f"10.{net}.{k // 250}.{1 + k % 250}" for k in range(int(sources))]


def _benign_lane(rng: _Rng, duration: float, sources: float, rate: float) -> list:
    return _session_lane(rng, duration, [(ip, "benign") for ip in _pool(1, sources)], rate)


def _schedule(rate: float, duration: float) -> list[int]:
    n = int(rate * duration + 1e-9)
    return [round(i * 1e6 / rate) for i in range(n)]


def _syn_flood_lane(rng: _Rng, duration: float, sources: float, rate: float) -> list:
    rows = []
    label = "attack:syn_flood"
    for src_ip in _pool(2, sources):
        for i, t_us in enumerate(_schedule(rate, duration)):
            # fresh port per SYN: every flow stays half-open forever
            rows.append((t_us, "tcp", src_ip, 1024 + i % 64512, HTTP_PORT,
                         TcpInfo(SYN, rng.next64() & 0xFFFFFFFF, 0, 0, b""), label))
    return rows


def _ack_flood_lane(rng: _Rng, duration: float, sources: float, rate: float) -> list:
    rows = []
    label = "attack:ack_flood"
    for src_ip in _pool(3, sources):
        for i, t_us in enumerate(_schedule(rate, duration)):
            rows.append((t_us, "tcp", src_ip, 2048 + i % 60000, HTTP_PORT,
                         TcpInfo(ACK, rng.next64() & 0xFFFFFFFF,
                                 rng.next64() & 0xFFFFFFFF, 0, b""), label))
    return rows


def _udp_flood_lane(rng: _Rng, duration: float, sources: float, rate: float) -> list:
    rows = []
    label = "attack:udp_flood"
    for src_ip in _pool(4, sources):
        for i, t_us in enumerate(_schedule(rate, duration)):
            sport = 1024 + i % 60000
            variant = i % 3
            if variant == 0:
                # length field claims far more than any sane datagram
                payload = bytes(rng.below(256) for _ in range(64))
                info = UdpInfo(2000, 0, payload)
            elif variant == 1:
                payload = bytes(rng.below(256) for _ in range(32))
                good = compute_udp_checksum(src_ip, SERVER_IP, sport, DNS_PORT, 40, payload)
                bad = good ^ 0x5555
                if bad == 0:
                    bad = 0x2AAA
                info = UdpInfo(40, bad, payload)
            else:
                # header length disagrees with what is actually carried
                payload = bytes(rng.below(256) for _ in range(24))
                info = UdpInfo(24, 0, payload)
            rows.append((t_us, "udp", src_ip, sport, DNS_PORT, info, label))
    return rows


_PULSE_PAYLOAD = b"GET / HTTP/1.1\r\nHost: example.test\r\n\r\n"


def _pulse_lane(rng: _Rng, duration: float, sources: float, period: float,
                width: float, burst_rate: float) -> list:
    """Quiet sources that wake up for short square-wave bursts — the
    low-rate pattern that stays invisible to volume-only thresholds."""
    rows = []
    label = "attack:low_rate_pulse"
    per_burst = int(burst_rate * width + 1e-9)
    for k, src_ip in enumerate(_pool(5, sources)):
        sport = 3000 + k
        phase_us = rng.below(int(period * 2e5) or 1)
        burst = 0
        while True:
            start_us = phase_us + round(burst * period * 1e6)
            if start_us >= duration * 1e6:
                break
            for i in range(per_burst):
                t_us = start_us + round(i * 1e6 / burst_rate)
                if t_us >= duration * 1e6:
                    break
                rows.append((t_us, "tcp", src_ip, sport, HTTP_PORT,
                             TcpInfo(ACK | PSH, rng.next64() & 0xFFFFFFFF,
                                     rng.next64() & 0xFFFFFFFF, 0, _PULSE_PAYLOAD), label))
            burst += 1
    return rows


def _http_attack_requests() -> list[HttpInfo]:
    base = (("host", "example.test"), ("user-agent", "Mozilla/5.0 (X11; Linux x86_64)"))
    return [
        HttpInfo("GET", "/products?id=1%20UNION%20SELECT%20name,pass%20FROM%20users",
                 "HTTP/1.1", base, b"", 45),
        HttpInfo("GET", "/search?q=%3Cscript%3Ealert(1)%3C%2Fscript%3E", "HTTP/1.1", base, b"", 50),
        HttpInfo("GET", "/static/../../../etc/passwd", "HTTP/1.1", base, b"", 40),
        HttpInfo("POST", "/login", "HTTP/1.1",
                 base + (("content-type", "application/x-www-form-urlencoded"),),
                 b"username=admin&password=%27%20OR%201%3D1--", 60),
        HttpInfo("GET", "/" + "A" * 2100, "HTTP/1.1", base, b"", 35),
        HttpInfo("GET", "/download?file=report.pdf", "HTTP/1.1", base, b"", 45000),
        HttpInfo("GET", "/cgi-bin/status", "HTTP/1.1",
                 base + (("x-probe", "() { :; }; /bin/id"),), b"", 55),
        HttpInfo("GET", "/admin", "HTTP/1.1",
                 (("host", "example.test"), ("user-agent", "sqlmap/1.6.12#stable (http://sqlmap.org)")),
                 b"", 65),
    ]


def _http_attack_lane(rng: _Rng, duration: float, sources: float, rate: float) -> list:
    rows = []
    label = "attack:http_attack"
    requests = _http_attack_requests()
    for src_ip in _pool(7, sources):
        phase_us = rng.below(200_000)
        for i, t_us in enumerate(_schedule(rate, duration)):
            rows.append((phase_us + t_us, "http", src_ip, 40000 + i % 20000, HTTP_PORT,
                         requests[i % len(requests)], label))
    return rows


def _blacklist_lane(rng: _Rng, duration: float, feed: str | None, sources: float,
                    fraction: float, rate: float) -> list:
    """Sessions from listed and clean sources; no lane without a feed."""
    if not feed:
        return []
    entries, _skipped = bl.parse_feed(bl.read_feed(feed))
    if not entries:
        raise ValueError(f"feed {feed!r} contains no usable entries")
    sources = int(sources)
    listed_count = round(sources * fraction)
    ips = []
    for i in range(sources):
        if i < listed_count:
            entry = entries[i % len(entries)]
            span = entry.last - entry.base
            offset = min(1 + i // len(entries), span)
            ips.append((int_to_ipv4(entry.base + offset), "attack:blacklist_mix"))
        else:
            ips.append((f"198.51.100.{1 + i}", "benign"))
    return _session_lane(rng, duration, ips, rate)


# Each lane's size, from the parameters its function takes: the sources
# it names, how many its address and port formulas can name, and the
# rows (or, for pulses, loop iterations) it expects to build.
def _rate_size(duration: float, sources: float, rate: float) -> tuple:
    return int(sources), _POOL_SIZE, sources * rate * duration


def _pulse_size(duration: float, sources: float, period: float, width: float,
                burst_rate: float) -> tuple:
    # source port 3000 + k runs out before the pool does
    return (int(sources), 65536 - 3000,
            sources * (duration / period + 1) * (1 + burst_rate * width))


def _blacklist_size(duration: float, feed: str | None, sources: float, fraction: float,
                    rate: float) -> tuple:
    # clean source i is 198.51.100.<1 + i>; listed ones lie inside feed entries
    clean = int(sources) - round(int(sources) * fraction) if feed else 0
    return (int(sources) if clean > 0 else 0), 255, sources * rate * duration


_LANES = ((_benign_lane, _rate_size), (_syn_flood_lane, _rate_size),
          (_ack_flood_lane, _rate_size), (_udp_flood_lane, _rate_size),
          (_pulse_lane, _pulse_size), (_http_attack_lane, _rate_size),
          (_blacklist_lane, _blacklist_size))

_COMMON_BENIGN = {"benign_sources": 3.0, "benign_rate": 2.0}
_BENIGN = (_benign_lane, ("benign_sources", "benign_rate"))

# scenario -> (parameter defaults in manifest order, lanes as (builder, the
# parameters the builder takes))
_SCENARIOS: dict[str, tuple[dict, tuple]] = {
    "normal": ({"sources": 3.0, "rate": 2.0},
               ((_benign_lane, ("sources", "rate")),)),
    "syn_flood": ({"sources": 1.0, "rate": 100.0, **_COMMON_BENIGN},
                  (_BENIGN, (_syn_flood_lane, ("sources", "rate")))),
    "ack_flood": ({"sources": 1.0, "rate": 150.0, **_COMMON_BENIGN},
                  (_BENIGN, (_ack_flood_lane, ("sources", "rate")))),
    "udp_flood": ({"sources": 2.0, "rate": 100.0, **_COMMON_BENIGN},
                  (_BENIGN, (_udp_flood_lane, ("sources", "rate")))),
    "low_rate_pulse": ({"sources": 2.0, "period": 5.0, "width": 0.2, "burst_rate": 200.0,
                        **_COMMON_BENIGN},
                       (_BENIGN, (_pulse_lane, ("sources", "period", "width", "burst_rate")))),
    "blacklist_mix": ({"sources": 4.0, "fraction": 0.5, "rate": 2.0, "feed": None,
                       **_COMMON_BENIGN},
                      (_BENIGN, (_blacklist_lane, ("feed", "sources", "fraction", "rate")))),
    "http_attack": ({"sources": 2.0, "rate": 2.0, **_COMMON_BENIGN},
                    (_BENIGN, (_http_attack_lane, ("sources", "rate")))),
    "mixed": ({"benign_sources": 5.0, "benign_rate": 2.0,
               "syn_sources": 2.0, "syn_rate": 100.0,
               "ack_sources": 2.0, "ack_rate": 150.0,
               "udp_sources": 2.0, "udp_rate": 100.0,
               "pulse_sources": 2.0, "pulse_period": 5.0, "pulse_width": 0.2,
               "pulse_burst_rate": 200.0,
               "http_sources": 2.0, "http_rate": 2.0,
               "bl_sources": 4.0, "bl_fraction": 0.5, "bl_rate": 2.0, "feed": None},
              (_BENIGN,
               (_syn_flood_lane, ("syn_sources", "syn_rate")),
               (_ack_flood_lane, ("ack_sources", "ack_rate")),
               (_udp_flood_lane, ("udp_sources", "udp_rate")),
               (_pulse_lane, ("pulse_sources", "pulse_period", "pulse_width", "pulse_burst_rate")),
               (_http_attack_lane, ("http_sources", "http_rate")),
               (_blacklist_lane, ("feed", "bl_sources", "bl_fraction", "bl_rate")))),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
_POSITIVE = ("period", "pulse_period")  # a pulse train needs time to advance
# Every numeric parameter and the duration lie in [0, _MAX_VALUE], so
# each microsecond count and rate * duration product stays a finite float.
_MAX_VALUE = 1e9
# The most rows (or pulse loop iterations) one trace may ask for; a row
# takes about 450 bytes while the trace is built.
MAX_ROWS = 5_000_000


def _check_range(what: str, value: float) -> None:
    if not 0.0 <= value <= _MAX_VALUE:  # also refuses NaN
        raise ValueError(f"{what} must be finite, from 0 to {_MAX_VALUE:g}, got {value}")


def resolve_params(name: str, overrides: dict | None) -> dict:
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r} (expected one of {', '.join(SCENARIO_NAMES)})")
    resolved = dict(_SCENARIOS[name][0])
    for key, value in (overrides or {}).items():
        if key not in resolved:
            raise ValueError(f"scenario {name!r} has no parameter {key!r}")
        if key != "feed":
            if isinstance(value, str) and not value.isascii():  # "١٠" is not ten, as in the trace
                raise ValueError(f"scenario {name!r} parameter {key!r} must be ASCII, got {value!r}")
            value = float(value)
            _check_range(f"scenario {name!r} parameter {key!r}", value)
            if key in _POSITIVE and value <= 0:
                raise ValueError(f"scenario {name!r} parameter {key!r} must be positive, got {value}")
        resolved[key] = value
    return resolved


def generate(scenario: Scenario) -> list[TraceEvent]:
    """Build the full ts-sorted trace with 1-based, strictly increasing ids."""
    p = resolve_params(scenario.name, scenario.params)
    duration = scenario.duration_secs
    if scenario.name == "blacklist_mix" and not p["feed"]:
        raise ValueError("blacklist_mix requires a feed parameter (path to a CIDR feed file)")
    _check_range("duration_secs", duration)
    names_of = dict(_SCENARIOS[scenario.name][1])
    lanes = [(rank, build, sizes, [p[k] for k in names_of[build]])
             for rank, (build, sizes) in enumerate(_LANES) if build in names_of]
    work = 0.0
    for _, build, sizes, args in lanes:
        named, nameable, size = sizes(duration, *args)
        if named > nameable:
            raise ValueError(f"scenario {scenario.name!r}: {build.__name__.strip('_')} has "
                             f"addresses for at most {nameable} sources, got {named}")
        work += size
    if not work <= MAX_ROWS:
        raise ValueError(f"scenario {scenario.name!r} asks for about {work:.3g} rows or loop "
                         f"iterations, more than {MAX_ROWS:,}")
    rows: list = []
    for rank, build, _, args in lanes:
        rows.extend(build(_sub_rng(scenario.seed, rank), duration, *args))
    rows.sort(key=itemgetter(0))
    return [TraceEvent(i, t_us / 1e6, kind, src_ip, SERVER_IP, src_port, dst_port, body, label)
            for i, (t_us, kind, src_ip, src_port, dst_port, body, label)
            in enumerate(rows, start=1)]


def summarize(scenario: Scenario, events: list[TraceEvent]) -> dict:
    """Ground-truth sidecar: label totals and the per-source label map."""
    label_counts: dict[str, int] = {}
    source_labels: dict[str, str] = {}
    for ev in events:
        label = ev.label or "benign"
        label_counts[label] = label_counts.get(label, 0) + 1
        source_labels.setdefault(ev.src_ip, label)
    params = {k: v for k, v in resolve_params(scenario.name, scenario.params).items()
              if v is not None}
    return {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "duration_secs": scenario.duration_secs,
        "params": params,
        "events": len(events),
        "label_counts": dict(sorted(label_counts.items())),
        "source_labels": dict(sorted(source_labels.items())),
    }
