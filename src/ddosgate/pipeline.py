"""Four-layer zero-trust pipeline over an ordered event stream.

Per event, short-circuiting on the first non-pass:

  L1  token-bucket rate limit   -> drop_rate_limited
  L2  CIDR blacklist            -> reject_blacklisted
  L3  tcp/udp header analysis   -> sandbox(finding)
  L4  http WAF rules            -> sandbox(waf_rule_<id>)
  --  otherwise                 -> forward

HTTP events skip L3 and packet events skip L4; every event passes L1 and
L2. One verdict line is written per consumed event, forwards included,
so the verdict log is a complete audit trail. Sandboxed events are
persisted to the capture sink before their verdict is emitted.

All timing derives from event timestamps; the blacklist refresh clock is
the trace clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TextIO

from . import blacklist as bl
from .analyzer import Analyzer, AnalyzerConfig
from .events import (
    _MAX_TS,
    DROP_RATE_LIMITED,
    FORWARD,
    REJECT_BLACKLISTED,
    SANDBOX,
    TraceEvent,
    TraceParseError,
    Verdict,
    parse_trace_event,
    serialize_trace_event,
    serialize_verdict_record,
)
from .ratelimit import LimiterConfig, LimiterTable
from .waf import Rule, Ruleset, default_ruleset, evaluate

RATE_LIMITED = "rate_limited"
BLACKLISTED = "blacklisted"

# The verdicts that carry nothing from the event are shared, not rebuilt per event.
_RATE_LIMITED_VERDICT = Verdict(DROP_RATE_LIMITED, 1, RATE_LIMITED)
_BLACKLISTED_VERDICT = Verdict(REJECT_BLACKLISTED, 2, BLACKLISTED)
_FORWARD_VERDICT = Verdict(FORWARD, 0, "")


class OutOfOrderError(RuntimeError):
    """An event whose ts is not a finite non-negative number, or is
    earlier than the ts of the event before it."""

    def __init__(self, event_id: int, ts: float, last_ts: float):
        self.event_id = event_id
        if 0.0 <= ts <= _MAX_TS:
            problem = f"is earlier than previous event ts {last_ts}"
        else:
            problem = "is not a finite non-negative number"
        super().__init__(f"event {event_id}: ts {ts} {problem}")


class SandboxSink:
    """Append-only capture of sandboxed traffic: the event verbatim, the
    reason it was caught, and the trace time of the verdict."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def capture(self, event: TraceEvent, reason: str) -> None:
        self._stream.write('{"event":%s,"reason":%s,"verdict_ts":%s}\n'
                           % (serialize_trace_event(event), json.dumps(reason), json.dumps(event.ts)))


@dataclass
class Stats:
    events: int = 0
    verdict_totals: dict[str, int] = field(default_factory=lambda: {
        FORWARD: 0, DROP_RATE_LIMITED: 0, REJECT_BLACKLISTED: 0, SANDBOX: 0})
    # by layer; every event reaches layer 1, so its count is ``events``
    examined: dict[int, int] = field(default_factory=lambda: {2: 0, 3: 0, 4: 0})
    blocked: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0})
    sandbox_reasons: dict[str, int] = field(default_factory=dict)  # every sandbox verdict
    blocked_by_source: dict[str, int] = field(default_factory=dict)
    waf_log_hits: dict[int, int] = field(default_factory=dict)
    first_ts: float | None = None
    last_ts: float | None = None
    skipped_lines: int = 0


@dataclass(frozen=True)
class EngineConfig:
    limiter: LimiterConfig = LimiterConfig()
    analyzer: AnalyzerConfig = AnalyzerConfig()
    rate_drop_to_sandbox: bool = False
    blacklist_locator: str | None = None  # file path or http(s) URL
    blacklist_refresh_secs: float = 300.0
    top_n: int = 10

    def __post_init__(self):
        if self.top_n < 0:
            raise ValueError("top_n must not be negative")
        if self.blacklist_refresh_secs <= 0:
            raise ValueError("blacklist_refresh_secs must be positive")


class Engine:
    def __init__(self, config: EngineConfig | None = None, ruleset: Sequence[Rule] | None = None,
                 sandbox: SandboxSink | None = None,
                 fetcher: Callable[[str], str] | None = None):
        self.config = config or EngineConfig()
        self.limiter = LimiterTable(self.config.limiter)
        self.blacklist = bl.Blacklist(self.config.blacklist_locator,
                                      self.config.blacklist_refresh_secs, fetcher or bl.fetch_feed)
        self.analyzer = Analyzer(self.config.analyzer)
        if ruleset is None:
            ruleset = default_ruleset()
        self.ruleset = ruleset if isinstance(ruleset, Ruleset) else Ruleset(ruleset)
        self.sandbox = sandbox
        self.stats = Stats()
        self._last_ts = 0.0

    # -- verdicts ----------------------------------------------------------

    def _sandbox(self, event: TraceEvent, layer: int, reason: str, rule_id: int | None = None) -> Verdict:
        if self.sandbox is not None:
            self.sandbox.capture(event, reason)  # persist before the verdict exists
        reasons = self.stats.sandbox_reasons
        reasons[reason] = reasons.get(reason, 0) + 1
        return Verdict(SANDBOX, layer, reason, rule_id)

    def process_event(self, event: TraceEvent) -> Verdict:
        """Apply the layers in order; exactly one verdict per event.

        The one clock guard: ts must be finite and no earlier than the
        previous event's, so the layers may rely on non-decreasing time.
        """
        if not self._last_ts <= event.ts <= _MAX_TS:
            raise OutOfOrderError(event.event_id, event.ts, self._last_ts)
        self._last_ts = event.ts
        stats = self.stats
        stats.events += 1
        if stats.first_ts is None:
            stats.first_ts = event.ts
        stats.last_ts = event.ts

        verdict = self._decide(event)

        stats.verdict_totals[verdict.decision] += 1
        if verdict.decision != FORWARD:
            stats.blocked[verdict.layer] += 1
            src = event.src_ip
            stats.blocked_by_source[src] = stats.blocked_by_source.get(src, 0) + 1
        return verdict

    def _decide(self, event: TraceEvent) -> Verdict:
        stats = self.stats
        now = event.ts

        if not self.limiter.acquire(event.src_ip, now):
            if self.config.rate_drop_to_sandbox:
                return self._sandbox(event, 1, RATE_LIMITED)
            return _RATE_LIMITED_VERDICT

        stats.examined[2] += 1
        if self.blacklist.contains(event.src_ip, now):
            return _BLACKLISTED_VERDICT

        if event.kind == "http":
            stats.examined[4] += 1
            waf = evaluate(self.ruleset, event.body)
            for rid in waf.log_fired:
                stats.waf_log_hits[rid] = stats.waf_log_hits.get(rid, 0) + 1
            if waf.matched:
                return self._sandbox(event, 4, f"waf_rule_{waf.rule_id}", waf.rule_id)
        else:
            stats.examined[3] += 1
            if event.kind == "tcp":
                finding = self.analyzer.observe_tcp(event, now)
            else:
                finding = self.analyzer.observe_udp(event)
            if finding is not None:
                return self._sandbox(event, 3, finding.code, finding.detail)

        return _FORWARD_VERDICT

    # -- stream driver -----------------------------------------------------

    def run_trace(self, lines: Iterable[str], verdict_out: TextIO, strict: bool = True) -> Stats:
        """Process a JSONL trace; one verdict line per event.

        Strict mode aborts on the first malformed or out-of-order line;
        lenient mode skips it and counts it in stats.skipped_lines.
        """
        for line_no, line in enumerate(lines, start=1):
            if not line or line.isspace():
                continue
            try:
                event = parse_trace_event(line, line_no=line_no)
                verdict = self.process_event(event)
            except (TraceParseError, OutOfOrderError):
                if strict:
                    raise
                self.stats.skipped_lines += 1
                continue
            verdict_out.write(serialize_verdict_record(event, verdict) + "\n")
        return self.stats

    def stats_snapshot(self) -> dict:
        """Point-in-time JSON-ready stats with a stable key order."""
        stats = self.stats
        top = sorted(stats.blocked_by_source.items(), key=lambda kv: (-kv[1], kv[0]))
        snapshot: dict = {
            "events": stats.events,
            "verdicts": dict(stats.verdict_totals),
            "layers": {
                str(layer): {"examined": stats.events if layer == 1 else stats.examined[layer],
                             "blocked": blocked}
                for layer, blocked in stats.blocked.items()
            },
            "sandbox_reasons": dict(sorted(stats.sandbox_reasons.items())),
            "waf_log_hits": {str(k): v for k, v in sorted(stats.waf_log_hits.items())},
            "top_offenders": [[ip, count] for ip, count in top[:self.config.top_n]],
            "first_ts": stats.first_ts,
            "last_ts": stats.last_ts,
            "skipped_lines": stats.skipped_lines,
        }
        return snapshot
