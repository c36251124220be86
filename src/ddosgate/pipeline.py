"""Four-layer zero-trust pipeline over an ordered event stream.

Per event, short-circuiting on the first non-pass:

  L1  token-bucket rate limit   -> drop_rate_limited
  L2  CIDR blacklist            -> reject_blacklisted
  L3  tcp/udp header analysis   -> sandbox(finding)
  L4  http WAF rules            -> sandbox(waf_rule_<id>)
  --  otherwise                 -> forward

HTTP events skip L3 and packet events skip L4; every event passes L1 and
L2. One verdict line is written per consumed event, forwards included,
so the verdict log is a complete audit trail. ``process_event`` persists
each sandboxed event to the capture sink before its verdict is emitted.

All timing derives from event timestamps; the blacklist refresh clock is
the trace clock.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

from . import blacklist as bl
from .analyzer import Analyzer, AnalyzerConfig
from .events import (
    _MAX_TS,
    _dumps,
    _event_json,
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
from .waf import SANDBOX_ACTION, Rule, Ruleset, default_ruleset, evaluate

RATE_LIMITED = "rate_limited"
BLACKLISTED = "blacklisted"

# The verdicts that carry nothing from the event are shared, not rebuilt per event.
_RATE_LIMITED_VERDICT = Verdict(DROP_RATE_LIMITED, 1, RATE_LIMITED)
_RATE_LIMITED_SANDBOX_VERDICT = Verdict(SANDBOX, 1, RATE_LIMITED)
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
    """Append-only capture of sandboxed traffic: the event as
    serialize_trace_event writes it (for the event just read from a
    canonical line, that line without trailing whitespace), the reason it
    was caught, and the trace time of the verdict. The engine trusts a
    library caller's event, so one the writer refuses, such as one from
    an address that is not a dotted quad, is captured with its fields as
    given."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def capture(self, event: TraceEvent, reason: str) -> None:
        try:
            line = serialize_trace_event(event)
        except ValueError:
            line = _event_json(event)
        self._stream.write('{"event":%s,"reason":%s,"verdict_ts":%r}\n' % (line, _dumps(reason), event.ts))


class Stats:
    __slots__ = ("tally", "blocked_by_source", "waf_log_hits", "first_ts", "skipped_lines")

    def __init__(self):
        # (kind, verdict) -> events: the one source of every verdict, layer and reason count
        self.tally: defaultdict[tuple[str, Verdict], int] = defaultdict(int)
        self.blocked_by_source: defaultdict[str, int] = defaultdict(int)
        self.waf_log_hits: defaultdict[int, int] = defaultdict(int)
        self.first_ts: float | None = None
        self.skipped_lines = 0


class _EngineFields(NamedTuple):
    limiter: LimiterConfig = LimiterConfig()
    analyzer: AnalyzerConfig = AnalyzerConfig()
    rate_drop_to_sandbox: bool = False
    blacklist_locator: str | None = None  # file path or http(s) URL
    blacklist_refresh_secs: float = 300.0
    top_n: int = 10


class EngineConfig(_EngineFields):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __init__(self, *_args, **_kwargs):
        if self.top_n < 0:
            raise ValueError("top_n must not be negative")
        if not self.blacklist_refresh_secs > 0:
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
        # rule id -> the one verdict of each sandbox rule, shared by every request it catches
        self._waf_verdicts = {rule.id: Verdict(SANDBOX, 4, f"waf_rule_{rule.id}", rule.id)
                              for rule in self.ruleset if rule.action == SANDBOX_ACTION}
        self.sandbox = sandbox
        self.stats = Stats()
        self._last_ts = 0.0

    # -- verdicts ----------------------------------------------------------

    def process_event(self, event: TraceEvent) -> Verdict:
        """Apply the layers in order; exactly one verdict per event.

        The one clock guard: ts must be finite and no earlier than the
        previous event's, so the layers may rely on non-decreasing time.
        Apart from that guard a library caller's event is trusted: the
        layers decide on its fields as given, and it is captured as given
        where serialize_trace_event refuses it.
        """
        if not self._last_ts <= event.ts <= _MAX_TS:
            raise OutOfOrderError(event.event_id, event.ts, self._last_ts)
        self._last_ts = event.ts
        stats = self.stats
        if stats.first_ts is None:
            stats.first_ts = event.ts

        verdict = self._decide(event)

        if verdict.decision == SANDBOX and self.sandbox is not None:
            self.sandbox.capture(event, verdict.reason)  # persist before the verdict is written
        stats.tally[(event.kind, verdict)] += 1
        if verdict.decision != FORWARD:
            stats.blocked_by_source[event.src_ip] += 1
        return verdict

    def _decide(self, event: TraceEvent) -> Verdict:
        now = event.ts

        if not self.limiter.acquire(event.src_ip, now):
            if self.config.rate_drop_to_sandbox:
                return _RATE_LIMITED_SANDBOX_VERDICT
            return _RATE_LIMITED_VERDICT

        if self.blacklist.contains(event.src_ip, now):
            return _BLACKLISTED_VERDICT

        if event.kind == "http":
            waf = evaluate(self.ruleset, event.body)
            for rid in waf.log_fired:
                self.stats.waf_log_hits[rid] += 1
            if waf.matched:
                return self._waf_verdicts[waf.rule_id]
        else:
            if event.kind == "tcp":
                verdict = self.analyzer.observe_tcp(event)
            else:
                verdict = self.analyzer.observe_udp(event)
            if verdict is not None:
                return verdict

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
        """Point-in-time JSON-ready stats with a stable key order.

        Every count derives from ``stats.tally``. Each event is examined at
        L1, and ``events`` counts them; each without a layer-1 verdict at L2;
        tcp/udp events at L3 and http events at L4 unless their verdict's
        layer is 1 or 2. ``blocked[layer]`` counts the layer's non-forward
        verdicts, and ``sandbox_reasons`` the sandbox verdicts by reason.
        """
        stats = self.stats
        verdicts = {FORWARD: 0, DROP_RATE_LIMITED: 0, REJECT_BLACKLISTED: 0, SANDBOX: 0}
        reached = {1: 0, 2: 0, 3: 0, 4: 0}
        blocked = {1: 0, 2: 0, 3: 0, 4: 0}
        reasons: defaultdict[str, int] = defaultdict(int)
        for (kind, (decision, layer, reason, _)), count in stats.tally.items():
            verdicts[decision] += count
            reached[1] += count
            if layer != 1:
                reached[2] += count
                if layer != 2:
                    reached[4 if kind == "http" else 3] += count
            if decision != FORWARD:
                blocked[layer] += count
            if decision == SANDBOX:
                reasons[reason] += count
        top = sorted(stats.blocked_by_source.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "events": reached[1],
            "verdicts": verdicts,
            "layers": {str(layer): {"examined": reached[layer], "blocked": blocked[layer]}
                       for layer in blocked},
            "sandbox_reasons": dict(sorted(reasons.items())),
            "waf_log_hits": {str(k): v for k, v in sorted(stats.waf_log_hits.items())},
            "top_offenders": [[ip, count] for ip, count in top[:self.config.top_n]],
            "first_ts": stats.first_ts,
            "last_ts": None if stats.first_ts is None else self._last_ts,
            "skipped_lines": stats.skipped_lines,
        }
