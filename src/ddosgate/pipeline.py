"""Four-layer zero-trust pipeline over an ordered event stream.

Per event, short-circuiting on the first non-pass:

  L1  token-bucket rate limit   -> drop_rate_limited
  L2  CIDR blacklist            -> reject_blacklisted
  L3  tcp/udp header analysis   -> sandbox(finding)
  L4  http WAF rules            -> sandbox(waf_rule_<id>)
  --  otherwise                 -> forward

HTTP events skip L3 and packet events skip L4; every event passes L1 and
L2. One verdict line is written per consumed event, forwards included,
so the verdict log is a complete audit trail. ``process_event`` decides
only an event that a trace line can carry: an event given without its
line is written by ``serialize_trace_event``, which refuses every event
the reader refuses, before any layer sees it. Each sandboxed event is
persisted to the capture sink as its line before its verdict is emitted.

``run_trace`` reads each line with ``parse_trace_event``, the one
reader: it reads a canonical line itself and gives every other line to
``events._parse_json``. ``process_event`` runs the layers as one chain,
each through its public entry point; L3 and L4 answer in their own
shared verdicts, or None for forward.

All timing derives from event timestamps; the blacklist refresh clock is
the trace clock.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence, TextIO

from . import blacklist as bl
from .analyzer import Analyzer, AnalyzerConfig
from .events import (
    _MAX_TS,
    _dumps,
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
    """Append-only capture of sandboxed traffic: the event's trace line,
    as it arrived but without trailing whitespace, the reason it was
    caught, and the verdict's trace time as json writes the event's ts."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def capture(self, event: TraceEvent, reason: str, line: str) -> None:
        line = line.rstrip(" \t\n\r")
        ts = event.ts
        # repr writes a plain finite float as json does, at a fraction of the
        # encoder's cost; json writes NaN, inf, a float subclass and an int
        # its own way
        ts_text = repr(ts) if type(ts) is float and -_MAX_TS <= ts <= _MAX_TS else _dumps(ts)
        self._stream.write(f'{{"event":{line},"reason":{_dumps(reason)},"verdict_ts":{ts_text}}}\n')


class Stats:
    __slots__ = ("tally", "blocked_by_source", "waf_log_hits", "first_ts", "skipped_lines")

    def __init__(self):
        # kind -> verdict -> events: the one source of every verdict, layer and reason count.
        # Keyed by kind first, so that an event hashes only its shared verdict.
        self.tally: defaultdict[str, defaultdict[Verdict, int]] = defaultdict(lambda: defaultdict(int))
        self.blocked_by_source: defaultdict[str, int] = defaultdict(int)
        self.waf_log_hits: defaultdict[int, int] = defaultdict(int)
        self.first_ts: float | None = None
        self.skipped_lines = 0


class _EngineFields(NamedTuple):
    limiter: LimiterConfig = LimiterConfig()
    analyzer: AnalyzerConfig = AnalyzerConfig()
    rate_drop_to_sandbox: bool = False
    blacklist_path: str | None = None
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
                 sandbox: SandboxSink | None = None):
        self.config = config or EngineConfig()
        self.limiter = LimiterTable(self.config.limiter)
        self.blacklist = bl.Blacklist(self.config.blacklist_path, self.config.blacklist_refresh_secs)
        self.analyzer = Analyzer(self.config.analyzer)
        # the one L1 verdict, shared by every event the limiter refuses
        self._rate_limited_verdict = Verdict(
            SANDBOX if self.config.rate_drop_to_sandbox else DROP_RATE_LIMITED, 1, RATE_LIMITED)
        if ruleset is None:
            ruleset = default_ruleset()
        self.ruleset = ruleset if isinstance(ruleset, Ruleset) else Ruleset(ruleset)
        self.sandbox = sandbox
        self.stats = Stats()
        self._last_ts = 0.0

    # -- verdicts ----------------------------------------------------------

    def process_event(self, event: TraceEvent, line: str | None = None) -> Verdict:
        """Apply the layers in order; exactly one verdict per event.

        First the clock: ts must be finite and no earlier than the previous
        event's, so the layers may rely on non-decreasing time. ``line`` is
        the line the event was parsed from, and is taken as its line. An
        event given without one must be one a trace line can carry: it is
        written by serialize_trace_event, whose ValueError is raised as
        "event N: <field> ...". A refused event changes no state. A
        sandboxed event is captured as its line.
        """
        now = event.ts
        if not self._last_ts <= now <= _MAX_TS:
            raise OutOfOrderError(event.event_id, now, self._last_ts)
        if line is None:
            try:
                line = serialize_trace_event(event)
            except ValueError as exc:
                raise ValueError(f"event {event.event_id}: {exc}") from None
        self._last_ts = now
        stats = self.stats
        if stats.first_ts is None:
            stats.first_ts = now

        if not self.limiter.acquire(event.src_ip, now):
            verdict = self._rate_limited_verdict
        elif self.blacklist.contains(event.src_ip, now):
            verdict = _BLACKLISTED_VERDICT
        elif event.kind == "http":
            verdict = evaluate(self.ruleset, event.body, stats.waf_log_hits) or _FORWARD_VERDICT
        elif event.kind == "tcp":
            verdict = self.analyzer.observe_tcp(event) or _FORWARD_VERDICT
        else:
            verdict = self.analyzer.observe_udp(event) or _FORWARD_VERDICT

        if verdict.decision == SANDBOX and self.sandbox is not None:
            self.sandbox.capture(event, verdict.reason, line)  # persist before the verdict is written
        stats.tally[event.kind][verdict] += 1
        if verdict.decision != FORWARD:
            stats.blocked_by_source[event.src_ip] += 1
        return verdict

    # -- stream driver -----------------------------------------------------

    def run_trace(self, lines: Iterable[str], verdict_out: TextIO, strict: bool = True) -> Stats:
        """Process a JSONL trace; one verdict line per event.

        Strict mode aborts on the first malformed or out-of-order line;
        lenient mode skips it and counts it in stats.skipped_lines. A
        blank or whitespace-only line is neither: it gets no verdict and
        no count, and line numbers count it.
        """
        # Bound per call, not at import, so a wrapper put on the module or
        # the class before the call is the one called.
        parse, process, serialize, write = (parse_trace_event, self.process_event,
                                            serialize_verdict_record, verdict_out.write)
        line_no = 0
        for line in lines:
            line_no += 1
            try:
                event = parse(line, line_no)
                verdict = process(event, line)
            except (TraceParseError, OutOfOrderError):
                if not line or line.isspace():  # parse refuses every blank line
                    continue
                if strict:
                    raise
                self.stats.skipped_lines += 1
                continue
            write(serialize(event, verdict) + "\n")
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
        for kind, by_verdict in stats.tally.items():
            for (decision, layer, reason, _), count in by_verdict.items():
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
