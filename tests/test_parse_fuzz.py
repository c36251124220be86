"""Seeded mutation fuzz of the trace boundary.

Golden tcp/udp/http lines from the ``mixed`` scenario get one field
mutated each: wrong type, out of range, non-ASCII digits, non-finite
numbers, a deleted key, a bad header pair, or the line cut short. Every
mutated line must either parse or raise TraceParseError naming the
mutated key (a line cut short names none); a strict run
must give each line one verdict or raise TraceParseError or
OutOfOrderError, and a lenient run must account for every line: one
verdict, or one skipped line.
"""

import io
import json
import random

from ddosgate.events import TraceParseError, parse_trace_event, serialize_trace_event
from ddosgate.pipeline import Engine, OutOfOrderError
from ddosgate.trafficgen import Scenario, generate

MUTANTS = 2000
CHUNK = 100  # lines per lenient run, so one huge ts does not starve the rest

_WRONG_TYPE = [None, True, False, "", "x", "7", 1.5, [], {}, [1, 2], {"a": 1}]
_OUT_OF_RANGE = [-1, -2**63, 2**16, 2**32, 2**63, 10**30]
_NON_FINITE = [float("nan"), float("inf"), float("-inf"), "<1e400>"]
# ARABIC-INDIC THREE, SUPERSCRIPT TWO, FULLWIDTH ONE, THAI THREE, CIRCLED ONE
_UNICODE_DIGITS = ["٣", "²", "１", "๓", "①"]
_BAD_PAIRS = [["a"], [1, "b"], "ab", ["a", None], [], ["a", "b", "c"]]


def _golden_lines() -> list[str]:
    events = generate(Scenario("mixed", seed=2024, duration_secs=5.0))
    picked = []
    for kind in ("tcp", "udp", "http"):
        of_kind = [e for e in events if e.kind == kind]
        picked += of_kind[:: max(1, len(of_kind) // 8)][:8]
    return [serialize_trace_event(e) for e in picked]


def _non_ascii_digit(rng: random.Random, value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    digits = [i for i, ch in enumerate(text) if ch.isascii() and ch.isdigit()]
    if not digits:
        return text + rng.choice(_UNICODE_DIGITS)
    i = rng.choice(digits)
    return text[:i] + rng.choice(_UNICODE_DIGITS) + text[i + 1:]


def _mutate(rng: random.Random, line: str) -> tuple[str, str | None]:
    """The mutated line and the key it changed, None for a line cut short."""
    obj = json.loads(line)
    key = rng.choice(sorted(obj))
    how = rng.randrange(7)
    if how == 0:
        obj[key] = rng.choice(_WRONG_TYPE)
    elif how == 1:
        obj[key] = rng.choice(_OUT_OF_RANGE)
    elif how == 2:
        obj[key] = _non_ascii_digit(rng, obj[key])
    elif how == 3:
        obj[key] = rng.choice(_NON_FINITE)
    elif how == 4:
        del obj[key]
    elif how == 5 and obj.get("headers"):
        key = "headers"
        obj[key][rng.randrange(len(obj[key]))] = rng.choice(_BAD_PAIRS)
    else:
        return line[:rng.randrange(1, len(line))], None
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=rng.random() < 0.5)
    return text.replace('"<1e400>"', "1e400"), key


def _mutants() -> list[tuple[str, str | None]]:
    rng = random.Random(3031)
    golden = _golden_lines()
    return [_mutate(rng, rng.choice(golden)) for _ in range(MUTANTS)]


def test_every_mutant_parses_or_raises_trace_parse_error():
    parsed = rejected = 0
    for line, key in _mutants():
        try:
            parse_trace_event(line)
        except TraceParseError as exc:
            rejected += 1
            if key is not None:
                assert exc.field == key, (line, str(exc))
        else:
            parsed += 1
    assert parsed + rejected == MUTANTS
    # both outcomes are exercised, so neither half of the property is vacuous
    assert parsed > MUTANTS // 40 and rejected > MUTANTS // 2


def test_lenient_run_accounts_for_every_mutant():
    lines = [line for line, _ in _mutants()]
    for start in range(0, len(lines), CHUNK):
        chunk = lines[start:start + CHUNK]
        out = io.StringIO()
        stats = Engine().run_trace(chunk, out, strict=False)
        assert len(out.getvalue().splitlines()) + stats.skipped_lines == len(chunk)


def test_strict_run_gives_one_verdict_or_a_documented_error():
    lines = [line for line, _ in _mutants()]
    outcomes = {"verdict": 0, TraceParseError: 0, OutOfOrderError: 0}
    for start in range(0, len(lines), CHUNK):
        engine = Engine()
        out = io.StringIO()
        for line in lines[start:start + CHUNK]:
            written = out.tell()
            try:
                engine.run_trace([line], out)
            except (TraceParseError, OutOfOrderError) as exc:
                outcomes[type(exc)] += 1
                assert out.tell() == written
            else:
                outcomes["verdict"] += 1
                assert out.getvalue()[written:].count("\n") == 1
    assert sum(outcomes.values()) == MUTANTS
    assert min(outcomes.values()) > 0, outcomes
