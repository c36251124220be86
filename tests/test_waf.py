"""Rule DSL parsing, transforms, and request evaluation."""

import builtins
import io
import os
import random
import re
import tokenize
from collections import Counter
from urllib.parse import unquote_plus

import pytest

from ddosgate import waf
from ddosgate.events import SANDBOX, HttpInfo, Verdict, parse_trace_event
from ddosgate.trafficgen import Scenario, generate
from ddosgate.waf import (
    SANDBOX_ACTION,
    Rule,
    Ruleset,
    RulesetError,
    _TRANSFORM_FNS,
    _split_rule_line,
    default_ruleset,
    evaluate,
    parse_ruleset,
)
from test_golden import REFERENCE, workloads


def _req(method="GET", uri="/", headers=(("host", "example.test"),), body=b"",
         duration_ms=100):
    return HttpInfo(method, uri, "HTTP/1.1", tuple(headers), body, duration_ms)


class _Tally(Counter):
    """A log_hits map that also lists the ids in the order they were counted."""

    def __init__(self):
        super().__init__()
        self.order = []

    def __setitem__(self, rule_id, count):
        self.order.append(rule_id)
        super().__setitem__(rule_id, count)


def _decide(ruleset, request):
    """The compiled function's answer as (rule id or None, ids counted in
    order), the shape ``_reference_evaluate`` answers in. A sandbox answer
    must be that rule's verdict."""
    tally = _Tally()
    verdict = evaluate(ruleset, request, tally)
    if verdict is None:
        return None, tuple(tally.order)
    assert verdict == Verdict(SANDBOX, 4, f"waf_rule_{verdict.rule_id}", verdict.rule_id)
    return verdict.rule_id, tuple(tally.order)


_URLDECODE = _TRANSFORM_FNS["urldecode"]
_LOWERCASE = _TRANSFORM_FNS["lowercase"]


def test_transform_urldecode_basics():
    assert _URLDECODE("%3Cscript%3E") == "<script>"
    assert _URLDECODE("a+b") == "a b"
    assert _URLDECODE("%ZZ") == "%ZZ"
    assert _URLDECODE("100%") == "100%"
    # each escape is one byte read as latin-1, never a UTF-8 sequence
    assert _URLDECODE("%C3%A9") == "\xc3\xa9"
    assert _URLDECODE("a%2Bb") == "a+b"
    assert _URLDECODE("é%41") == "éA"
    assert _URLDECODE("%4") == "%4"


def test_transform_urldecode_is_single_pass():
    # %25 decodes to '%', but the result is not decoded again
    assert _URLDECODE("%253Cscript%253E") == "%3Cscript%3E"


def test_urldecode_agrees_with_unquote_plus_on_random_strings():
    rng = random.Random(2718)
    alphabet = "%%%++0123456789abcdefABCDEFgG é\u0100\u0663\U0001f600"
    for _ in range(20000):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randrange(14)))
        assert _URLDECODE(value) == unquote_plus(value, encoding="latin-1"), value


def test_transform_lowercase_is_ascii_only():
    assert _LOWERCASE("ABC") == "abc"
    assert _LOWERCASE("ÉÈ") == "ÉÈ"
    # only A-Z map: str.lower() would turn İ into "i̇" and the Kelvin sign into "k"
    assert _LOWERCASE("İ\u212aK") == "İ\u212ak"
    assert _LOWERCASE("ßSS") == "ßss"
    # a decoded value is non-ASCII although the raw one is ASCII: %C3K is ÃK
    assert _LOWERCASE(_URLDECODE("%C3K")) == "Ãk"


def test_transforms_apply_left_to_right():
    request = _req(uri="%41BC")
    decode_first, lower_first = (parse_ruleset(f'RULE 1 uri {transforms} matches "^abc$" sandbox')
                                 for transforms in ("urldecode,lowercase", "lowercase,urldecode"))
    assert _decide(decode_first, request) == (1, ())
    # other order: lowercase first leaves %41 to decode into 'A'
    assert _decide(lower_first, request) == (None, ())


def test_parse_single_rule():
    rs = parse_ruleset('RULE 1001 uri lowercase,urldecode contains "union select" sandbox\n')
    assert len(rs) == 1
    rule = rs[0]
    assert rule.id == 1001
    assert rule.target == "uri"
    assert rule.transforms == ("lowercase", "urldecode")
    assert rule.arg == "union select"


def test_parse_numeric_rule_with_bare_argument():
    rs = parse_ruleset("RULE 2 duration_ms none num_gt 30000 sandbox\n")
    assert rs[0].arg_num == 30000
    assert type(rs[0].arg_num) is int


def test_parse_comments_and_blanks_ignored():
    rs = parse_ruleset("# heading\n\nRULE 1 uri none contains \"x\" log\n")
    assert len(rs) == 1


def test_duplicate_id_error_names_both_lines():
    text = 'RULE 7 uri none contains "a" sandbox\nRULE 7 uri none contains "b" sandbox\n'
    with pytest.raises(RulesetError) as exc:
        parse_ruleset(text)
    assert exc.value.line_no == 2
    assert "line 1" in str(exc.value)


def test_parse_errors_carry_line_numbers():
    cases = [
        'RULE 1 gopher none contains "x" sandbox',        # unknown target
        'RULE 1 uri none glob "x" sandbox',               # unknown operator
        'RULE 1 uri rot13 contains "x" sandbox',          # unknown transform
        'RULE 1 uri none matches "[" sandbox',            # bad regex
        'RULE 1 uri none num_gt 5 sandbox',               # op/target mismatch
        'RULE 1 duration_ms none contains "x" sandbox',   # op/target mismatch
        'RULE 1 uri none contains "x" explode',           # unknown action
        'RULE 0 uri none contains "x" sandbox',           # non-positive id
        'RULE 1 uri none contains "x',                    # unterminated quote
        'RULE 1 uri none contains sandbox',               # wrong field count
        'RULE 1 uri none len_gt "many" sandbox',          # non-numeric argument
        # numbers are ASCII digits only: each of these used to parse (RULE ١
        # as rule 1, the arguments as floats) or end in a traceback
        'RULE ² uri none contains "x" sandbox',
        'RULE ١ uri none contains "x" sandbox',
        'RULE ' + '9' * 5000 + ' uri none contains "x" sandbox',
        'RULE 1 uri none len_gt ' + '9' * 5000 + ' sandbox',
        "RULE 1 uri none len_gt nan sandbox",
        "RULE 1 uri none len_gt inf sandbox",
        "RULE 1 uri none len_gt 1e400 sandbox",
        "RULE 1 duration_ms none num_gt nan sandbox",
        "RULE 1 duration_ms none num_gt 5.0 sandbox",
        "RULE 1 uri none len_gt -1 sandbox",
        "RULE 1 uri none len_gt 1e3 sandbox",
        'RULE 1 uri none len_gt " 5" sandbox',
        # regexes too large or nested too deep to compile
        'RULE 1 uri none matches "a{99999999999}" sandbox',
        'RULE 1 uri none matches "' + "(" * 5000 + ")" * 5000 + '" sandbox',
    ]
    for line in cases:
        with pytest.raises(RulesetError) as exc:
            parse_ruleset("# pad\n" + line + "\n")
        assert exc.value.line_no == 2, line


def test_quoted_argument_escapes():
    rs = parse_ruleset(r'RULE 1 uri none contains "say \"hi\" \\ done" sandbox')
    assert rs[0].arg == 'say "hi" \\ done'


def test_default_ruleset_shape():
    rs = default_ruleset()
    assert [r.id for r in rs] == [1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008]
    assert [r.action for r in rs] == ["sandbox"] * 7 + ["log"]


_DEFAULT_RULE_PAIRS = [
    (1001, _req(uri="/p?id=1%20UNION%20SELECT%20x"), _req(uri="/p?id=1%20UNION%20SELEC%20x")),
    (1002, _req(uri="/s?q=%3Cscript%3Ealert(1)"), _req(uri="/s?q=%3Cscrip%3E")),
    (1003, _req(uri="/a/../../etc/passwd"), _req(uri="/a/..%2F..%2Fetc/passwd")),
    (1004, _req(method="POST", body=b"pw=%27%20OR%201%3D1--"),
           _req(method="POST", body=b"pw=%27%20OR%201%3D2--")),
    (1005, _req(uri="/" + "a" * 2100), _req(uri="/" + "a" * 2047)),
    (1006, _req(duration_ms=45000), _req(duration_ms=30000)),
    (1007, _req(headers=(("x-probe", "() { :; }; id"),)), _req(headers=(("x-probe", "() }"),))),
]


def test_default_rules_match_and_near_miss():
    rs = default_ruleset()
    for rule_id, hit, miss in _DEFAULT_RULE_PAIRS:
        assert _decide(rs, hit) == (rule_id, ()), rule_id
        assert _decide(rs, miss) == (None, ()), rule_id


def test_each_sandbox_rule_answers_every_request_it_catches_with_one_verdict():
    rs = default_ruleset()
    requests = [hit for _, hit, _ in _DEFAULT_RULE_PAIRS] * 2 + _corpus()
    caught: dict[int, list] = {}
    for request in requests:
        verdict = evaluate(rs, request, Counter())
        if verdict is not None:
            caught.setdefault(verdict.rule_id, []).append(verdict)
    assert set(caught) == {1001, 1002, 1003, 1004, 1005, 1006, 1007}
    for rule_id, verdicts in caught.items():
        assert verdicts[0] == Verdict(SANDBOX, 4, f"waf_rule_{rule_id}", rule_id)
        assert len(verdicts) >= 2 and all(verdict is verdicts[0] for verdict in verdicts), rule_id


def test_rule_1008_logs_without_blocking():
    log_hits = Counter({1008: 4})
    assert evaluate(default_ruleset(), _req(headers=(("user-agent", "sqlmap/1.7"),)), log_hits) is None
    assert log_hits == {1008: 5}  # added into the caller's count


def test_log_fires_then_sandbox_short_circuits():
    text = ('RULE 1 any_header lowercase contains "sqlmap" log\n'
            'RULE 2 uri none contains "/x" sandbox\n'
            'RULE 3 uri none contains "/" sandbox\n')
    rs = parse_ruleset(text)
    assert _decide(rs, _req(uri="/x", headers=(("user-agent", "SQLMap"),))) == (2, (1,))


def test_a_log_rule_counts_once_per_request_and_rules_that_share_an_id_each_count():
    rules = parse_ruleset('RULE 1 any_header none contains "x" log\n'
                          'RULE 2 uri none contains "a" log\n'
                          'RULE 3 header:h none matches "x" log\n')
    request = _req(uri="/a", headers=(("h", "x"), ("h", "xx")))
    # a rule over values stops at its first match
    assert _decide(rules, request) == (None, (1, 2, 3))
    # built by hand (parse_ruleset refuses a repeated id): each rule adds 1
    twins = Ruleset([rules[0], rules[1]._replace(id=1), rules[2]._replace(id=1)])
    log_hits = Counter()
    assert evaluate(twins, request, log_hits) is None
    assert log_hits == {1: 3}
    assert _decide(twins, request) == _reference_evaluate(twins, request) == (None, (1, 1, 1))


def test_rules_after_the_deciding_rule_are_not_tested():
    calls = []

    class Spy:
        def search(self, value):
            calls.append(value)
            return None

    rules = parse_ruleset('RULE 1 uri none contains "zzz" log\n'
                          'RULE 2 body none contains "a" sandbox\n'
                          'RULE 3 uri none matches "q" sandbox\n')
    rs = Ruleset(rules[:2] + (rules[2]._replace(pattern=Spy()),))
    assert _decide(rs, _req(uri="/q", body=b"a")) == (2, ())
    assert calls == []
    # the spy is wired in: with no body match, rule 3 runs
    assert _decide(rs, _req(uri="/q", body=b"b")) == (None, ())
    assert calls == ["/q"]


def test_each_candidate_is_derived_once_per_request(monkeypatch):
    calls = Counter()
    urldecode = _TRANSFORM_FNS["urldecode"]

    def counted(value):
        calls[value] += 1
        return urldecode(value)

    monkeypatch.setitem(_TRANSFORM_FNS, "urldecode", counted)
    rs = parse_ruleset('RULE 1 uri lowercase,urldecode contains "a" log\n'
                       'RULE 2 body urldecode contains "b" log\n'
                       'RULE 3 uri lowercase,urldecode matches "c" log\n'
                       'RULE 4 uri lowercase,urldecode len_gt 100 sandbox\n'
                       'RULE 5 body urldecode contains "zzz" sandbox\n')
    decisions = [_decide(rs, _req(uri=f"/%61{n}c", body=f"%62{n}".encode())) for n in range(3)]
    assert decisions == [(None, (1, 2, 3))] * 3
    # one call per request on each of the two candidates
    assert calls == Counter({f"/%61{n}c": 1 for n in range(3)} | {f"%62{n}": 1 for n in range(3)})


def test_any_header_tests_every_value():
    rs = parse_ruleset('RULE 1 any_header none contains "evil" sandbox\n')
    req = _req(headers=(("a", "fine"), ("b", "also fine"), ("c", "evil bit set")))
    assert _decide(rs, req) == (1, ())


def test_named_header_case_insensitive():
    rs = parse_ruleset('RULE 1 header:User-Agent none contains "bot" sandbox\n')
    assert _decide(rs, _req(headers=(("user-agent", "botnet"),))) == (1, ())
    assert _decide(rs, _req(headers=(("x-user-agent", "botnet"),))) == (None, ())


def test_matches_operator_uses_regex_search():
    rs = parse_ruleset(r'RULE 1 uri none matches "id=[0-9]+--" sandbox')
    assert _decide(rs, _req(uri="/p?id=15--")) == (1, ())
    assert _decide(rs, _req(uri="/p?id=x--")) == (None, ())


def test_method_target():
    rs = parse_ruleset('RULE 1 method none contains "TRACE" sandbox\n')
    assert _decide(rs, _req(method="TRACE")) == (1, ())
    assert _decide(rs, _req(method="GET")) == (None, ())


def test_evaluation_is_deterministic():
    rs = default_ruleset()
    for req in (_req(uri="/p?id=1%20union%20select%202", headers=(("user-agent", "sqlmap"),)),
                _req(uri="/p", headers=(("user-agent", "sqlmap"),))):
        first, second = Counter(), Counter()
        assert evaluate(rs, req, first) is evaluate(rs, req, second)
        assert first == second


def test_empty_ruleset_passes_everything():
    rs = parse_ruleset("")
    assert len(rs) == 0
    assert _decide(rs, _req(uri="/anything")) == (None, ())


def _char_loop_split(line, line_no):
    """The character loop that the token regex replaced, kept as an oracle."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i] == '"':
            out = []
            i += 1
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n and line[i + 1] in ('"', "\\"):
                    out.append(line[i + 1])
                    i += 2
                else:
                    out.append(line[i])
                    i += 1
            if i >= n:
                raise RulesetError("unterminated quoted argument", line_no)
            i += 1
            tokens.append('"' + "".join(out))
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


def _tokens_or_error(split, line):
    try:
        return split(line, 4)
    except RulesetError as exc:
        return ("error", str(exc), exc.line_no)


# quotes and backslashes weigh most; the rest are ASCII and Unicode
# whitespace (the loop used str.isspace) and plain or non-ASCII text
_TOKEN_ALPHABET = '""""\\\\\\  \t\n\r\x0b\x1c\x85\xa0 　aZ5_\'é²'


def test_tokenizer_matches_the_character_loop():
    rng = random.Random(20260918)
    for _ in range(20_000):
        line = "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(rng.randrange(24)))
        assert _tokens_or_error(_split_rule_line, line) == _tokens_or_error(_char_loop_split, line), line


def test_numbers_are_ascii_integers():
    rs = parse_ruleset("RULE 007 uri none len_gt 2048 sandbox\n"
                       "RULE 8 duration_ms none num_gt \"30000\" log\n")
    assert [(r.id, r.arg_num) for r in rs] == [(7, 2048), (8, 30000)]
    assert all(type(r.arg_num) is int for r in rs)


# -- differential oracle: the rule-by-rule evaluation the compiled Ruleset replaced

_REFERENCE_ASCII_LOWER = {c: c + 32 for c in range(ord("A"), ord("Z") + 1)}


def _reference_urldecode_once(value):
    if "%" not in value and "+" not in value:
        return value
    # each %XX is one byte, one char; invalid or cut-short escapes stay literal
    return unquote_plus(value, encoding="latin-1")


def _reference_transform(value, transforms):
    for t in transforms:
        if t == "lowercase":
            value = value.translate(_REFERENCE_ASCII_LOWER)
        elif t == "urldecode":
            value = _reference_urldecode_once(value)
    return value


def _reference_candidates(rule, request):
    if rule.target == "uri":
        return (request.uri,)
    if rule.target == "method":
        return (request.method,)
    if rule.target == "body":
        return (request.body.decode("latin-1"),)
    if rule.target == "any_header":
        return tuple(value for _, value in request.headers)
    # header:<name>, case-insensitive on the name, every occurrence tested
    return tuple(value for name, value in request.headers if name.lower() == rule.header_name)


def _reference_rule_matches(rule, request):
    if rule.target == "duration_ms":
        return request.duration_ms > rule.arg_num
    for candidate in _reference_candidates(rule, request):
        value = _reference_transform(candidate, rule.transforms)
        if rule.op == "contains":
            if rule.arg in value:
                return True
        elif rule.op == "matches":
            if rule.pattern.search(value):
                return True
        else:  # len_gt
            if len(value) > rule.arg_num:
                return True
    return False


def _reference_evaluate(ruleset, request):
    """(the deciding sandbox rule's id or None, the id of each log rule
    that matched before it, in file order), as ``_decide`` answers."""
    counted = []
    for rule in ruleset:
        if _reference_rule_matches(rule, request):
            if rule.action == SANDBOX_ACTION:
                return rule.id, tuple(counted)
            counted.append(rule.id)
    return None, tuple(counted)


# Pieces of requests and rule arguments: non-ASCII capitals that str.lower()
# maps (İ, the Kelvin sign) or that must stay (É), ß, whole, cut-short and
# invalid escapes, escapes that decode to non-ASCII, + and %2B.
_PIECES = ["a", "A", "k", "K", "s", "S", "É", "é", "İ", "i", "ß", "\u212a", "%", "%4", "%ZZ",
           "%C3%A9", "%c3", "%2B", "%41", "%3C", "+", " ", "<S", "Select", "Ã", "/"]
_TARGETS = ["method", "uri", "any_header", "header:X-Probe", "header:x-probe", "header:USER-agent",
            "body", "duration_ms"]
_TRANSFORM_LISTS = ["none", "lowercase", "urldecode", "lowercase,urldecode", "urldecode,lowercase",
                    "none,lowercase"]
_PATTERNS = ["^a", "k$", "[A-Z]", "%[0-9A-F]{2}", "é|ß", r"\+", "^$", "(?i)k", "ã", "i\u0307"]
_HEADER_NAMES = ["X-Probe", "x-probe", "X-PROBE", "User-Agent", "user-agent", "host"]


def _text(rng, most):
    return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(most + 1)))


def _quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _random_ruleset(rng):
    lines = []
    for rule_id in range(1, rng.randrange(1, 9) + 1):
        if lines and rng.random() < 0.5:  # share a candidate with an earlier rule
            target, transforms = rng.choice(lines)[2:4]
        else:
            target, transforms = rng.choice(_TARGETS), rng.choice(_TRANSFORM_LISTS)
        if target == "duration_ms":
            op, arg = "num_gt", str(rng.choice([0, 99, 100, 101, 30000, 60000]))
        else:
            op = rng.choice(["contains", "contains", "matches", "len_gt"])
            if op == "contains":
                arg = _quoted(_text(rng, 2))  # may be "", which needs a candidate to match
            elif op == "matches":
                arg = _quoted(rng.choice(_PATTERNS))
            else:
                arg = str(rng.randrange(8))
        action = rng.choice(["sandbox", "log", "log"])
        lines.append(("RULE", str(rule_id), target, transforms, op, arg, action))
    rules = parse_ruleset("\n".join(" ".join(line) for line in lines))
    logs = [rule for rule in rules if rule.action == "log"]
    if logs and rng.random() < 0.25:
        # built by hand: another rule, before or after it, repeats a log rule's id
        twin = rng.choice(rules)._replace(id=rng.choice(logs).id, action="log")
        at = rng.randrange(len(rules) + 1)
        return rules[:at] + (twin,) + rules[at:]
    return tuple(rules)


def _random_request(rng):
    headers = tuple((rng.choice(_HEADER_NAMES), _text(rng, 3)) for _ in range(rng.choice([0, 0, 1, 2, 3, 4])))
    body = _text(rng, 4).encode(rng.choice(["utf-8", "utf-16-le"])) + rng.choice([b"", b"\xff", b"\xc3\xa9", b"\x80K"])
    return HttpInfo(rng.choice(["GET", "get", "POST", "PÖST", "K"]), _text(rng, 5), "HTTP/1.1", headers, body,
                    rng.choice([0, 99, 100, 101, 30000, 30001, 60001]))


def _corpus():
    """The default rules' hits and near misses, and generated benign and attack requests."""
    pairs = [request for _, hit, miss in _DEFAULT_RULE_PAIRS for request in (hit, miss)]
    trace = generate(Scenario("http_attack", seed=7, duration_secs=60.0))
    return pairs + [event.body for event in trace if event.kind == "http"]


def test_compiled_ruleset_decides_as_the_rule_by_rule_reference():
    rules = default_ruleset()
    corpus = _corpus()
    assert len(corpus) > 100
    assert [_decide(rules, request) for request in corpus] == [
        _reference_evaluate(rules, request) for request in corpus]

    rng = random.Random(20261018)
    seen, outcomes = set(), Counter()
    for _ in range(1_000):
        rules = _random_ruleset(rng)
        compiled = Ruleset(rules)
        assert tuple(compiled) == rules
        seen.update((rule.target, rule.transforms, rule.op, rule.action) for rule in rules)
        for _ in range(20):
            request = _random_request(rng)
            expected = _reference_evaluate(rules, request)
            assert _decide(compiled, request) == expected, (rules, request)
            outcomes[expected[0] is not None, bool(expected[1])] += 1
    # every target, transform order, operator and action, and every outcome, occurred
    assert {target for target, *_ in seen} == {"method", "uri", "any_header", "header", "body", "duration_ms"}
    assert {transforms for _, transforms, *_ in seen} >= {(), ("lowercase",), ("urldecode",),
                                                           ("lowercase", "urldecode"), ("urldecode", "lowercase")}
    assert {op for *_, op, _ in seen} == {"contains", "matches", "len_gt", "num_gt"}
    assert {action for *_, action in seen} == {"sandbox", "log"}
    assert len(outcomes) == 4 and min(outcomes.values()) >= 1_000, outcomes


# -- any_header contains reads one text: the header values joined by "\n"

def _any_header(arg, transforms=()):
    return Ruleset([Rule(1, "any_header", None, transforms, "contains", arg, None, None, SANDBOX_ACTION)])


@pytest.mark.parametrize("transforms, arg, values, matched", [
    # the separator keeps two values apart
    ((), "bc", ("ab", "cd"), False),
    (("lowercase",), "bc", ("aB", "Cd"), False),
    # no escape is decoded across two values, nor a + merged into one
    (("urldecode",), "A", ("x%4", "1y"), False),
    (("urldecode",), "A", ("x%41", "y"), True),
    (("urldecode",), "%41", ("x%4", "1y"), False),
    (("urldecode", "lowercase"), " a", ("x+", "a"), False),
    # "" is in every value, but a request with no header has none
    ((), "", (), False),
    (("lowercase", "urldecode"), "", (), False),
    ((), "", ("",), True),
    (("urldecode",), "", ("",), True),
    # an argument that holds "\n" (only a hand-built Rule can) is tested per value
    ((), "b\nc", ("ab", "cd"), False),
    (("lowercase",), "b\nc", ("aB", "Cd"), False),
    ((), "b\nc", ("ab\ncd",), True),
    # lowercase maps A-Z only, also beside a value that is not ASCII
    (("lowercase",), "sqlmap", ("SQLMap", "É"), True),
    (("lowercase",), "é", ("SQLMap", "É"), False),
    (("lowercase",), "k", ("\u212a", "x"), False),
    (("lowercase",), "k", ("\u212a", "K"), True),
])
def test_any_header_contains_boundaries(transforms, arg, values, matched):
    ruleset = _any_header(arg, transforms)
    request = _req(headers=[(f"h{n}", value) for n, value in enumerate(values)])
    assert _decide(ruleset, request) == _reference_evaluate(ruleset, request) == ((1 if matched else None), ())


def test_a_transform_runs_once_per_text_and_never_on_an_empty_one(monkeypatch):
    calls = Counter()
    lowercase = _TRANSFORM_FNS["lowercase"]

    def counted(value):
        calls[value] += 1
        return lowercase(value)

    monkeypatch.setitem(_TRANSFORM_FNS, "lowercase", counted)
    rules = parse_ruleset(waf.DEFAULT_RULESET_TEXT)  # rules 1007 and 1008 share one header text
    headers = (("Host", "A.test"), ("User-Agent", "SQLMap"), ("Accept", ""), ("X-A", "Ã"))
    assert _decide(rules, _req(uri="/P", headers=headers)) == (None, (1008,))
    assert calls == Counter({"/P": 1, "A.test\nSQLMap\n\nÃ": 1})  # the empty body is not transformed


_JOIN_PIECES = ["a", "b", "B", "\n", "%", "%4", "1", "+", " ", "É", "\u212a", "k", "K"]
_JOIN_TRANSFORMS = [(), ("lowercase",), ("urldecode",), ("lowercase", "urldecode"), ("urldecode", "lowercase")]


def _join_text(rng, most):
    return "".join(rng.choice(_JOIN_PIECES) for _ in range(rng.randrange(most + 1)))


def _join_arg(rng, values):
    """Random text, or the end of one value and the start of the next, with or without a "\n" between."""
    if len(values) < 2 or rng.random() < 0.4:
        return _join_text(rng, 3)
    i = rng.randrange(len(values) - 1)
    return values[i][-rng.randrange(1, 3):] + rng.choice(["", "\n"]) + values[i + 1][:rng.randrange(1, 3)]


def test_any_header_contains_decides_per_value_on_random_requests():
    rng = random.Random(2029)
    near = Counter()  # arguments in no value, that a looser joined text would hold
    for _ in range(2_000):
        values = [_join_text(rng, 4) for _ in range(rng.randrange(4))]
        request = _req(headers=[("h", value) for value in values])
        rules = [Rule(rule_id, "any_header", None, rng.choice(_JOIN_TRANSFORMS), "contains",
                      _join_arg(rng, values), None, None, rng.choice(["sandbox", "log", "log"]))
                 for rule_id in range(1, rng.randrange(1, 5) + 1)]
        assert _decide(Ruleset(rules), request) == _reference_evaluate(rules, request), (rules, request)
        for rule in rules:
            transformed = [_reference_transform(value, rule.transforms) for value in values]
            if not any(rule.arg in value for value in transformed):
                near["no headers" if not rule.arg else "glued" if rule.arg in "".join(transformed)
                     else "across" if rule.arg in "\n".join(transformed) else "far"] += 1
    # each looser rule would have matched many of these requests
    assert min(near[case] for case in ("no headers", "glued", "across")) >= 100, near


def test_the_http_mix_benchmark_trace_decides_as_the_reference(bench_inputs_root):
    inputs = workloads.prepare("http_mix", REFERENCE["seed"], bench_inputs_root)
    assert inputs.overrides == []  # the default ruleset
    with open(inputs.trace, encoding="utf-8") as fh:
        requests = [event.body for event in map(parse_trace_event, fh) if event.kind == "http"]
    rules = default_ruleset()
    decisions = [_decide(rules, request) for request in requests]
    assert decisions == [_reference_evaluate(rules, request) for request in requests]
    assert len(requests) == inputs.events
    assert {None, 1001, 1002, 1007} < {rule_id for rule_id, _ in decisions}
    assert any(counted for _, counted in decisions)


def test_each_target_is_read_once_per_request():
    reads, decodes = Counter(), []

    class CountedBody(bytes):
        def decode(self, *args):
            decodes.append(args)
            return super().decode(*args)

    class CountedRequest(HttpInfo):
        __slots__ = ()

        def __getattribute__(self, name):
            reads[name] += 1
            return super().__getattribute__(name)

    targets = ["method", "uri", "body", "any_header", "header:X-A", "header:x-a"]
    lines = [f'RULE {n} {target} {transforms} contains "zzz" log'
             for n, (target, transforms) in enumerate(
                 ((t, tr) for t in targets for tr in ("none", "lowercase", "urldecode,lowercase")), start=1)]
    lines += ["RULE 100 duration_ms none num_gt 5 log", "RULE 101 duration_ms none num_gt 7 log",
              'RULE 102 body none len_gt 1 log', 'RULE 103 body urldecode matches "b" log']
    rules = parse_ruleset("\n".join(lines))
    fields = ("GET", "/a", "HTTP/1.1", (("X-A", "1"), ("b", "2")), b"%62", 9)
    decision = _decide(rules, CountedRequest(*fields[:4], CountedBody(fields[4]), fields[5]))
    assert decision == _reference_evaluate(rules, HttpInfo(*fields)) == (None, (100, 101, 102, 103))
    assert decodes == [("latin-1",)]
    assert reads == Counter(["method", "uri", "headers", "body", "duration_ms"])


# Text that would change the meaning of Python source if it were written
# into it: quotes, backslashes, newlines, format fields and a statement.
_HOSTILE = ['"', "'", "\\", '"""', "'''", "\n", "\r\n", "{}", "{0}", "%s", "\\n", "\\\\",
            '__import__("os").system("x")#', "')\n    return 1#", '"); __import__("os").system("x"); ("']


def test_rule_text_is_bound_as_data_never_as_source(monkeypatch):
    sources = []  # the source of every ruleset compiled below

    def spy(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(waf, "compile", spy, raising=False)
    monkeypatch.setattr(os, "system", lambda command: pytest.fail(f"ran {command!r}"))
    # a header:<name> token holds no whitespace and starts with no quote
    names = ["".join(c for c in text if not c.isspace()).lstrip('"') + str(n) for n, text in enumerate(_HOSTILE)]
    rules = []
    for n, (text, name) in enumerate(zip(_HOSTILE, names)):
        if "\n" not in text:  # a rule line cannot hold a newline
            rules += parse_ruleset(f"RULE {3 * n + 3} uri none contains {_quoted(text)} log\n"
                                   f"RULE {3 * n + 4} header:{name} none contains {_quoted(text)} log\n"
                                   f"RULE {3 * n + 5} body none matches {_quoted(re.escape(text))} log\n")
        # built by hand: a str id, and a header name with any text
        rules += [Rule(f"{n}{text}", "any_header", None, (), "contains", text, None, None, "log"),
                  Rule(text, "header", text.lower(), (), "matches", text, None, re.compile(re.escape(text)), "log")]
    rules.append(Rule('1") or True or ("', "uri", None, (), "contains", "\n", None, None, SANDBOX_ACTION))
    ruleset = Ruleset(rules)
    requests = [_req(uri=f"/{text}", headers=((text, text), (name, text)), body=text.encode("latin-1"))
                for text, name in zip(_HOSTILE, names)]
    requests.append(_req(uri="/plain", headers=(("a", "b"),), body=b"c"))
    decisions = [_decide(ruleset, request) for request in requests]
    assert decisions == [_reference_evaluate(ruleset, request) for request in requests]
    # each text matches only as itself
    assert [rule_id is not None for rule_id, _ in decisions] == ["\n" in text for text in _HOSTILE] + [False]
    for (_, counted), text in zip(decisions, _HOSTILE):
        assert len(counted) >= (2 if "\n" in text else 5), text
    assert decisions[-1] == (None, ())
    # the source holds no string but the body's codec, no number but a
    # count's step, and only fixed names besides the numbered locals and
    # constants
    names, literals = set(), []
    for source in sources:
        before = None
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME and not re.fullmatch(r"_[cv][0-9]+", tok.string):
                names.add(tok.string)
            elif tok.type in (tokenize.STRING, tokenize.NUMBER):
                literals.append((before, tok.string))
            before = tok.string
    assert set(literals) == {("(", '"latin-1"'), ("+=", "1")}
    assert names <= {"def", "evaluate", "request", "method", "uri", "body", "decode", "duration_ms", "headers",
                     "if", "for", "in", "return", "break", "value", "key", "_", "lower", "len", "else",
                     "log_hits", "None"}, names


def _large_ruleset_text(rng, count):
    """``count`` random rules over every target, transform list, op and
    action, with 100 header names. One rule in 50 is a sandbox rule with a
    rare match, so that many requests run through the whole ruleset."""
    lines = []
    for rule_id in range(1, count + 1):
        sandbox = rng.random() < 0.02
        target = rng.choice(_TARGETS + [f"header:H-{rng.randrange(100)}"])
        if target == "duration_ms":
            op, arg = "num_gt", str(rng.choice([99, 100, 30000, 60000]))
        else:
            op = rng.choice(["contains", "contains", "matches", "len_gt"])
            if op == "contains":
                pieces = rng.randint(3, 4) if sandbox else rng.randrange(4)
                arg = _quoted("".join(rng.choice(_PIECES) for _ in range(pieces)))
            elif op == "matches":
                arg = _quoted(rng.choice(_PATTERNS) + ("[Kk]" * 3 if sandbox else ""))
            else:
                arg = str(rng.randrange(30, 40) if sandbox else rng.randrange(40))
        action = "sandbox" if sandbox else "log"
        lines.append(f"RULE {rule_id} {target} {rng.choice(_TRANSFORM_LISTS)} {op} {arg} {action}")
    return "\n".join(lines) + "\n"


def test_a_large_ruleset_compiles_and_decides_as_the_reference(tmp_path, capsys):
    from ddosgate.cli import main

    rng = random.Random(5000)
    text = _large_ruleset_text(rng, 5_000)
    rules = parse_ruleset(text)
    assert len(rules) == 5_000
    assert {rule.target for rule in rules} == {"method", "uri", "any_header", "header", "body", "duration_ms"}
    assert {rule.transforms for rule in rules} == {(), ("lowercase",), ("urldecode",),
                                                   ("lowercase", "urldecode"), ("urldecode", "lowercase")}
    assert {(rule.op, rule.action) for rule in rules} == {
        (op, action) for op in ("contains", "matches", "len_gt", "num_gt") for action in ("sandbox", "log")}
    corpus = [request for _, hit, miss in _DEFAULT_RULE_PAIRS for request in (hit, miss)]
    corpus += [_random_request(rng) for _ in range(120)]
    decisions = [_decide(rules, request) for request in corpus]
    assert decisions == [_reference_evaluate(rules, request) for request in corpus]
    passed = sum(rule_id is None for rule_id, _ in decisions)
    assert 10 <= passed <= len(corpus) - 10  # many requests ran through all 5,000 rules, many stopped early
    path = tmp_path / "large.rules"
    path.write_text(text, encoding="utf-8")
    assert main(["check", "--ruleset", str(path)]) == 0
    assert capsys.readouterr().out == "5000 rules\n"
