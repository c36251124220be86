"""Rule DSL parsing, transforms, and request evaluation."""

import random
from collections import Counter
from urllib.parse import unquote_plus

import pytest

from ddosgate.events import HttpInfo
from ddosgate.trafficgen import Scenario, generate
from ddosgate.waf import (
    PASS,
    SANDBOX_ACTION,
    Ruleset,
    RulesetError,
    WafDecision,
    _TRANSFORM_FNS,
    _split_rule_line,
    apply_transforms,
    default_ruleset,
    evaluate,
    parse_ruleset,
)


def _req(method="GET", uri="/", headers=(("host", "example.test"),), body=b"",
         duration_ms=100):
    return HttpInfo(method, uri, "HTTP/1.1", tuple(headers), body, duration_ms)


def test_transform_urldecode_basics():
    assert apply_transforms("%3Cscript%3E", ("urldecode",)) == "<script>"
    assert apply_transforms("a+b", ("urldecode",)) == "a b"
    assert apply_transforms("%ZZ", ("urldecode",)) == "%ZZ"
    assert apply_transforms("100%", ("urldecode",)) == "100%"
    # each escape is one byte read as latin-1, never a UTF-8 sequence
    assert apply_transforms("%C3%A9", ("urldecode",)) == "\xc3\xa9"
    assert apply_transforms("a%2Bb", ("urldecode",)) == "a+b"
    assert apply_transforms("é%41", ("urldecode",)) == "éA"
    assert apply_transforms("%4", ("urldecode",)) == "%4"


def test_transform_urldecode_is_single_pass():
    # %25 decodes to '%', but the result is not decoded again
    assert apply_transforms("%253Cscript%253E", ("urldecode",)) == "%3Cscript%3E"


def test_urldecode_agrees_with_unquote_plus_on_random_strings():
    rng = random.Random(2718)
    alphabet = "%%%++0123456789abcdefABCDEFgG é\u0100\u0663\U0001f600"
    for _ in range(20000):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randrange(14)))
        assert apply_transforms(value, ("urldecode",)) == unquote_plus(value, encoding="latin-1"), value


def test_transform_lowercase_is_ascii_only():
    assert apply_transforms("ABC", ("lowercase",)) == "abc"
    assert apply_transforms("ÉÈ", ("lowercase",)) == "ÉÈ"
    # only A-Z map: str.lower() would turn İ into "i̇" and the Kelvin sign into "k"
    assert apply_transforms("İ\u212aK", ("lowercase",)) == "İ\u212ak"
    assert apply_transforms("ßSS", ("lowercase",)) == "ßss"
    # the decoded value is non-ASCII although the raw one is ASCII
    assert apply_transforms("%C3K", ("urldecode", "lowercase")) == "Ãk"
    assert apply_transforms("%C3K", ("lowercase", "urldecode")) == "Ãk"


def test_transforms_apply_left_to_right():
    assert apply_transforms("%41BC", ("urldecode", "lowercase")) == "abc"
    # other order: lowercase first leaves %41 to decode into 'A'
    assert apply_transforms("%41BC", ("lowercase", "urldecode")) == "Abc"


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
        decision = evaluate(rs, hit)
        assert decision.matched and decision.rule_id == rule_id, rule_id
        assert not evaluate(rs, miss).matched, rule_id


def test_rule_1008_logs_without_blocking():
    decision = evaluate(default_ruleset(), _req(headers=(("user-agent", "sqlmap/1.7"),)))
    assert not decision.matched
    assert decision.log_fired == (1008,)


def test_log_fires_then_sandbox_short_circuits():
    text = ('RULE 1 any_header lowercase contains "sqlmap" log\n'
            'RULE 2 uri none contains "/x" sandbox\n'
            'RULE 3 uri none contains "/" sandbox\n')
    rs = parse_ruleset(text)
    decision = evaluate(rs, _req(uri="/x", headers=(("user-agent", "SQLMap"),)))
    assert decision.matched and decision.rule_id == 2
    assert decision.log_fired == (1,)


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
    assert evaluate(rs, _req(uri="/q", body=b"a")) == WafDecision(True, 2, ())
    assert calls == []
    # the spy is wired in: with no body match, rule 3 runs
    assert evaluate(rs, _req(uri="/q", body=b"b")) == PASS
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
    decisions = [evaluate(rs, _req(uri=f"/%61{n}c", body=f"%62{n}".encode())) for n in range(3)]
    assert decisions == [WafDecision(False, None, (1, 2, 3))] * 3
    # one call per request on each of the two candidates
    assert calls == Counter({f"/%61{n}c": 1 for n in range(3)} | {f"%62{n}": 1 for n in range(3)})


def test_any_header_tests_every_value():
    rs = parse_ruleset('RULE 1 any_header none contains "evil" sandbox\n')
    req = _req(headers=(("a", "fine"), ("b", "also fine"), ("c", "evil bit set")))
    assert evaluate(rs, req).matched


def test_named_header_case_insensitive():
    rs = parse_ruleset('RULE 1 header:User-Agent none contains "bot" sandbox\n')
    assert evaluate(rs, _req(headers=(("user-agent", "botnet"),))).matched
    assert not evaluate(rs, _req(headers=(("x-user-agent", "botnet"),))).matched


def test_matches_operator_uses_regex_search():
    rs = parse_ruleset(r'RULE 1 uri none matches "id=[0-9]+--" sandbox')
    assert evaluate(rs, _req(uri="/p?id=15--")).matched
    assert not evaluate(rs, _req(uri="/p?id=x--")).matched


def test_method_target():
    rs = parse_ruleset('RULE 1 method none contains "TRACE" sandbox\n')
    assert evaluate(rs, _req(method="TRACE")).matched
    assert not evaluate(rs, _req(method="GET")).matched


def test_evaluation_is_pure():
    rs = default_ruleset()
    req = _req(uri="/p?id=1%20union%20select%202")
    assert evaluate(rs, req) == evaluate(rs, req)


def test_empty_ruleset_passes_everything():
    rs = parse_ruleset("")
    assert len(rs) == 0
    assert not evaluate(rs, _req(uri="/anything")).matched


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


def _reference_apply_transforms(value, transforms):
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
        value = _reference_apply_transforms(candidate, rule.transforms)
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
    """Pure; identical inputs always give identical decisions."""
    log_fired = []
    for rule in ruleset:
        if _reference_rule_matches(rule, request):
            if rule.action == SANDBOX_ACTION:
                return WafDecision(True, rule.id, tuple(log_fired))
            if rule.id not in log_fired:
                log_fired.append(rule.id)
    if not log_fired:
        return PASS
    return WafDecision(False, None, tuple(log_fired))


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
    assert [evaluate(rules, request) for request in corpus] == [
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
            assert evaluate(compiled, request) == expected, (rules, request)
            outcomes[expected.matched, bool(expected.log_fired)] += 1
    # every target, transform order, operator and action, and every outcome, occurred
    assert {target for target, *_ in seen} == {"method", "uri", "any_header", "header", "body", "duration_ms"}
    assert {transforms for _, transforms, *_ in seen} >= {(), ("lowercase",), ("urldecode",),
                                                           ("lowercase", "urldecode"), ("urldecode", "lowercase")}
    assert {op for *_, op, _ in seen} == {"contains", "matches", "len_gt", "num_gt"}
    assert {action for *_, action in seen} == {"sandbox", "log"}
    assert len(outcomes) == 4 and min(outcomes.values()) >= 1_000, outcomes
