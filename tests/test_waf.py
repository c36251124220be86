"""Rule DSL parsing, transforms, and request evaluation."""

import random

import pytest

from ddosgate.events import HttpInfo
from ddosgate.waf import (
    RulesetError,
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


def test_transform_lowercase_is_ascii_only():
    assert apply_transforms("ABC", ("lowercase",)) == "abc"
    assert apply_transforms("ÉÈ", ("lowercase",)) == "ÉÈ"


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
    assert rs[0].arg_num == 30000.0


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


def test_default_rules_match_and_near_miss():
    rs = default_ruleset()
    pairs = [
        (1001, _req(uri="/p?id=1%20UNION%20SELECT%20x"), _req(uri="/p?id=1%20UNION%20SELEC%20x")),
        (1002, _req(uri="/s?q=%3Cscript%3Ealert(1)"), _req(uri="/s?q=%3Cscrip%3E")),
        (1003, _req(uri="/a/../../etc/passwd"), _req(uri="/a/..%2F..%2Fetc/passwd")),
        (1004, _req(method="POST", body=b"pw=%27%20OR%201%3D1--"),
               _req(method="POST", body=b"pw=%27%20OR%201%3D2--")),
        (1005, _req(uri="/" + "a" * 2100), _req(uri="/" + "a" * 2047)),
        (1006, _req(duration_ms=45000), _req(duration_ms=30000)),
        (1007, _req(headers=(("x-probe", "() { :; }; id"),)), _req(headers=(("x-probe", "() }"),))),
    ]
    for rule_id, hit, miss in pairs:
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

