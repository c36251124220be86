"""Rule-driven HTTP request inspection, the fourth line of defense.

Rules live in a one-line-per-rule DSL::

    RULE <id> <target> <transforms> <op> "<arg>" <action>

targets      method, uri, any_header, header:<name>, body, duration_ms
transforms   comma-separated over none, lowercase, urldecode (left to right)
ops          contains, matches (regex search), len_gt, num_gt
actions      sandbox (block), log (record and keep going)

The argument is double-quoted with backslash escapes for the quote and
the backslash itself, or a bare number. num_gt pairs only with the
numeric target duration_ms; the text operators pair with everything
else. Rules evaluate in file order: the first sandbox match wins, log
matches accumulate without stopping evaluation.

Deliberate weakness, kept for predictability: urldecode runs exactly
once, so double-encoded payloads slip through.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from urllib.parse import unquote_plus

from .events import HttpInfo

SANDBOX_ACTION = "sandbox"
LOG_ACTION = "log"

_TEXT_TARGETS = ("method", "uri", "any_header", "body")
_OPS = ("contains", "matches", "len_gt", "num_gt")
_TRANSFORMS = ("none", "lowercase", "urldecode")

_ASCII_LOWER = {c: c + 32 for c in range(ord("A"), ord("Z") + 1)}


class RulesetError(ValueError):
    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Rule:
    id: int
    target: str  # "header" for header:<name>, otherwise the target word
    header_name: str | None  # lowercased, only for header:<name>
    transforms: tuple[str, ...]
    op: str
    arg: str
    arg_num: float | None  # parsed once for len_gt / num_gt
    pattern: re.Pattern | None  # compiled once for matches
    action: str


@dataclass(frozen=True, slots=True)
class WafDecision:
    matched: bool
    rule_id: int | None  # first sandbox-action rule that fired
    log_fired: tuple[int, ...]  # log-action rules seen before the verdict


PASS = WafDecision(False, None, ())

# Miniature stand-in for a CRS-style ruleset; ids are stable and the
# acceptance corpus exercises a hit and a near-miss for each.
DEFAULT_RULESET_TEXT = """\
# SQL injection in the request line
RULE 1001 uri lowercase,urldecode contains "union select" sandbox
# reflected script tag
RULE 1002 uri lowercase,urldecode contains "<script" sandbox
# path traversal (literal only; encoded dots are caught post-decode by 1001/1002 style rules)
RULE 1003 uri none contains "../" sandbox
# tautology probe in the body
RULE 1004 body lowercase,urldecode contains "' or 1=1" sandbox
# absurdly long request line
RULE 1005 uri none len_gt 2048 sandbox
# slow-delivery request (slowloris-style)
RULE 1006 duration_ms none num_gt 30000 sandbox
# bash function-definition header injection
RULE 1007 any_header lowercase contains "() {" sandbox
# known scanner fingerprint: record, do not block
RULE 1008 any_header lowercase contains "sqlmap" log
"""

def apply_transforms(value: str, transforms: tuple[str, ...]) -> str:
    for t in transforms:
        if t == "lowercase":
            value = value.translate(_ASCII_LOWER)
        elif t == "urldecode":
            value = _urldecode_once(value)
    return value


def _urldecode_once(value: str) -> str:
    if "%" not in value and "+" not in value:
        return value
    # each %XX is one byte, one char; invalid or cut-short escapes stay literal
    return unquote_plus(value, encoding="latin-1")


def _split_rule_line(line: str, line_no: int) -> list[str]:
    """Whitespace tokenizer that keeps one double-quoted token intact."""
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
            tokens.append('"' + "".join(out))  # marker so a quoted "5" differs from bare 5
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


def _parse_rule(tokens: list[str], line_no: int) -> Rule:
    if len(tokens) != 7:
        raise RulesetError(f"expected 7 fields (RULE id target transforms op arg action), got {len(tokens)}", line_no)
    keyword, id_tok, target_tok, transforms_tok, op, arg_tok, action = tokens
    if keyword != "RULE":
        raise RulesetError(f"expected 'RULE', got {keyword!r}", line_no)
    if not id_tok.isdigit() or int(id_tok) < 1:
        raise RulesetError(f"rule id must be a positive integer, got {id_tok!r}", line_no)
    rule_id = int(id_tok)

    header_name = None
    if target_tok.startswith("header:"):
        header_name = target_tok[len("header:"):].lower()
        if not header_name:
            raise RulesetError("header: target needs a header name", line_no)
        target = "header"
    elif target_tok in _TEXT_TARGETS or target_tok == "duration_ms":
        target = target_tok
    else:
        raise RulesetError(f"unknown target {target_tok!r}", line_no)

    transforms = tuple(t for t in transforms_tok.split(","))
    for t in transforms:
        if t not in _TRANSFORMS:
            raise RulesetError(f"unknown transform {t!r}", line_no)
    transforms = tuple(t for t in transforms if t != "none")

    if op not in _OPS:
        raise RulesetError(f"unknown operator {op!r}", line_no)
    if op == "num_gt" and target != "duration_ms":
        raise RulesetError(f"num_gt requires a numeric target, not {target_tok!r}", line_no)
    if op != "num_gt" and target == "duration_ms":
        raise RulesetError(f"duration_ms only supports num_gt, not {op!r}", line_no)

    arg = arg_tok[1:] if arg_tok.startswith('"') else arg_tok
    arg_num = None
    pattern = None
    if op in ("len_gt", "num_gt"):
        try:
            arg_num = float(arg)
        except ValueError:
            raise RulesetError(f"{op} needs a numeric argument, got {arg!r}", line_no) from None
        if op == "len_gt" and arg_num != int(arg_num):
            raise RulesetError("len_gt needs an integer argument", line_no)
    elif op == "matches":
        try:
            pattern = re.compile(arg)
        except re.error as exc:
            raise RulesetError(f"invalid regular expression: {exc}", line_no) from None

    if action not in (SANDBOX_ACTION, LOG_ACTION):
        raise RulesetError(f"unknown action {action!r}", line_no)

    return Rule(id=rule_id, target=target, header_name=header_name, transforms=transforms,
                op=op, arg=arg, arg_num=arg_num, pattern=pattern, action=action)


def parse_ruleset(text: str) -> tuple[Rule, ...]:
    rules = []
    seen_ids: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rule = _parse_rule(_split_rule_line(line, line_no), line_no)
        if rule.id in seen_ids:
            raise RulesetError(f"duplicate rule id {rule.id} (first defined on line {seen_ids[rule.id]})", line_no)
        seen_ids[rule.id] = line_no
        rules.append(rule)
    return tuple(rules)


@cache
def default_ruleset() -> tuple[Rule, ...]:
    return parse_ruleset(DEFAULT_RULESET_TEXT)


def _candidates(rule: Rule, request: HttpInfo) -> tuple[str, ...]:
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


def _rule_matches(rule: Rule, request: HttpInfo) -> bool:
    if rule.target == "duration_ms":
        return request.duration_ms > rule.arg_num
    for candidate in _candidates(rule, request):
        value = apply_transforms(candidate, rule.transforms)
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


def evaluate(ruleset: tuple[Rule, ...], request: HttpInfo) -> WafDecision:
    """Pure; identical inputs always give identical decisions."""
    log_fired: list[int] = []
    for rule in ruleset:
        if _rule_matches(rule, request):
            if rule.action == SANDBOX_ACTION:
                return WafDecision(True, rule.id, tuple(log_fired))
            if rule.id not in log_fired:
                log_fired.append(rule.id)
    if not log_fired:
        return PASS
    return WafDecision(False, None, tuple(log_fired))
