"""Rule-driven HTTP request inspection, the fourth line of defense.

Rules live in a one-line-per-rule DSL::

    RULE <id> <target> <transforms> <op> "<arg>" <action>

targets      method, uri, any_header, header:<name>, body, duration_ms
transforms   comma-separated over none, lowercase, urldecode (left to right)
ops          contains, matches (regex search), len_gt, num_gt
actions      sandbox (block), log (record and keep going)

The argument is double-quoted with backslash escapes for the quote and
the backslash itself, or a bare word. Rule ids and len_gt / num_gt
arguments are integers in ASCII digits; ids start at 1. num_gt pairs
only with the numeric target duration_ms; the text operators pair with
everything else. Rules evaluate in file order: the first sandbox match
wins, log matches accumulate without stopping evaluation.

``parse_ruleset`` compiles the rules once, in file order, into a
``Ruleset``. Per request, ``evaluate`` derives and transforms each
candidate (target, header name, transforms) once, on the first rule
that reads it, and returns at the first sandbox match.

Deliberate weaknesses, kept for predictability: urldecode runs exactly
once, so double-encoded payloads slip through; and no default rule
decodes before looking for traversal, so encoded dots and slashes
(``%2e%2e/``, ``..%2f``) slip past rule 1003.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cache
from typing import NamedTuple

from .events import HttpInfo

SANDBOX_ACTION = "sandbox"
LOG_ACTION = "log"

_TEXT_TARGETS = ("method", "uri", "any_header", "body")
_OPS = ("contains", "matches", "len_gt", "num_gt")

_ASCII_LOWER = {c: c + 32 for c in range(ord("A"), ord("Z") + 1)}


class RulesetError(ValueError):
    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class Rule(NamedTuple):
    id: int
    target: str  # "header" for header:<name>, otherwise the target word
    header_name: str | None  # lowercased, only for header:<name>
    transforms: tuple[str, ...]
    op: str
    arg: str
    arg_num: int | None  # parsed once for len_gt / num_gt
    pattern: re.Pattern | None  # compiled once for matches
    action: str


class WafDecision(NamedTuple):
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
# path traversal (literal only: %2e%2e/ and ..%2f are not decoded, so they pass)
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

def _lowercase(value: str) -> str:
    # str.lower() agrees with the A-Z table on ASCII text only: it would
    # also map É, İ and the Kelvin sign
    return value.lower() if value.isascii() else value.translate(_ASCII_LOWER)


# Each %XX is one byte, read as one latin-1 char, as unquote_plus(value,
# encoding="latin-1") decodes it; invalid or cut-short escapes stay literal.
_HEX_DIGITS = "0123456789ABCDEFabcdef"
_HEX_PAIRS = {a + b: chr(int(a + b, 16)) for a in _HEX_DIGITS for b in _HEX_DIGITS}


def _urldecode_once(value: str) -> str:
    value = value.replace("+", " ")
    if "%" not in value:
        return value
    first, *rest = value.split("%")
    out = [first]
    for part in rest:
        char = _HEX_PAIRS.get(part[:2])
        out.append("%" + part if char is None else char + part[2:])
    return "".join(out)


_TRANSFORM_FNS = {"lowercase": _lowercase, "urldecode": _urldecode_once}


def apply_transforms(value: str, transforms: tuple[str, ...]) -> str:
    for t in transforms:
        value = _TRANSFORM_FNS[t](value)
    return value


# One token: a quoted argument (its only escapes are \" and \\), a quote
# that is never closed, or a bare word.
_TOKEN = re.compile(r'"((?:[^"\\]|\\.)*)"|(")|([^\s"]\S*)', re.S)
_ESCAPE = re.compile(r'\\(["\\])')


def _split_rule_line(line: str, line_no: int) -> list[str]:
    """Whitespace tokenizer that keeps one double-quoted token intact."""
    tokens = []
    for match in _TOKEN.finditer(line):
        quoted, unclosed, bare = match.groups()
        if unclosed:
            raise RulesetError("unterminated quoted argument", line_no)
        # the marker makes a quoted "5" differ from a bare 5
        tokens.append(bare or '"' + _ESCAPE.sub(r"\1", quoted))
    return tokens


def _natural(text: str) -> int | None:
    """``text`` as an integer if it is ASCII digits only, else None."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def _parse_rule(tokens: list[str], line_no: int) -> Rule:
    if len(tokens) != 7:
        raise RulesetError(f"expected 7 fields (RULE id target transforms op arg action), got {len(tokens)}", line_no)
    keyword, id_tok, target_tok, transforms_tok, op, arg_tok, action = tokens
    if keyword != "RULE":
        raise RulesetError(f"expected 'RULE', got {keyword!r}", line_no)
    rule_id = _natural(id_tok)
    if not rule_id:  # None or 0
        raise RulesetError(f"rule id must be a positive integer, got {id_tok!r}", line_no)

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
        if t != "none" and t not in _TRANSFORM_FNS:
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
        arg_num = _natural(arg)
        if arg_num is None:
            raise RulesetError(f"{op} needs a numeric argument, got {arg!r}", line_no)
    elif op == "matches":
        try:
            pattern = re.compile(arg)
        except (re.error, OverflowError, RecursionError) as exc:  # too large or too deep
            raise RulesetError(f"invalid regular expression: {exc}", line_no) from None

    if action not in (SANDBOX_ACTION, LOG_ACTION):
        raise RulesetError(f"unknown action {action!r}", line_no)

    return Rule(id=rule_id, target=target, header_name=header_name, transforms=transforms,
                op=op, arg=arg, arg_num=arg_num, pattern=pattern, action=action)


def parse_ruleset(text: str) -> Ruleset:
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
    return Ruleset(rules)


@cache
def default_ruleset() -> Ruleset:
    return parse_ruleset(DEFAULT_RULESET_TEXT)


# Each target's candidate values, before transforms.
_TARGET_VALUES = {
    "method": lambda request: (request.method,),
    "uri": lambda request: (request.uri,),
    "body": lambda request: (request.body.decode("latin-1"),),
    "duration_ms": lambda request: (request.duration_ms,),
    "any_header": lambda request: [value for _, value in request.headers],
}


def _header_values(name: str):
    # case-insensitive on the name, every occurrence tested
    return lambda request: [value for key, value in request.headers if key.lower() == name]


def _chain(transforms: tuple[str, ...]):
    """One callable for a transform list, or None for an empty one."""
    if len(transforms) < 2:
        return _TRANSFORM_FNS[transforms[0]] if transforms else None
    return lambda value: apply_transforms(value, transforms)


def _test(rule: Rule):
    """``(literal, None)`` for a text ``contains`` rule, else ``(None, check)``,
    where ``check`` tests one candidate value."""
    if rule.target == "duration_ms":
        return None, lambda value: value > rule.arg_num
    if rule.op == "contains":
        return rule.arg, None
    if rule.op == "matches":
        return None, rule.pattern.search
    return None, lambda value: len(value) > rule.arg_num  # len_gt


class Ruleset(tuple):
    """The rules in file order, compiled once for ``evaluate``.

    A tuple of ``Rule``s (a slice or a sum is a plain tuple) that also
    holds each rule compiled, in the same order, as ``(id, is_sandbox,
    slot, derive, transform, literal, check)``. Rules on one candidate,
    ``(target, header_name, transforms)``, share a slot, so that per
    request each candidate is derived and transformed once.
    """

    def __new__(cls, rules: Iterable[Rule] = ()):
        self = super().__new__(cls, rules)
        slots: dict[tuple, int] = {}
        compiled = []
        for rule in self:
            transforms = () if rule.target == "duration_ms" else rule.transforms
            slot = slots.setdefault((rule.target, rule.header_name, transforms), len(slots))
            derive = _TARGET_VALUES.get(rule.target) or _header_values(rule.header_name)
            compiled.append((rule.id, rule.action == SANDBOX_ACTION, slot, derive, _chain(transforms), *_test(rule)))
        self._rules = tuple(compiled)
        self._slots = len(slots)
        return self


def evaluate(ruleset: Ruleset, request: HttpInfo) -> WafDecision:
    """Pure; identical inputs always give identical decisions.

    The rules run in file order: the first sandbox rule that matches
    decides, and the log rules that match before it are listed in file
    order, each id once. ``ruleset`` is a ``Ruleset``: wrap any other
    sequence of rules in one.
    """
    derived = [None] * ruleset._slots  # each slot's transformed values, filled on first use
    log_fired: list[int] = []
    for rule_id, sandbox, slot, derive, transform, literal, check in ruleset._rules:
        values = derived[slot]
        if values is None:
            values = derive(request)
            if transform is not None:
                values = [transform(value) for value in values]
            derived[slot] = values
        for value in values:
            if check(value) if check else literal in value:
                if sandbox:
                    return WafDecision(True, rule_id, tuple(log_fired))
                if rule_id not in log_fired:
                    log_fired.append(rule_id)
                break
    return WafDecision(False, None, tuple(log_fired)) if log_fired else PASS
