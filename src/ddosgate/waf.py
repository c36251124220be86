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
wins, log matches accumulate without stopping evaluation. ``evaluate``
answers with the deciding rule's one ``Verdict`` (reason
``waf_rule_<id>``) or None, and counts the log rules that matched.

``parse_ruleset`` parses the rules into a ``Ruleset``: the rules in file
order, as a tuple, compiled once, in file order, into one Python
function that ``evaluate`` calls. In that function each rule is one flat
statement. Rule text (arguments, patterns, header names, ids) is bound
in the function's namespace as data, never written into its source, so
any text a rule can hold is matched as itself. Per request the function
reads each target's raw value once (the body is decoded once), derives
and transforms each candidate (target, header name, transforms) once,
on the first rule that reads it, and returns at the first sandbox
match, so no rule after the deciding one is tested. An any_header rule
with op contains, whose argument is not empty and holds no newline,
reads one text: the request's header values joined by newlines,
transformed once and shared by every such rule with the same
transforms. Neither transform reads across a newline (lowercase keeps
it, and urldecode leaves an escape cut short by one as literal text),
so that text is the transformed values joined by newlines, and such an
argument is in it exactly when it is in one of them. The other
any_header rules (an empty argument, which must not match a request
with no headers, an argument with a newline, matches and len_gt) test
each value. An empty method, URI, body or joined text is not passed to
a transform, since each maps "" to "".

Deliberate weaknesses, kept for predictability: urldecode runs exactly
once, so double-encoded payloads slip through; and no default rule
decodes before looking for traversal, so encoded dots and slashes
(``%2e%2e/``, ``..%2f``) slip past rule 1003.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, MutableMapping
from functools import cache
from operator import itemgetter
from typing import NamedTuple

from .events import _natural, SANDBOX, HttpInfo, LineError, Verdict, content_lines

SANDBOX_ACTION = "sandbox"
LOG_ACTION = "log"

# Each single-valued target, with the source that reads its raw value.
# The other targets are any_header, whose raw value is request.headers
# itself, and header:<name>, whose raw value is the list of that
# header's values.
_SINGLE_SOURCES = {
    "method": "request.method",
    "uri": "request.uri",
    "body": 'request.body.decode("latin-1")',
    "duration_ms": "request.duration_ms",
}
# any_header's values as one text, one value per line (see _compile)
_JOIN_LINES = "\n".join
_VALUE = itemgetter(1)
_OPS = ("contains", "matches", "len_gt", "num_gt")

_ASCII_LOWER = {c: c + 32 for c in range(ord("A"), ord("Z") + 1)}


class RulesetError(LineError):
    """A rule line that does not parse, or a rule id defined twice."""


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
    elif target_tok in _SINGLE_SOURCES or target_tok == "any_header":
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
    for line_no, line in content_lines(text):
        rule = _parse_rule(_split_rule_line(line, line_no), line_no)
        if rule.id in seen_ids:
            raise RulesetError(f"duplicate rule id {rule.id} (first defined on line {seen_ids[rule.id]})", line_no)
        seen_ids[rule.id] = line_no
        rules.append(rule)
    return Ruleset(rules)


@cache
def default_ruleset() -> Ruleset:
    return parse_ruleset(DEFAULT_RULESET_TEXT)


def _compile(rules: tuple[Rule, ...]):
    r"""One function that decides as ``rules`` do, in file order.

    Its source holds only names that this function numbers itself:
    every value taken from a rule (argument, pattern, header name, id)
    is bound in the function's namespace, and a rule's target, op and
    action only choose which fixed snippet is written, so no rule text
    becomes code. Each rule is one flat statement: an ``if`` on a
    single value, or a ``for`` over a list of values whose body is that
    ``if``; there is no ``elif`` chain to nest. Each raw value and each
    candidate (target, header name, transforms) is derived into a local
    just before the first rule that reads it. Every statement before
    that one returns or falls through to it, so the local is set
    wherever it is read.

    The any_header rules that read the joined header text (the module
    docstring says which, and why that is exact) test one value, the
    values joined by ``"\n"``, then transformed; the others test each
    value of the list. A single value with transforms is written
    ``T(raw) if raw else raw``: each transform maps ``""`` to ``""``.
    A sandbox rule returns its ``Verdict``, built here once and bound as
    a constant; a log rule adds 1 to ``log_hits[id]``, and a ``for``
    then ``break``s, so a request counts once per rule.
    """
    namespace: dict = {}
    lines = ["def evaluate(request, log_hits):"]
    derived: dict[tuple, str] = {}  # raw value or candidate -> its local
    fns: dict[str, str] = {}  # transform name -> its constant

    def const(value) -> str:
        name = f"_c{len(namespace)}"
        namespace[name] = value
        return name

    def local(key: tuple, source) -> str:
        if key not in derived:
            code = source()  # may derive the locals it reads first
            derived[key] = f"_v{len(derived)}"
            lines.append(f"    {derived[key]} = {code}")
        return derived[key]

    def transformed(value: str, transforms: tuple[str, ...]) -> str:
        for t in transforms:
            if t not in fns:
                fns[t] = const(_TRANSFORM_FNS[t])
            value = f"{fns[t]}({value})"
        return value

    def candidate(rule: Rule) -> tuple[str, bool]:
        """The local that holds the rule's candidate, and whether it is a list."""
        transforms = () if rule.target == "duration_ms" else rule.transforms
        if rule.target in _SINGLE_SOURCES:
            key = (rule.target,)
            raw = local(key, lambda: _SINGLE_SOURCES[rule.target])
        elif rule.target == "any_header" and rule.op == "contains" and rule.arg and "\n" not in rule.arg:
            # one text for every value: exact for such an argument (see above)
            key = ("header_text",)
            headers = local(("headers",), lambda: "request.headers")
            raw = local(key, lambda: f"{const(_JOIN_LINES)}({const(map)}({const(_VALUE)}, {headers}))")
        else:
            return values(rule, transforms), True
        if transforms:  # each transform maps "" to ""
            raw = local(key + (transforms,), lambda: f"{transformed(raw, transforms)} if {raw} else {raw}")
        return raw, False

    def values(rule: Rule, transforms: tuple[str, ...]) -> str:
        """The local that holds the list of the rule's header values."""
        headers = local(("headers",), lambda: "request.headers")
        if rule.target == "any_header":
            key, pairs = ("any_header", transforms), f"_, value in {headers}"
        else:  # header:<name>: case-insensitive on the name, every occurrence
            key = ("header", rule.header_name)
            raw = local(key, lambda: f"[value for key, value in {headers} if key.lower() == "
                                     f"{const(rule.header_name)}]")
            if not transforms:
                return raw
            key, pairs = key + (transforms,), f"value in {raw}"
        return local(key, lambda: f"[{transformed('value', transforms)} for {pairs}]")

    for rule in rules:
        if rule.target == "duration_ms":
            test = "{} > " + const(rule.arg_num)
        elif rule.op == "contains":
            test = const(rule.arg) + " in {}"
        elif rule.op == "matches":
            test = const(rule.pattern.search) + "({})"
        else:  # len_gt
            test = "len({}) > " + const(rule.arg_num)
        sandbox = rule.action == SANDBOX_ACTION
        action = (f"return {const(Verdict(SANDBOX, 4, f'waf_rule_{rule.id}', rule.id))}" if sandbox
                  else f"log_hits[{const(rule.id)}] += 1")
        value, multi = candidate(rule)
        if multi:
            lines.append(f"    for value in {value}:")
            lines.append(f"        if {test.format('value')}:")
            lines.append(f"            {action}")
            if not sandbox:
                lines.append("            break")
        else:
            lines.append(f"    if {test.format(value)}:")
            lines.append(f"        {action}")
    lines.append("    return None")
    exec(compile("\n".join(lines), "<waf ruleset>", "exec"), namespace)
    return namespace["evaluate"]


class Ruleset(tuple):
    """The rules in file order, compiled once into one function.

    A tuple of ``Rule``s (a slice or a sum is a plain tuple). ``__new__``
    compiles the rules, in file order, into one Python function that
    ``evaluate`` calls. Rule text is bound in that function's namespace
    as data, never written into its source. Per request the function
    reads each target's raw value once and derives each candidate,
    ``(target, header_name, transforms)``, once.
    """

    def __new__(cls, rules: Iterable[Rule] = ()):
        self = super().__new__(cls, rules)
        self._evaluate = _compile(self)
        return self


def evaluate(ruleset: Ruleset, request: HttpInfo, log_hits: MutableMapping[int, int]) -> Verdict | None:
    """Deterministic; ``log_hits`` is the only thing it writes. The rules
    run in file order: the first sandbox rule that matches decides, and
    its one ``Verdict(SANDBOX, 4, "waf_rule_<id>", id)`` is returned, or
    None if none does. Each log rule that matches before it adds 1 to
    ``log_hits[id]`` (a ``Counter`` or ``defaultdict(int)``). ``ruleset``
    is a ``Ruleset``, whose rules were compiled once into the function
    this calls: wrap any other sequence of rules in one.
    """
    return ruleset._evaluate(request, log_hits)
