"""Seeded mutation fuzz of the config-side readers, as test_parse_fuzz.py
fuzzes trace lines.

Sample feed, rule, config and signature lines get a few edits each:
an insert, a delete or a replace with a piece such as a run of more
digits than int() reads, a digit outside ASCII, NUL, a lone surrogate,
a backslash, a quote, a separator, a sign or a form feed. Every reader
sees every mutant. ``parse_feed`` must always return, with each content
line an entry or a skipped line; ``parse_ruleset``, ``parse_config``
and ``parse_signatures`` must return or raise a LineError.

``content_lines``, which all four readers share, splits a text a slice
at a time; texts of several slices, with every line end and with line
breaks placed at each slice edge, must give exactly the lines and line
numbers of ``str.splitlines``.
"""

import random

from ddosgate.analyzer import parse_signatures
from ddosgate.blacklist import parse_feed
from ddosgate.config import parse_config
from ddosgate.events import _SLICE_CHARS, LineError, content_lines
from ddosgate.waf import DEFAULT_RULESET_TEXT, parse_ruleset

MUTANTS = 2000

_SAMPLES = [
    "203.0.113.0/24", "192.0.2.9", "10.77.1.2/16", "0.0.0.0/0", "255.255.255.255/32",
    *(line for _, line in content_lines(DEFAULT_RULESET_TEXT)),
    "rate.rps = 5", "rate.burst = 10", "udp.blocked_ports = 19,1900", "tcp.syncookie_secret = 0x5eed",
    "udp.validate_checksum = true", "blacklist.path = /var/lib/feeds/drop.txt",
    r"\x90\x90\x90\x90", "/bin/sh", "; rm -rf", r"cmd.exe /c",
]
# more digits than int() reads, digits outside ASCII (ARABIC-INDIC THREE,
# SUPERSCRIPT TWO, FULLWIDTH ONE), NUL, a lone surrogate, a form feed
_PIECES = ["9" * 4301, "1" * 5000, "0" * 4301, "٣", "²", "１", "\x00", "\ud800", "\\", '"', "/", "=",
           "0x", "-", "+", "\x0c", " ", "#", "32", "33", r"\x", r"\xff", r"\u0100"]


def _mutate(rng: random.Random, line: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(line) + 1)
        how = rng.randrange(3)
        if how == 0:
            line = line[:i] + rng.choice(_PIECES) + line[i:]
        elif how == 1:
            line = line[:i] + line[i + rng.randint(1, 4):]
        else:
            line = line[:i] + rng.choice(_PIECES) + line[i + 1:]
    return line


def test_every_config_side_reader_returns_or_raises_a_line_error():
    rng = random.Random(3039)
    accepted = dict.fromkeys((parse_ruleset, parse_config, parse_signatures), 0)
    entries = skipped = 0
    for _ in range(MUTANTS):
        text = _mutate(rng, rng.choice(_SAMPLES)) + "\n"
        found, bad = parse_feed(text)
        assert len(found) + len(bad) == len(list(content_lines(text))), repr(text)
        assert all(0 <= cidr.prefix_len <= 32 for cidr in found), repr(text)
        entries += len(found)
        skipped += len(bad)
        for reader in accepted:
            try:
                reader(text)
            except LineError:
                pass
            else:
                accepted[reader] += 1
    # each reader both takes and refuses some mutants, so neither half is vacuous
    assert entries and skipped
    assert all(0 < n < MUTANTS for n in accepted.values()), accepted


# every line end str.splitlines knows
_LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# What a slice can end with: its edge, _SLICE_CHARS characters after its
# start, falls at any index of a tail that has a "\n" there or later, so a
# "\r\n" and a lone "\r" each meet the edge from before and from after.
_TAILS = ["\n", "\r\n", "\r\r\n", "\r\n\r\n", "\r\n\r\r\n", "\rx\r\n", "\r\nx\n"]


def _lines(rng: random.Random, chars: int) -> str:
    """At least ``chars`` characters of blank, '#' and sample lines."""
    text = rng.choice(("", "\r", "\n", "\r\n"))  # what follows the last cut
    while len(text) < chars:
        roll = rng.random()
        line = "" if roll < 0.15 else "# a comment" if roll < 0.3 else rng.choice(_SAMPLES)
        pad = rng.choice(("", " ", "\t"))
        text += pad + line + pad + rng.choice(_LINE_ENDS)
    return text


def _sliced_text(rng: random.Random, slices: int) -> str:
    text = ""
    for _ in range(slices):
        tail = rng.choice(_TAILS)
        edge = rng.randrange(tail.rindex("\n") + 1)
        start = len(text)
        text += _lines(rng, _SLICE_CHARS)[:_SLICE_CHARS - edge] + tail[:tail.index("\n", edge) + 1]
        assert text.find("\n", start + _SLICE_CHARS) + 1 == len(text)  # the slice is cut where planned
    return text + _lines(rng, 100)[:rng.randrange(100)]  # a short last slice, perhaps with no line end


def test_content_lines_are_those_of_splitlines_across_slice_edges():
    rng = random.Random(8192)
    for _ in range(40):
        text = _sliced_text(rng, 4)
        assert len(text) > 3 * _SLICE_CHARS
        expected = [(n, raw.strip()) for n, raw in enumerate(text.splitlines(), 1)
                    if raw.strip() and not raw.strip().startswith("#")]
        assert list(content_lines(text)) == expected
