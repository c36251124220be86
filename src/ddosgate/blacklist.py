"""Dynamic IP blacklisting against a refreshed CIDR feed, the second line of defense.

The feed is plain text: one CIDR or bare IPv4 per line, '#' comments.
A parsed feed becomes an immutable snapshot; refresh swaps whole
snapshots atomically so a lookup never sees a half-updated list.
Fetch failures keep the previous snapshot: a stale blacklist beats an
empty one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from .events import int_to_ipv4, ipv4_to_int

DEFAULT_FETCH_TIMEOUT_SECS = 10.0


@dataclass(frozen=True, slots=True, order=True)
class Cidr:
    base: int  # network address as 32-bit int, host bits zero
    prefix_len: int

    def __str__(self) -> str:
        return f"{int_to_ipv4(self.base)}/{self.prefix_len}"

    @property
    def last(self) -> int:
        return self.base | ((1 << (32 - self.prefix_len)) - 1)


def parse_cidr(text: str) -> Cidr | None:
    """One CIDR or bare IP (treated as /32); host bits are cleared."""
    addr, sep, plen = text.partition("/")
    ip = ipv4_to_int(addr.strip())
    if ip is None:
        return None
    if not sep:
        return Cidr(base=ip, prefix_len=32)
    plen = plen.strip()
    if not (plen.isascii() and plen.isdigit()) or int(plen) > 32:
        return None
    n = int(plen)
    mask = 0 if n == 0 else (0xFFFFFFFF << (32 - n)) & 0xFFFFFFFF
    return Cidr(base=ip & mask, prefix_len=n)


class CidrSnapshot:
    """Immutable, deduplicated set of prefixes with sublinear lookup.

    Entries are kept in canonical sorted order. Lookup goes through a
    merged-interval table built once at construction: overlapping or
    adjacent prefixes collapse into disjoint [start, end] ranges, so a
    query is a single binary search regardless of entry count.
    """

    __slots__ = ("entries", "version", "loaded_at_ts", "_starts", "_ends")

    def __init__(self, entries: list[Cidr], version: int = 0, loaded_at_ts: float = 0.0):
        self.entries: tuple[Cidr, ...] = tuple(sorted(set(entries)))
        self.version = version
        self.loaded_at_ts = loaded_at_ts
        starts: list[int] = []
        ends: list[int] = []
        for c in self.entries:
            lo, hi = c.base, c.last
            if starts and lo <= ends[-1] + 1:
                if hi > ends[-1]:
                    ends[-1] = hi
            else:
                starts.append(lo)
                ends.append(hi)
        self._starts = starts
        self._ends = ends

    def __len__(self) -> int:
        return len(self.entries)

    def contains(self, ip: str) -> bool:
        """True iff any entry's prefix covers ip; an empty snapshot parses no address."""
        if not self._starts:
            return False
        value = ipv4_to_int(ip)
        if value is None:
            return False
        i = bisect_right(self._starts, value) - 1
        return i >= 0 and value <= self._ends[i]


def parse_feed(text: str) -> tuple[list[Cidr], list[tuple[int, str]]]:
    """Parse feed text into entries plus a (line_no, reason) skip report.

    Never fatal: bad lines are skipped and reported, blank lines and
    '#' comments are ignored.
    """
    entries: list[Cidr] = []
    skipped: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cidr = parse_cidr(line)
        if cidr is None:
            skipped.append((line_no, "bad_address"))
        else:
            entries.append(cidr)
    return entries, skipped


def serialize_feed(entries: list[Cidr] | tuple[Cidr, ...]) -> str:
    """Canonical feed text: sorted, deduplicated, one entry per line."""
    return "".join(f"{c}\n" for c in sorted(set(entries)))


def fetch_feed(locator: str, timeout: float = DEFAULT_FETCH_TIMEOUT_SECS) -> str:
    """Read the feed from a local path or an http(s) URL with a bounded
    timeout. Either way an undecodable byte spoils only its own line."""
    if locator.startswith(("http://", "https://")):
        import urllib.request  # only URL feeds need the HTTP stack

        with urllib.request.urlopen(locator, timeout=timeout) as resp:
            return resp.read().decode("utf-8", errors="replace")
    with open(locator, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def refresh(current: CidrSnapshot, fetched: str, now: float) -> CidrSnapshot:
    """The snapshot that replaces ``current`` once ``fetched`` feed text
    arrives at trace time ``now``."""
    entries, _skipped = parse_feed(fetched)
    return CidrSnapshot(entries, version=current.version + 1, loaded_at_ts=now)


class Blacklist:
    """The L2 layer: the current snapshot and its lazy refresh on trace time.

    A lookup first fetches the feed if ``refresh_secs`` have passed since
    the last attempt (or none was made yet). Attempt time, not load time,
    gates retries: a failing feed is re-tried once per interval instead
    of on every event, and a failure only bumps ``error_count`` while the
    old snapshot keeps serving. The engine is the one writer.
    """

    __slots__ = ("current", "locator", "refresh_secs", "fetch", "error_count", "last_attempt_ts")

    def __init__(self, locator: str | None, refresh_secs: float, fetch: Callable[[str], str]):
        self.current = CidrSnapshot([])
        self.locator = locator  # file path or http(s) URL; None never fetches
        self.refresh_secs = refresh_secs
        self.fetch = fetch
        self.error_count = 0
        self.last_attempt_ts: float | None = None

    def contains(self, ip: str, now: float) -> bool:
        if self.locator is not None and (self.last_attempt_ts is None
                                         or now - self.last_attempt_ts >= self.refresh_secs):
            self._refresh(now)
        return self.current.contains(ip)

    def _refresh(self, now: float) -> None:
        try:
            fetched = self.fetch(self.locator)
        except (OSError, ValueError):
            self.error_count += 1  # keep serving the last good snapshot
        else:
            self.current = refresh(self.current, fetched, now)
        self.last_attempt_ts = now
