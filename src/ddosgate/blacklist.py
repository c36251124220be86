"""Dynamic IP blacklisting against a refreshed CIDR feed, the second line of defense.

The feed is plain text: one CIDR or bare IPv4 per line, '#' comments.
A parsed feed becomes an immutable snapshot; refresh swaps whole
snapshots atomically so a lookup never sees a half-updated list.
Read failures keep the previous snapshot: a stale blacklist beats an
empty one. The engine reads feed files; only ``fetch_feed`` talks HTTP.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .events import _natural, content_lines, int_to_ipv4, ipv4_to_int

DEFAULT_FETCH_TIMEOUT_SECS = 10.0
# A feed over MAX_FEED_BYTES (8 MiB) is refused, whether downloaded or read
# from a file. Its longest canonical line, "255.255.255.255/32\n", is 19
# bytes, so the bound holds at least 441,505 entries. A snapshot keeps
# about 16 bytes per distinct entry or less: 5.5 MB (traced) for a seeded
# feed at the bound with 497,407 distinct entries. Its load peaks about
# 27 MB (traced) above the feed's text, mostly the list of keys it sorts at
# 40 bytes a key. The largest feed this repo serves, the benchmark's
# gates_open feed of 3,301 lines, is about 54 KB, 1/156 of the bound.
# Public IPv4 drop lists are of the same order or a little larger: about a
# thousand netblocks in Spamhaus DROP, a few thousand in FireHOL level1,
# tens of thousands of addresses in blocklist.de's all.txt, each under a
# megabyte as published.
MAX_FEED_BYTES = 8 << 20
_MEMO_MAX = 1024  # the most sources L2's memo holds; it is emptied when full


class Cidr(NamedTuple):  # ordered as (base, prefix_len)
    base: int  # network address as 32-bit int, host bits zero
    prefix_len: int

    def __str__(self) -> str:
        return f"{int_to_ipv4(self.base)}/{self.prefix_len}"

    @property
    def last(self) -> int:
        return self.base | ((1 << (32 - self.prefix_len)) - 1)


def _cidr_key(text: str) -> int | None:
    """One CIDR or bare IP (treated as /32), host bits cleared, as its
    snapshot key ``base << 6 | prefix_len``; None if it is neither. As
    ``prefix_len < 64``, keys sort in ``Cidr`` order."""
    addr, sep, plen = text.partition("/")
    ip = ipv4_to_int(addr.strip())
    n = _natural(plen.strip()) if sep else 32
    if ip is None or n is None or n > 32:
        return None
    return (ip & (0xFFFFFFFF << (32 - n)) & 0xFFFFFFFF) << 6 | n


def parse_cidr(text: str) -> Cidr | None:
    """One CIDR or bare IP (treated as /32); host bits are cleared."""
    key = _cidr_key(text)
    return None if key is None else Cidr(key >> 6, key & 63)


class CidrSnapshot:
    """Immutable, deduplicated set of prefixes with sublinear lookup.

    Each distinct entry is one key ``base << 6 | prefix_len``, 8 bytes in
    a sorted ``array("Q")``; ``entries`` rebuilds the ``Cidr``s from the
    keys on each access. Lookup goes through a merged-interval table
    built once at construction, two ``array("I")``s of 4-byte bounds:
    overlapping or adjacent prefixes collapse into disjoint [start, end]
    ranges, so a query is a single binary search regardless of entry
    count. An empty snapshot holds empty tuples, and only a snapshot
    with keys loads ``array``.
    """

    __slots__ = ("version", "loaded_at_ts", "_keys", "_starts", "_ends")

    def __init__(self, entries: list[Cidr], version: int = 0, loaded_at_ts: float = 0.0):
        self.version = version
        self.loaded_at_ts = loaded_at_ts
        self._index([c.base << 6 | c.prefix_len for c in entries])

    @classmethod
    def _of_keys(cls, keys: list[int], version: int, loaded_at_ts: float) -> CidrSnapshot:
        """The snapshot of ``keys``, which it sorts in place."""
        snapshot = cls([], version, loaded_at_ts)
        snapshot._index(keys)
        return snapshot

    def _index(self, keys: list[int]) -> None:
        """Keep ``keys``, sorted in place and without duplicates, and the
        ranges they cover, merged as they are read."""
        if not keys:
            self._keys = self._starts = self._ends = ()
            return
        from array import array

        keys.sort()
        unique, starts, ends = array("Q"), array("I"), array("I")
        for key in keys:
            if unique and key == unique[-1]:
                continue
            unique.append(key)
            lo = key >> 6
            hi = lo | 0xFFFFFFFF >> (key & 63)
            if starts and lo <= ends[-1] + 1:
                if hi > ends[-1]:
                    ends[-1] = hi
            else:
                starts.append(lo)
                ends.append(hi)
        self._keys, self._starts, self._ends = unique, starts, ends

    @property
    def entries(self) -> tuple[Cidr, ...]:
        """The distinct entries in sorted order, rebuilt on each access."""
        return tuple(Cidr(key >> 6, key & 63) for key in self._keys)

    def __len__(self) -> int:
        return len(self._keys)

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
    for line_no, line in content_lines(text):
        cidr = parse_cidr(line)
        if cidr is None:
            skipped.append((line_no, "bad_address"))
        else:
            entries.append(cidr)
    return entries, skipped


def serialize_feed(entries: list[Cidr] | tuple[Cidr, ...]) -> str:
    """Canonical feed text: sorted, deduplicated, one entry per line."""
    return "".join(f"{c}\n" for c in sorted(set(entries)))


def read_feed(path: str) -> str:
    """A feed file's text; an undecodable byte spoils only its own line. A
    file over MAX_FEED_BYTES is a ValueError, and no more of it is read."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FEED_BYTES + 1)
    if len(data) > MAX_FEED_BYTES:
        raise ValueError(f"feed {path!r} is larger than {MAX_FEED_BYTES} bytes")
    return data.decode("utf-8", errors="replace")  # content_lines splits on \r\n and \r itself


def _check_http_url(url: str) -> None:
    if url.partition(":")[0].lower() not in ("http", "https"):
        raise ValueError(f"not an http(s) URL: {url!r}")


def fetch_feed(url: str) -> str:
    """Download a feed from an http(s) URL, decoded as ``read_feed`` decodes
    a file. Another scheme, also as a redirect's target, or a body over
    MAX_FEED_BYTES is a ValueError; any other failure, the HTTP stack's own
    errors included, an OSError."""
    _check_http_url(url)
    import http.client
    import urllib.request  # the one place that loads the HTTP stack

    class HttpOnlyRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            _check_http_url(newurl)  # urllib itself would follow one to ftp://
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    opener = urllib.request.build_opener(HttpOnlyRedirects)
    try:
        with opener.open(url, timeout=DEFAULT_FETCH_TIMEOUT_SECS) as resp:
            body = resp.read(MAX_FEED_BYTES + 1)
            if len(body) > MAX_FEED_BYTES:
                raise ValueError(f"feed is larger than {MAX_FEED_BYTES} bytes")
            resp.read()  # b"" after a whole body; IncompleteRead after one cut short
    except http.client.HTTPException as exc:
        raise OSError(f"bad HTTP response: {exc!r}") from None
    return body.decode("utf-8", errors="replace")


def refresh(current: CidrSnapshot, fetched: str, now: float) -> CidrSnapshot:
    """The snapshot that replaces ``current`` once ``fetched`` feed text
    arrives at trace time ``now``. Each content line is read to its key by
    the reader ``parse_cidr`` wraps, so the snapshot holds exactly the
    entries of ``parse_feed(fetched)``. Of what is made for a line, only
    its key outlives it, in the list that is sorted and then dropped."""
    keys = [key for _line_no, line in content_lines(fetched) if (key := _cidr_key(line)) is not None]
    return CidrSnapshot._of_keys(keys, current.version + 1, now)


class Blacklist:
    """The L2 layer: the current snapshot, its lazy refresh on trace time, its memo.

    A lookup first reads the feed file if ``refresh_secs`` have passed
    since the last attempt (or none was made yet). Attempt time, not load
    time, gates retries: a failing read is re-tried once per interval
    instead of on every event, and a failure only bumps ``error_count``
    while the old snapshot keeps serving. An empty snapshot, such as the
    one in use before any feed was read, holds no address: the lookup
    returns False without consulting it. A snapshot assigned to
    ``current`` by hand is consulted whether or not ``path`` is set. The
    engine is the one writer. The memo of answers, the one memo of
    addresses (the IPv4 codec keeps none), is bounded and emptied when
    full, and also when ``current`` is not the snapshot it was filled for,
    so each answer it holds is exact.
    """

    __slots__ = ("current", "path", "refresh_secs", "error_count", "last_attempt_ts",
                 "_memo", "_memo_for")

    def __init__(self, path: str | None, refresh_secs: float):
        self.current = CidrSnapshot([])
        self.path = path  # None never reads
        self.refresh_secs = refresh_secs
        self.error_count = 0
        self.last_attempt_ts: float | None = None
        self._memo: dict[str, bool] = {}
        self._memo_for = self.current

    def contains(self, ip: str, now: float) -> bool:
        if self.path is not None and (self.last_attempt_ts is None
                                      or now - self.last_attempt_ts >= self.refresh_secs):
            self._refresh(now)
        current = self.current
        if not current._starts:  # not entries, which builds a tuple
            return False
        memo = self._memo
        if self._memo_for is not current:
            memo.clear()
            self._memo_for = current
        hit = memo.get(ip)
        if hit is None:
            if len(memo) >= _MEMO_MAX:
                memo.clear()
            hit = memo[ip] = current.contains(ip)
        return hit

    def _refresh(self, now: float) -> None:
        try:
            fetched = read_feed(self.path)
        except (OSError, ValueError):
            self.error_count += 1  # keep serving the last good snapshot
        else:
            self.current = refresh(self.current, fetched, now)
        self.last_attempt_ts = now
