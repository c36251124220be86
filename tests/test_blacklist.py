"""CIDR parsing, snapshot lookup vs a mask oracle, and the L2 refresh rules."""

import os
import random
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import ddosgate
from ddosgate import blacklist
from ddosgate.blacklist import (
    Blacklist,
    Cidr,
    CidrSnapshot,
    fetch_feed,
    parse_cidr,
    parse_feed,
    serialize_feed,
)


def _ip(value: int) -> str:
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def test_parse_cidr_forms():
    assert str(parse_cidr("10.0.0.0/8")) == "10.0.0.0/8"
    # bare address is a host route
    assert str(parse_cidr("192.0.2.7")) == "192.0.2.7/32"
    # host bits are cleared, not rejected
    assert str(parse_cidr("10.1.2.3/24")) == "10.1.2.0/24"
    assert str(parse_cidr("0.0.0.0/0")) == "0.0.0.0/0"


def test_parse_cidr_rejects_garbage():
    for bad in ("10.0.0.0/33", "10.0.0/8", "256.1.1.1", "10.0.0.0/x", "", "hello", "10.0.0.1/-1"):
        assert parse_cidr(bad) is None


def test_parse_cidr_rejects_non_ascii_digits():
    # Unicode digits are not address digits: "٣" is ARABIC-INDIC DIGIT THREE
    assert parse_cidr("10.0.0.\u0663/32") is None
    assert parse_cidr("10.0.0.\u00b2") is None  # superscript two
    assert parse_cidr("10.0.0.0/\u00b2") is None  # used to raise ValueError
    assert parse_cidr("010.0.0.1") is None


def test_contains_prefix_boundaries():
    snap = CidrSnapshot([parse_cidr("203.0.113.0/24")])
    assert snap.contains("203.0.113.0")
    assert snap.contains("203.0.113.255")
    assert not snap.contains("203.0.112.255")
    assert not snap.contains("203.0.114.0")


def test_host_entry_matches_only_itself():
    snap = CidrSnapshot([parse_cidr("198.51.100.7")])
    assert snap.contains("198.51.100.7")
    assert not snap.contains("198.51.100.6")
    assert not snap.contains("198.51.100.8")


def test_overlapping_entries_merge_cleanly():
    snap = CidrSnapshot([parse_cidr("10.0.0.0/8"), parse_cidr("10.5.0.0/16"),
                         parse_cidr("10.255.255.0/24")])
    assert snap.contains("10.5.1.2")
    assert snap.contains("10.200.0.1")
    assert not snap.contains("11.0.0.0")


def test_agrees_with_mask_oracle_on_random_data():
    rng = random.Random(7)
    entries = []
    raw = []  # (base, prefix) before any normalization
    for _ in range(60):
        prefix = rng.randint(8, 32)
        base = rng.getrandbits(32)
        mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF if prefix else 0
        raw.append((base & mask, mask))
        entries.append(parse_cidr(f"{_ip(base)}/{prefix}"))
    snap = CidrSnapshot(entries)
    for _ in range(5000):
        probe = rng.getrandbits(32)
        expected = any(probe & mask == base for base, mask in raw)
        assert snap.contains(_ip(probe)) == expected


def test_parse_feed_skips_bad_lines_with_numbers():
    text = "203.0.113.0/24\n# comment\n\nnot-an-entry\n10.0.0.0/8\n999.1.1.1\n"
    entries, skipped = parse_feed(text)
    assert [str(e) for e in entries] == ["203.0.113.0/24", "10.0.0.0/8"]
    assert [line_no for line_no, _ in skipped] == [4, 6]


def test_serialize_feed_is_canonical():
    entries, _ = parse_feed("203.0.113.0/24\n10.0.0.0/8\n203.0.113.0/24\n")
    assert serialize_feed(entries) == "10.0.0.0/8\n203.0.113.0/24\n"


class _Feed:
    """A fetch callable that serves queued texts (an exception is raised)
    and records each locator it was asked for."""

    def __init__(self, *texts):
        self.texts = list(texts)
        self.calls = []

    def __call__(self, locator):
        self.calls.append(locator)
        text = self.texts.pop(0)
        if isinstance(text, Exception):
            raise text
        return text


def test_refresh_swaps_snapshot_and_bumps_version():
    feed = _Feed("203.0.113.0/24\n", "198.51.100.0/24\n")
    blacklist = Blacklist("feed.txt", 300.0, feed)
    assert blacklist.contains("203.0.113.5", 0.0)  # the first lookup fetches
    assert feed.calls == ["feed.txt"]
    assert blacklist.current.version == 1
    assert blacklist.current.loaded_at_ts == 0.0
    assert blacklist.contains("203.0.113.5", 299.9)  # not due yet
    assert len(feed.calls) == 1
    assert not blacklist.contains("203.0.113.5", 300.0)  # due exactly at the interval
    assert len(feed.calls) == 2
    assert blacklist.current.version == 2
    assert blacklist.contains("198.51.100.9", 300.0)
    assert blacklist.error_count == 0
    assert blacklist.last_attempt_ts == 300.0


def test_failed_refresh_keeps_old_list_and_backs_off():
    feed = _Feed("203.0.113.0/24\n", OSError("feed down"), ValueError("bad URL"),
                 "198.51.100.0/24\n")
    blacklist = Blacklist("feed.txt", 300.0, feed)
    assert blacklist.contains("203.0.113.5", 0.0)
    # feed goes dark: old snapshot keeps serving
    assert blacklist.contains("203.0.113.5", 300.0)
    assert blacklist.error_count == 1
    assert blacklist.current.version == 1
    # a failed attempt still counts as an attempt; no hot retry loop
    assert blacklist.contains("203.0.113.5", 599.0)
    assert len(feed.calls) == 2
    assert blacklist.contains("203.0.113.5", 600.0)
    assert (len(feed.calls), blacklist.error_count, blacklist.last_attempt_ts) == (3, 2, 600.0)
    assert not blacklist.contains("203.0.113.5", 900.0)  # recovered
    assert (blacklist.current.version, blacklist.error_count) == (2, 2)


def test_failed_refresh_propagates_other_errors():
    blacklist = Blacklist("feed.txt", 300.0, _Feed(KeyError("not a fetch failure")))
    with pytest.raises(KeyError):
        blacklist.contains("203.0.113.5", 0.0)


def test_no_locator_never_refreshes():
    feed = _Feed()
    blacklist = Blacklist(None, 300.0, feed)
    assert not blacklist.contains("203.0.113.5", 0.0)
    assert not blacklist.contains("203.0.113.5", 1e9)
    assert feed.calls == []
    assert blacklist.last_attempt_ts is None


def test_empty_snapshot_contains_nothing():
    snap = CidrSnapshot([])
    assert not snap.contains("10.0.0.1")
    assert len(snap) == 0


def test_empty_snapshot_parses_no_address(monkeypatch):
    def refuse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(blacklist, "ipv4_to_int", refuse)
    assert not CidrSnapshot([]).contains("10.0.0.1")
    assert not CidrSnapshot([]).contains("not an address")


def test_loaded_snapshot_misses_malformed_addresses():
    snap = CidrSnapshot([parse_cidr("0.0.0.0/0")])
    assert snap.contains("10.0.0.1")
    for bad in ("", "10.0.0", "256.0.0.1", "010.0.0.1", "10.0.0.1 ", "hello"):
        assert not snap.contains(bad)


def test_entries_deduplicated_and_ordered():
    snap = CidrSnapshot([parse_cidr("10.0.0.0/8"), parse_cidr("10.0.0.0/8"),
                         parse_cidr("9.0.0.0/8")])
    assert [str(e) for e in snap.entries] == ["9.0.0.0/8", "10.0.0.0/8"]
    assert isinstance(snap.entries[0], Cidr)


def test_fetch_feed_reads_a_url_with_a_timeout(monkeypatch):
    calls = []

    class Response:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return b"203.0.113.0/24\n\xff\n"

    def urlopen(url, timeout):
        calls.append((url, timeout))
        return Response()

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    assert fetch_feed("https://feed.example/drop.txt") == "203.0.113.0/24\n\ufffd\n"
    assert calls == [("https://feed.example/drop.txt", 10.0)]


def test_feed_file_with_an_undecodable_byte_loses_only_that_line(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_bytes(b"10.0.0.0/8\n\xff\n192.168.0.0/16\n")
    assert fetch_feed(str(feed)) == "10.0.0.0/8\n\ufffd\n192.168.0.0/16\n"
    blacklist = Blacklist(str(feed), 300.0, fetch_feed)
    assert blacklist.contains("10.1.2.3", 0.0)
    assert blacklist.contains("192.168.9.9", 0.0)
    assert (blacklist.error_count, len(blacklist.current)) == (0, 2)


def test_importing_the_cli_loads_no_http_stack():
    code = ("import sys, ddosgate.cli; "
            "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(ddosgate.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
