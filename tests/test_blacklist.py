"""CIDR parsing, snapshot lookup vs a mask oracle, and the L2 refresh rules."""

import io
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
    read_feed,
    serialize_feed,
)
from ddosgate.events import _MEMO_MAX


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
    # a prefix of more digits than int() reads is one more bad prefix
    for bad in ("10.0.0.0/33", "10.0.0/8", "256.1.1.1", "10.0.0.0/x", "", "hello", "10.0.0.1/-1",
                "10.0.0.0/" + "9" * 4301):
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


def test_memo_agrees_with_mask_oracle_across_refills_and_a_refresh(tmp_path):
    """Repeated sources, more distinct ones than the memo holds, malformed
    strings, and a refresh that flips one memoized address each way."""
    rng = random.Random(1024)
    raw = []  # (base, mask) of each listed prefix
    lines = []
    for _ in range(60):
        prefix = rng.randint(8, 32)
        mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
        base = rng.getrandbits(32) & mask
        raw.append((base, mask))
        lines.append(f"{_ip(base)}/{prefix}")

    def listed(value, prefixes):
        return any(value & mask == base for base, mask in prefixes)

    unlisted = [v for v in (rng.getrandbits(32) for _ in range(100)) if not listed(v, raw)]
    dropped, added = unlisted[0], unlisted[1]  # listed before the refresh, listed after it
    before = raw + [(dropped, 0xFFFFFFFF)]
    after = raw + [(added, 0xFFFFFFFF)]
    feed = tmp_path / "feed.txt"
    feed.write_text("".join(f"{line}\n" for line in lines + [_ip(dropped)]))
    # three times as many addresses as the memo holds, a third of them
    # inside a listed prefix, each asked for several times
    pool = [_ip(rng.getrandbits(32)) for _ in range(2 * _MEMO_MAX)]
    pool += [_ip(base | rng.getrandbits(32) & ~mask & 0xFFFFFFFF) for base, mask in rng.choices(raw, k=_MEMO_MAX)]
    pool += ["", "10.0.0", "256.0.0.1", "010.0.0.1", "10.0.0.1 ", "hello", _ip(dropped) + "/32"]
    bl = Blacklist(str(feed), 300.0)

    def check(now, prefixes):
        sizes = []
        for text in rng.choices(pool, k=12_000) + [_ip(dropped), _ip(added)]:
            value = blacklist.ipv4_to_int(text)
            expected = value is not None and listed(value, prefixes)
            assert bl.contains(text, now) is expected, text
            sizes.append(len(bl._memo))
        assert max(sizes) == _MEMO_MAX and min(sizes[sizes.index(_MEMO_MAX):]) < _MEMO_MAX  # emptied once full

    check(0.0, before)
    assert _ip(dropped) in bl._memo and _ip(added) in bl._memo
    feed.write_text("".join(f"{line}\n" for line in lines + [_ip(added)]))
    assert not bl.contains(_ip(dropped), 300.0)
    assert bl.current.version == 2 and list(bl._memo) == [_ip(dropped)]  # a refresh empties the memo
    assert bl.contains(_ip(added), 300.0)
    check(300.0, after)


def test_parse_feed_skips_bad_lines_with_numbers():
    text = "203.0.113.0/24\n# comment\n\nnot-an-entry\n10.0.0.0/8\n999.1.1.1\n"
    entries, skipped = parse_feed(text)
    assert [str(e) for e in entries] == ["203.0.113.0/24", "10.0.0.0/8"]
    assert [line_no for line_no, _ in skipped] == [4, 6]


def test_serialize_feed_is_canonical():
    entries, _ = parse_feed("203.0.113.0/24\n10.0.0.0/8\n203.0.113.0/24\n")
    assert serialize_feed(entries) == "10.0.0.0/8\n203.0.113.0/24\n"


def test_refresh_swaps_snapshot_and_bumps_version(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    blacklist = Blacklist(str(feed), 300.0)
    assert blacklist.contains("203.0.113.5", 0.0)  # the first lookup reads the file
    assert (blacklist.current.version, blacklist.current.loaded_at_ts) == (1, 0.0)
    feed.write_text("198.51.100.0/24\n")
    assert blacklist.contains("203.0.113.5", 299.9)  # not due yet
    assert blacklist.current.version == 1
    assert not blacklist.contains("203.0.113.5", 300.0)  # due exactly at the interval
    assert blacklist.current.version == 2
    assert blacklist.contains("198.51.100.9", 300.0)
    assert blacklist.error_count == 0
    assert blacklist.last_attempt_ts == 300.0


def test_failed_refresh_keeps_old_list_and_backs_off(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    blacklist = Blacklist(str(feed), 300.0)
    assert blacklist.contains("203.0.113.5", 0.0)
    # the file goes: the old snapshot keeps serving
    feed.unlink()
    assert blacklist.contains("203.0.113.5", 300.0)
    assert (blacklist.error_count, blacklist.current.version) == (1, 1)
    # a failed attempt still counts as an attempt; no hot retry loop
    assert blacklist.contains("203.0.113.5", 599.0)
    assert (blacklist.error_count, blacklist.last_attempt_ts) == (1, 300.0)
    feed.mkdir()  # a directory is no feed either
    assert blacklist.contains("203.0.113.5", 600.0)
    assert (blacklist.error_count, blacklist.last_attempt_ts) == (2, 600.0)
    feed.rmdir()
    blacklist.path += "\0"  # open() refuses a NUL in a path with a ValueError
    assert blacklist.contains("203.0.113.5", 900.0)
    assert (blacklist.error_count, blacklist.current.version) == (3, 1)
    blacklist.path = str(feed)
    feed.write_text("198.51.100.0/24\n")
    assert not blacklist.contains("203.0.113.5", 1200.0)  # recovered
    assert (blacklist.current.version, blacklist.error_count) == (2, 3)


def test_failed_refresh_propagates_other_errors(monkeypatch):
    def read_feed(path):
        raise KeyError("not a read failure")

    monkeypatch.setattr(blacklist, "read_feed", read_feed)
    with pytest.raises(KeyError):
        Blacklist("feed.txt", 300.0).contains("203.0.113.5", 0.0)


def test_no_path_never_refreshes(monkeypatch):
    def read_feed(path):
        raise AssertionError(f"read {path!r}")

    monkeypatch.setattr(blacklist, "read_feed", read_feed)
    never = Blacklist(None, 300.0)
    assert not never.contains("203.0.113.5", 0.0)
    assert not never.contains("203.0.113.5", 1e9)
    assert never.last_attempt_ts is None


def test_an_empty_snapshot_is_never_consulted(tmp_path, monkeypatch):
    calls = []
    lookup = CidrSnapshot.contains

    def counted(self, ip):
        calls.append(ip)
        return lookup(self, ip)

    monkeypatch.setattr(CidrSnapshot, "contains", counted)
    assert Blacklist(None, 300.0).contains("203.0.113.5", 0.0) is False
    feed = tmp_path / "feed.txt"
    feed.write_text("# nothing listed yet\nnot an address\n")
    listed = Blacklist(str(feed), 300.0)
    assert listed.contains("203.0.113.5", 0.0) is False
    assert (listed.current.version, calls) == (1, [])  # read, empty, not consulted
    feed.write_text("203.0.113.0/24\n")
    assert listed.contains("203.0.113.5", 300.0) is True
    assert calls == ["203.0.113.5"]


def test_a_memo_hit_is_answered_without_a_snapshot_call(tmp_path, monkeypatch):
    """A lookup calls CidrSnapshot.contains once per miss of Blacklist's
    memo and never on a hit; a refresh or a snapshot assigned by hand
    empties the memo before its next lookup."""
    calls = []
    lookup = CidrSnapshot.contains

    def counted(self, ip):
        calls.append(ip)
        return lookup(self, ip)

    monkeypatch.setattr(CidrSnapshot, "contains", counted)
    prefixes = {"203.0.113.0/24": (0xCB007100, 0xFFFFFF00), "198.51.100.7": (0xC6336407, 0xFFFFFFFF)}

    def ask(bl, ip, now, listed):
        value = blacklist.ipv4_to_int(ip)
        expected = value is not None and any(value & mask == base for base, mask in listed)
        before = len(calls)
        assert bl.contains(ip, now) is expected, ip
        return len(calls) - before

    feed = tmp_path / "feed.txt"
    feed.write_text("# nothing listed yet\n")
    bl = Blacklist(str(feed), 300.0)
    assert ask(bl, "203.0.113.5", 0.0, []) == 0  # an empty snapshot is never called
    assert ask(bl, "203.0.113.5", 1.0, []) == 0

    feed.write_text("".join(f"{p}\n" for p in prefixes))
    listed = list(prefixes.values())
    probes = ["203.0.113.5", "198.51.100.7", "198.51.100.8", "10.0.0.1", "not an address"]
    assert [ask(bl, ip, 300.0, listed) for ip in probes] == [1] * 5  # each miss calls once
    assert [ask(bl, ip, 301.0, listed) for ip in probes * 3] == [0] * 15  # each hit calls none
    assert bl._memo["203.0.113.5"] is True and len(bl._memo) == 5

    feed.write_text("198.51.100.8\n")  # a refresh empties the memo
    listed = [(0xC6336408, 0xFFFFFFFF)]
    assert ask(bl, "10.0.0.1", 600.0, listed) == 1 and bl._memo == {"10.0.0.1": False}
    assert bl.current.version == 3
    assert [ask(bl, ip, 600.0, listed) for ip in probes] == [1, 1, 1, 0, 1]  # 10.0.0.1 was asked first
    assert [ask(bl, ip, 601.0, listed) for ip in probes] == [0] * 5
    assert bl._memo["203.0.113.5"] is False and len(bl._memo) == 5

    bl.current = by_hand = CidrSnapshot([parse_cidr("10.0.0.0/8")])  # so does one assigned by hand
    listed = [(0x0A000000, 0xFF000000)]
    assert ask(bl, "10.0.0.1", 602.0, listed) == 1 and bl._memo == {"10.0.0.1": True}
    assert [ask(bl, ip, 602.0, listed) for ip in probes] == [1, 1, 1, 0, 1]  # 10.0.0.1 was asked first
    assert [ask(bl, ip, 603.0, listed) for ip in probes] == [0] * 5
    assert bl.current is by_hand and len(bl._memo) == 5
    bl.current = CidrSnapshot([])
    assert ask(bl, "10.0.0.1", 604.0, []) == 0


def test_two_blacklists_sharing_a_snapshot_keep_their_own_memos(monkeypatch):
    calls = []
    lookup = CidrSnapshot.contains

    def counted(self, ip):
        calls.append(ip)
        return lookup(self, ip)

    monkeypatch.setattr(CidrSnapshot, "contains", counted)
    shared = CidrSnapshot([parse_cidr("203.0.113.0/24")])
    one, other = Blacklist(None, 300.0), Blacklist(None, 300.0)
    one.current = other.current = shared
    assert one.contains("203.0.113.5", 0.0) is True
    assert other.contains("198.51.100.5", 0.0) is False
    assert (one._memo, other._memo) == ({"203.0.113.5": True}, {"198.51.100.5": False})
    assert other.contains("203.0.113.5", 1.0) is True  # the other's memo has not seen it
    assert one.contains("203.0.113.5", 1.0) is True and one.contains("198.51.100.5", 1.0) is False
    assert calls == ["203.0.113.5", "198.51.100.5", "203.0.113.5", "198.51.100.5"]
    assert one._memo == other._memo == {"203.0.113.5": True, "198.51.100.5": False}


def test_a_snapshot_assigned_by_hand_rejects_without_a_path():
    by_hand = Blacklist(None, 300.0)
    by_hand.current = CidrSnapshot([parse_cidr("203.0.113.0/24")])
    assert by_hand.contains("203.0.113.5", 0.0)
    assert not by_hand.contains("198.51.100.5", 1e9)
    assert by_hand.last_attempt_ts is None


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

    def open_url(opener, url, timeout):
        calls.append((url, timeout))
        return io.BytesIO(b"203.0.113.0/24\n\xff\n")

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", open_url)
    assert fetch_feed("https://feed.example/drop.txt") == "203.0.113.0/24\n\ufffd\n"
    assert calls == [("https://feed.example/drop.txt", 10.0)]


@pytest.mark.parametrize("url", ["file:///etc/hosts", "ftp://feed.example/drop.txt",
                                 "feed.txt", "data:,10.0.0.0/8"])
def test_fetch_feed_refuses_other_schemes(url, monkeypatch):
    monkeypatch.setattr(urllib.request.OpenerDirector, "open", None)  # never reached
    with pytest.raises(ValueError, match="not an http"):
        fetch_feed(url)


def test_feed_file_with_an_undecodable_byte_loses_only_that_line(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_bytes(b"10.0.0.0/8\n\xff\n192.168.0.0/16\n")
    assert read_feed(str(feed)) == "10.0.0.0/8\n\ufffd\n192.168.0.0/16\n"
    lookup = Blacklist(str(feed), 300.0)
    assert lookup.contains("10.1.2.3", 0.0)
    assert lookup.contains("192.168.9.9", 0.0)
    assert (lookup.error_count, len(lookup.current)) == (0, 2)


def test_feed_file_line_endings_keep_entries_and_skip_line_numbers(tmp_path):
    feed = tmp_path / "feed.txt"
    feed.write_bytes(b"10.0.0.0/8\r\nbad\r192.168.0.0/16\nworse\r\n\r203.0.113.0/24")
    entries, skipped = parse_feed(read_feed(str(feed)))
    assert (entries, skipped) == parse_feed("10.0.0.0/8\nbad\n192.168.0.0/16\nworse\n\n203.0.113.0/24")
    assert [line_no for line_no, _ in skipped] == [2, 4]
    assert len(entries) == 3


def test_feed_file_over_the_bound_is_refused_and_keeps_the_old_snapshot(tmp_path, monkeypatch):
    monkeypatch.setattr(blacklist, "MAX_FEED_BYTES", 64)
    feed = tmp_path / "feed.txt"
    feed.write_bytes(b"203.0.113.0/24\n#" + b"x" * 48)  # exactly the bound
    lookup = Blacklist(str(feed), 300.0)
    assert lookup.contains("203.0.113.5", 0.0)
    assert (lookup.error_count, lookup.current.version) == (0, 1)
    feed.write_bytes(b"198.51.100.0/24\n#" + b"x" * 48)  # one byte over
    with pytest.raises(ValueError, match="larger than 64 bytes"):
        read_feed(str(feed))
    assert lookup.contains("203.0.113.5", 300.0)
    assert not lookup.contains("198.51.100.9", 300.0)
    assert (lookup.error_count, lookup.current.version) == (1, 1)


def test_importing_the_cli_loads_no_http_stack():
    code = ("import sys, ddosgate.cli; "
            "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(ddosgate.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
