"""CIDR parsing, snapshot lookup vs a mask oracle, and refresh rules."""

import random

from ddosgate.blacklist import (
    BlacklistState,
    Cidr,
    CidrSnapshot,
    parse_cidr,
    parse_feed,
    refresh,
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


def test_refresh_swaps_snapshot_and_bumps_version():
    state = BlacklistState(source_locator="feed.txt", refresh_interval_secs=300.0)
    assert state.refresh_due(0.0)  # never attempted yet
    state = refresh(state, "203.0.113.0/24\n", now=0.0)
    assert state.current.version == 1
    assert state.current.contains("203.0.113.5")
    assert not state.refresh_due(100.0)
    assert state.refresh_due(300.0)
    state = refresh(state, "198.51.100.0/24\n", now=300.0)
    assert state.current.version == 2
    assert not state.current.contains("203.0.113.5")


def test_failed_refresh_keeps_old_list_and_backs_off():
    state = BlacklistState(source_locator="feed.txt", refresh_interval_secs=300.0)
    state = refresh(state, "203.0.113.0/24\n", now=0.0)
    # feed goes dark: old snapshot keeps serving
    state = refresh(state, None, now=300.0)
    assert state.error_count == 1
    assert state.current.version == 1
    assert state.current.contains("203.0.113.5")
    # a failed attempt still counts as an attempt; no hot retry loop
    assert not state.refresh_due(301.0)
    assert state.refresh_due(600.0)


def test_no_locator_never_refreshes():
    state = BlacklistState()
    assert not state.refresh_due(1e9)


def test_empty_snapshot_contains_nothing():
    snap = CidrSnapshot([])
    assert not snap.contains("10.0.0.1")
    assert len(snap) == 0


def test_entries_deduplicated_and_ordered():
    snap = CidrSnapshot([parse_cidr("10.0.0.0/8"), parse_cidr("10.0.0.0/8"),
                         parse_cidr("9.0.0.0/8")])
    assert [str(e) for e in snap.entries] == ["9.0.0.0/8", "10.0.0.0/8"]
    assert isinstance(snap.entries[0], Cidr)
