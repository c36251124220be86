"""The config table: defaults from the layer dataclasses, every key
reaching its field, and bad values refused as ConfigError."""

import io
import re
import sys
from pathlib import Path

import pytest

from ddosgate.analyzer import DEFAULT_SIGNATURES
from ddosgate.config import ConfigError, apply_overrides, build_engine, default_config, read_text
from ddosgate.events import serialize_trace_event
from ddosgate.pipeline import EngineConfig, SandboxSink
from ddosgate.trafficgen import Scenario, generate
from ddosgate.waf import default_ruleset

PATH_KEYS = {"blacklist.path", "blacklist.url", "tcp.signatures_path", "waf.ruleset_path",
             "sandbox.log_path"}
FLOAT_KEYS = ("rate.rps", "blacklist.refresh_secs", "tcp.window_secs",
              "tcp.handshake_timeout_secs")

# key -> (text, attribute path on the engine, value it must arrive as);
# every value differs from the default
NON_DEFAULT = {
    "rate.rps": ("7.5", "config.limiter.rps", 7.5),
    "rate.burst": ("12", "config.limiter.burst", 12),
    "rate.drop_to_sandbox": ("yes", "config.rate_drop_to_sandbox", True),
    "blacklist.refresh_secs": ("120", "config.blacklist_refresh_secs", 120.0),
    "tcp.window_secs": ("20", "config.analyzer.window_secs", 20.0),
    "tcp.bucket_count": ("16", "config.analyzer.bucket_count", 16),
    "tcp.syn_half_open_per_source": ("61", "config.analyzer.syn_half_open_per_source", 61),
    "tcp.syn_half_open_global": ("601", "config.analyzer.syn_half_open_global", 601),
    "tcp.ack_flood_per_source": ("111", "config.analyzer.ack_flood_per_source", 111),
    "tcp.rst_flood_per_source": ("121", "config.analyzer.rst_flood_per_source", 121),
    "tcp.psh_anomaly_per_source": ("51", "config.analyzer.psh_anomaly_per_source", 51),
    "tcp.urg_anomaly_per_source": ("21", "config.analyzer.urg_anomaly_per_source", 21),
    "tcp.handshake_timeout_secs": ("6.5", "config.analyzer.handshake_timeout_secs", 6.5),
    "tcp.conn_table_max_entries": ("4096", "config.analyzer.conn_table_max_entries", 4096),
    "tcp.syncookie_secret": ("0x1234", "config.analyzer.syncookie_secret", 0x1234),
    "udp.min_len": ("16", "config.analyzer.udp_min_len", 16),
    "udp.max_len": ("1400", "config.analyzer.udp_max_len", 1400),
    "udp.validate_checksum": ("off", "config.analyzer.udp_validate_checksum", False),
    "udp.blocked_ports": ("19, 1900", "config.analyzer.udp_blocked_ports", frozenset({19, 1900})),
    "stats.top_n": ("3", "config.top_n", 3),
}

FUZZ_VALUES = ("nan", "inf", "-1", "0", "", "x")


def _attr(obj, path):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _build(settings):
    engine = build_engine(apply_overrides(default_config(), settings))
    engine.sandbox = SandboxSink(io.StringIO())
    return engine


def test_defaults_build_the_default_engine():
    engine = _build([])
    assert engine.config == EngineConfig()
    assert engine.config.analyzer.payload_signatures == DEFAULT_SIGNATURES
    assert engine.ruleset is default_ruleset()


def test_every_dataclass_key_reaches_its_field():
    assert set(NON_DEFAULT) == set(default_config()) - PATH_KEYS
    defaults = _build([])
    engine = _build([f"{key}={text}" for key, (text, _, _) in NON_DEFAULT.items()])
    for key, (_, path, value) in NON_DEFAULT.items():
        assert _attr(defaults, path) != value, key
        assert _attr(engine, path) == value, key


def test_path_keys_are_read_only_when_set(tmp_path):
    sigs = tmp_path / "sigs.txt"
    sigs.write_text("evil\n")
    rules = tmp_path / "custom.rules"
    rules.write_text('RULE 7 uri none contains "x" log\n')
    feed = tmp_path / "feed.txt"
    engine = _build([f"tcp.signatures_path={sigs}", f"waf.ruleset_path={rules}",
                     f"blacklist.path={feed}"])
    assert engine.config.analyzer.payload_signatures == (b"evil",)
    assert [rule.id for rule in engine.ruleset] == [7]
    assert engine.config.blacklist_locator == str(feed)
    with pytest.raises(ConfigError):
        _build([f"blacklist.path={feed}", "blacklist.url=http://feed.example/drop.txt"])


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_float_keys_refuse_non_finite(key, text):
    with pytest.raises(ConfigError) as exc:
        apply_overrides(default_config(), [f"{key}={text}"])
    assert key in str(exc.value)


@pytest.mark.parametrize("setting", ["stats.top_n=-1", "blacklist.refresh_secs=0",
                                     "blacklist.refresh_secs=-5"])
def test_engine_config_refuses_nonsense(setting):
    with pytest.raises(ConfigError):
        _build([setting])
    assert _build(["stats.top_n=0"]).config.top_n == 0


def test_config_fuzz_refuses_or_runs():
    """Every non-path key with each fuzz value: either ConfigError, or
    an engine that runs a short mixed trace to one verdict per line."""
    lines = [serialize_trace_event(e)
             for e in generate(Scenario("mixed", seed=11, duration_secs=1.0))]
    refused = ran = 0
    for key in sorted(set(default_config()) - PATH_KEYS):
        for value in FUZZ_VALUES:
            try:
                engine = _build([f"{key}={value}"])
            except ConfigError:
                refused += 1
                continue
            out = io.StringIO()
            engine.run_trace(lines, out)
            assert len(out.getvalue().splitlines()) == len(lines), (key, value)
            ran += 1
    assert refused + ran == len(NON_DEFAULT) * len(FUZZ_VALUES)
    assert refused > ran > 5


@pytest.mark.parametrize("settings", [
    ["tcp.window_secs=1e-320"],
    ["tcp.window_secs=1e-305", "tcp.bucket_count=1000"],
    ["tcp.bucket_count=1" + "0" * 400],
    ["tcp.bucket_count=1001"],
    ["tcp.bucket_count=100000000"],
    ["tcp.conn_table_max_entries=0"],
    ["tcp.conn_table_max_entries=-1"],
    ["udp.max_len=7"],
    ["udp.min_len=1501"],
])
def test_analyzer_config_refuses_meaningless_sizes(settings):
    with pytest.raises(ConfigError):
        _build(settings)


def _readme_config_rows():
    """(keys, default texts) for each row of README's Configuration table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        if line.startswith("| `"):
            _, keys, default, _meaning, _ = line.split("|")
            yield re.findall(r"`([^`]+)`", keys), default.strip().strip("`").split(" / ")


def test_readme_config_table_matches_defaults():
    """Every key is in the table once, and each default shown there
    parses to the default the dataclass field holds."""
    defaults = default_config()
    seen = []
    for keys, texts in _readme_config_rows():
        if len(texts) == 1:
            texts = texts * len(keys)
        assert len(texts) == len(keys), keys
        for key, text in zip(keys, texts):
            text = "" if text in ("unset", "built-in", "none") else text
            assert apply_overrides(default_config(), [f"{key}={text}"])[key] == defaults[key], key
            seen.append(key)
    assert sorted(seen) == sorted(defaults)


def test_burst_must_fit_in_a_float():
    biggest = str(int(sys.float_info.max))
    engine = _build([f"rate.burst={biggest}"])
    engine.run_trace([serialize_trace_event(e) for e in
                      generate(Scenario("normal", seed=3, duration_secs=1.0))], io.StringIO())
    with pytest.raises(ConfigError, match="burst"):
        _build(["rate.burst=1" + "0" * 400])


def test_undecodable_files_and_bad_signatures_are_config_errors(tmp_path):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"caf\xe9\n")
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        read_text(str(latin))
    for key in ("tcp.signatures_path", "waf.ruleset_path"):
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            _build([f"{key}={latin}"])
    sigs = tmp_path / "sigs.txt"
    sigs.write_text("/bin/sh\n\\u0100\n")
    with pytest.raises(ConfigError, match=r"tcp.signatures_path: line 2: bad signature"):
        _build([f"tcp.signatures_path={sigs}"])
