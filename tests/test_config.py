"""The config table: defaults from the layer config fields, every key
reaching its field, and bad values refused as ConfigError."""

import io
import re
import sys
import warnings
from pathlib import Path

import pytest

from ddosgate.analyzer import DEFAULT_SIGNATURES, AnalyzerConfig, parse_signatures
from ddosgate.blacklist import Cidr, parse_feed
from ddosgate.config import ConfigError, apply_overrides, build_engine, default_config, parse_config, read_text
from ddosgate.events import LineError, serialize_trace_event
from ddosgate.pipeline import EngineConfig, SandboxSink
from ddosgate.ratelimit import LimiterConfig
from ddosgate.trafficgen import Scenario, generate
from ddosgate.waf import default_ruleset, parse_ruleset

PATH_KEYS = {"blacklist.path", "tcp.signatures_path", "waf.ruleset_path", "sandbox.log_path"}
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

# "\u0661\u0660" is ten in Arabic-Indic digits, "\uff11\uff10" in fullwidth ones
FUZZ_VALUES = ("nan", "inf", "-1", "0", "", "x", "\u0661\u0660", "\uff11\uff10")


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


def test_every_config_key_reaches_its_field():
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
    assert engine.config.blacklist_path == str(feed)


@pytest.mark.parametrize("text", ["\u0661\u0660", "\uff11\uff10", "1.\u0665", "19,\u0661\u0669"])
def test_numbers_are_ascii(text):
    """Every non-path key refuses digits outside ASCII, as the trace, the
    feed and the WAF do: Arabic-Indic or fullwidth ten is not ten."""
    for key in sorted(set(default_config()) - PATH_KEYS):
        with pytest.raises(ConfigError, match=re.escape(key)):
            apply_overrides(default_config(), [f"{key}={text}"])


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_float_keys_refuse_non_finite(key, text):
    with pytest.raises(ConfigError) as exc:
        apply_overrides(default_config(), [f"{key}={text}"])
    assert key in str(exc.value)


# (layer config, field, a value its checks refuse)
_BAD_FIELDS = [(LimiterConfig, "rps", float("nan")), (LimiterConfig, "burst", 0),
               (EngineConfig, "blacklist_refresh_secs", float("nan")), (EngineConfig, "top_n", -1),
               (AnalyzerConfig, "handshake_timeout_secs", float("nan")),
               (AnalyzerConfig, "udp_max_len", 7)]


def _with(cls, name, value):
    return [value if field == name else default for field, default in cls._field_defaults.items()]


@pytest.mark.parametrize("route", [
    lambda cls, name, value: cls(**{name: value}),
    lambda cls, name, value: cls(*_with(cls, name, value)),
    lambda cls, name, value: cls._make(_with(cls, name, value)),
    lambda cls, name, value: cls()._replace(**{name: value}),
], ids=["keywords", "positional", "_make", "_replace"])
@pytest.mark.parametrize("cls, name, value", _BAD_FIELDS, ids=[name for _, name, _ in _BAD_FIELDS])
def test_layer_configs_refuse_nan(route, cls, name, value):
    """The layer configs refuse NaN and other bad values themselves, not
    only the CLI's parser, on every route that builds one."""
    with pytest.raises(ValueError, match=name):
        route(cls, name, value)


@pytest.mark.parametrize("cls", [LimiterConfig, EngineConfig, AnalyzerConfig])
def test_layer_configs_are_tuples_of_their_fields(cls):
    cfg = cls()
    assert cfg == tuple(cls._field_defaults.values())
    assert cfg._replace() == cfg and type(cfg._replace()) is cls
    assert cls._make(cfg) == cfg and hash(cls._make(cfg)) == hash(cfg)
    with pytest.raises(AttributeError):
        cfg.extra = 1


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
    parses to the default the config field holds."""
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


def test_an_unknown_escape_is_a_bad_signature():
    """The codec reads \\q as itself and warns; a signature file refuses
    it, whatever the warning filters say."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(LineError) as exc:
            parse_signatures("/bin/sh\n\\q\n")
    assert str(exc.value) == "line 2: bad signature '\\\\q': unknown escape"


# (parser, a valid item, what the parser reads from it, a bad item)
_FORMATS = {
    "config": (parse_config, "rate.rps = 7", lambda cfg: cfg["rate.rps"] == 7.0, "rate.rps 7"),
    "ruleset": (parse_ruleset, 'RULE 7 uri none contains "x" sandbox',
                lambda rules: [rule.id for rule in rules] == [7], 'RULE 8 nowhere none contains "x" sandbox'),
    "signatures": (parse_signatures, r"ab\x41", lambda sigs: sigs == (b"abA",), r"\xZZ"),
    "feed": (parse_feed, "10.1.0.0/16", lambda read: read == ([Cidr(0x0A010000, 16)], []), "10.1.0.0/33"),
}


@pytest.mark.parametrize("name", _FORMATS)
def test_config_side_formats_share_one_line_layout(name):
    """An indented comment, a whitespace-only line and CRLF endings are
    read alike by all four formats, and a bad item is named by its line."""
    parse, valid, read_ok, bad = _FORMATS[name]
    head = f"  # a comment\r\n \t \r\n  {valid}  \r\n\r\n"
    assert read_ok(parse(head))
    text = head + bad + "\r\n"
    if parse is parse_feed:
        assert parse(text) == ([Cidr(0x0A010000, 16)], [(5, "bad_address")])
        return
    with pytest.raises(LineError) as exc:
        parse(text)
    assert exc.value.line_no == 5 and str(exc.value).startswith("line 5: ")
