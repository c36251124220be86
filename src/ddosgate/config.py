"""Flat key=value configuration with dotted keys and strict validation.

Example file::

    # limiter
    rate.rps = 5
    rate.burst = 10
    blacklist.path = /var/lib/feeds/drop.txt
    udp.blocked_ports = 19,1900

Lines starting with '#' and blank lines are ignored. Every key has a
built-in default, the default of the layer config field it fills;
an unknown key is an error, not a warning, so typos cannot silently
disable a layer. Command-line ``--set key=value`` overrides beat the
file, which beats the defaults.
"""

from __future__ import annotations

import math
from typing import Callable

from .analyzer import AnalyzerConfig, parse_signatures
from .events import LineError, content_lines
from .pipeline import Engine, EngineConfig
from .ratelimit import LimiterConfig
from .waf import parse_ruleset


class ConfigError(LineError):
    """A bad config line, override, file or value."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    return int(text, 0)  # base 0 admits hex for the cookie secret


def _parse_ports(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    ports = set()
    for part in text.split(","):
        port = int(part.strip())
        if not 0 <= port <= 65535:
            raise ValueError(f"port {port} out of range")
        ports.add(port)
    return frozenset(ports)


# key -> (parser, layer config, field): the key fills that field and its
# default is that field's default. The path keys fill no field; the
# third item is their own default.
_KEYS: dict[str, tuple[Callable[[str], object], type | None, str]] = {
    "rate.rps": (_parse_float, LimiterConfig, "rps"),
    "rate.burst": (_parse_int, LimiterConfig, "burst"),
    "rate.drop_to_sandbox": (_parse_bool, EngineConfig, "rate_drop_to_sandbox"),
    "blacklist.path": (str, None, ""),
    "blacklist.refresh_secs": (_parse_float, EngineConfig, "blacklist_refresh_secs"),
    "tcp.window_secs": (_parse_float, AnalyzerConfig, "window_secs"),
    "tcp.bucket_count": (_parse_int, AnalyzerConfig, "bucket_count"),
    "tcp.syn_half_open_per_source": (_parse_int, AnalyzerConfig, "syn_half_open_per_source"),
    "tcp.syn_half_open_global": (_parse_int, AnalyzerConfig, "syn_half_open_global"),
    "tcp.ack_flood_per_source": (_parse_int, AnalyzerConfig, "ack_flood_per_source"),
    "tcp.rst_flood_per_source": (_parse_int, AnalyzerConfig, "rst_flood_per_source"),
    "tcp.psh_anomaly_per_source": (_parse_int, AnalyzerConfig, "psh_anomaly_per_source"),
    "tcp.urg_anomaly_per_source": (_parse_int, AnalyzerConfig, "urg_anomaly_per_source"),
    "tcp.handshake_timeout_secs": (_parse_float, AnalyzerConfig, "handshake_timeout_secs"),
    "tcp.conn_table_max_entries": (_parse_int, AnalyzerConfig, "conn_table_max_entries"),
    "tcp.syncookie_secret": (_parse_int, AnalyzerConfig, "syncookie_secret"),
    "tcp.signatures_path": (str, None, ""),
    "udp.min_len": (_parse_int, AnalyzerConfig, "udp_min_len"),
    "udp.max_len": (_parse_int, AnalyzerConfig, "udp_max_len"),
    "udp.validate_checksum": (_parse_bool, AnalyzerConfig, "udp_validate_checksum"),
    "udp.blocked_ports": (_parse_ports, AnalyzerConfig, "udp_blocked_ports"),
    "waf.ruleset_path": (str, None, ""),
    "sandbox.log_path": (str, None, "sandbox.jsonl"),
    "stats.top_n": (_parse_int, EngineConfig, "top_n"),
}


def default_config() -> dict:
    return {key: owner._field_defaults[name] if owner else name
            for key, (_, owner, name) in _KEYS.items()}


def _assign(cfg: dict, key: str, raw: str, line_no: int | None) -> None:
    entry = _KEYS.get(key)
    if entry is None:
        raise ConfigError(f"unknown config key {key!r}", line_no)
    coerce = entry[0]
    try:
        cfg[key] = coerce(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}", line_no) from None


def parse_config(text: str, cfg: dict | None = None) -> dict:
    cfg = cfg if cfg is not None else default_config()
    for line_no, line in content_lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        _assign(cfg, key.strip(), value.strip(), line_no)
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        _assign(cfg, key.strip(), value.strip(), None)
    return cfg


def read_text(path: str) -> str:
    """The text of a config-side file; bytes that are not UTF-8 are a
    ConfigError, unreadable files an OSError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _fields(cfg: dict, owner: type) -> dict:
    """The keyword arguments of ``owner`` that config keys fill."""
    return {name: cfg[key] for key, (_, cls, name) in _KEYS.items() if cls is owner}


def build_engine(cfg: dict) -> Engine:
    """Assemble an Engine from a validated config map.

    File-shaped values (ruleset, signatures) are read here, and only
    when their path is set; unreadable files surface as OSError for the
    caller to map to a runtime exit, undecodable ones and bad signature
    lines as ConfigError. The engine has no capture sink until the
    caller sets ``engine.sandbox``.
    """
    analyzer = _fields(cfg, AnalyzerConfig)
    if cfg["tcp.signatures_path"]:
        text = read_text(cfg["tcp.signatures_path"])
        try:
            analyzer["payload_signatures"] = parse_signatures(text)
        except ValueError as exc:
            raise ConfigError(f"tcp.signatures_path: {exc}") from None

    ruleset = None
    if cfg["waf.ruleset_path"]:
        ruleset = parse_ruleset(read_text(cfg["waf.ruleset_path"]))

    try:
        engine_cfg = EngineConfig(
            limiter=LimiterConfig(**_fields(cfg, LimiterConfig)),
            analyzer=AnalyzerConfig(**analyzer),
            blacklist_path=cfg["blacklist.path"] or None,
            **_fields(cfg, EngineConfig),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return Engine(engine_cfg, ruleset=ruleset)
