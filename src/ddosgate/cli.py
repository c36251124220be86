"""Command-line front end.

    ddosgate run   --trace trace.jsonl --out verdicts.jsonl [--stats s.json]
    ddosgate gen   --scenario mixed --seed 7 --out trace.jsonl
    ddosgate blacklist fetch --url https://feed.example/drop.txt --out feed.txt
    ddosgate check --ruleset custom.rules

`gen --out -` streams the trace to stdout and `run --trace -` reads from
stdin, so the two pipe together. `gen` writes its manifest sidecar
beside a file only, not for stdout, a device or a FIFO. Exit codes: 0
success, 1 runtime failure (I/O, bad trace data), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import contextmanager, nullcontext

from . import blacklist as bl
from .config import (_ascii, ConfigError, apply_overrides, build_engine, default_config,
                     parse_config, read_text)
from .events import TraceParseError, serialize_trace_event
from .pipeline import OutOfOrderError, SandboxSink
from .trafficgen import SCENARIO_NAMES, Scenario, generate, summarize
from .waf import RulesetError, parse_ruleset

USAGE_EXIT = 2
RUNTIME_EXIT = 1


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _is_stream(path: str) -> bool:
    """Whether ``path`` exists and is no regular file: a device or a FIFO,
    such as /dev/null, which holds no file to compare, swap or write beside."""
    return os.path.exists(path) and not os.path.isfile(path)


def _refuse_same_file(paths) -> None:
    """Raise ConfigError when an output names an input or another output,
    before anything is opened: the output would replace that input, or the
    two outputs would replace one another. ``paths`` are ``(writes,
    name, path)``, inputs first, a path of None unused. An output's path
    may not be empty; an input's empty path means unset. Inputs may share a
    file; a device or FIFO, such as /dev/null, is a stream and may repeat."""
    seen = {}
    for writes, name, path in paths:
        if writes and path == "":
            raise ConfigError(f"{name} names no file: the path is empty")
        if path and not _is_stream(path):
            other = seen.setdefault(os.path.realpath(path), name)
            if writes and other != name:
                raise ConfigError(f"{other} and {name} name the same file: {path}")


@contextmanager
def _writing(path: str):
    """Yield a text file to write ``path``'s new contents to: a new file
    beside ``path``, moved into place when the block ends without an
    error, so a reader sees the old file or the new one, never part of
    one. On any error, an interrupt included, the new file is removed and
    the old one stays. A symbolic link keeps its place and the file it
    names is replaced; a stream (a FIFO, /dev/null) has no file to swap,
    so it is written through. An error opening the new file names
    ``path``."""
    if _is_stream(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_config(args) -> dict:
    cfg = default_config()
    if args.config:
        parse_config(read_text(args.config), cfg)
    apply_overrides(cfg, args.set or [])
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args)
    except OSError as exc:
        return _fail(f"cannot read config: {exc}", USAGE_EXIT)
    _refuse_same_file(((False, "--trace", None if args.trace == "-" else args.trace),
                       (False, "--config", args.config),
                       (False, "blacklist.path", cfg["blacklist.path"]),
                       (False, "waf.ruleset_path", cfg["waf.ruleset_path"]),
                       (False, "tcp.signatures_path", cfg["tcp.signatures_path"]),
                       (True, "--out", args.out), (True, "--stats", args.stats),
                       (True, "sandbox.log_path", cfg["sandbox.log_path"])))

    try:
        try:
            engine = build_engine(cfg)
        except RulesetError as exc:
            return _fail(f"ruleset: {exc}", USAGE_EXIT)
        # Standard input is read as a trace file is: undecodable bytes reach
        # the parser as lone surrogates, which it rejects as one bad line,
        # and "\r", "\n" and "\r\n" each end a line.
        from_stdin = args.trace == "-"
        if from_stdin and isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(errors="surrogateescape", newline=None)
        with (nullcontext(sys.stdin) if from_stdin
              else open(args.trace, encoding="utf-8", errors="surrogateescape")) as trace_fh, \
                _writing(cfg["sandbox.log_path"]) as sandbox_fh, _writing(args.out) as out_fh, \
                (_writing(args.stats) if args.stats else nullcontext()) as stats_fh:
            engine.sandbox = SandboxSink(sandbox_fh)
            engine.run_trace(trace_fh, out_fh, strict=args.strict)
            if args.stats:
                json.dump(engine.stats_snapshot(), stats_fh, indent=2)
                stats_fh.write("\n")
    except (TraceParseError, OutOfOrderError) as exc:
        return _fail(str(exc), RUNTIME_EXIT)
    except UnicodeDecodeError as exc:  # a stdin stand-in that decodes strictly
        return _fail(f"trace is not UTF-8: {exc}", RUNTIME_EXIT)
    except OSError as exc:
        return _fail(str(exc), RUNTIME_EXIT)
    return 0


def cmd_gen(args) -> int:
    params: dict = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            return _fail(f"--param needs key=value, got {item!r}", USAGE_EXIT)
        params[key.strip()] = value.strip()
    to_stdout = args.out == "-"
    manifest = None if to_stdout or _is_stream(args.out) else args.out + ".manifest.json"
    _refuse_same_file(((False, "--param feed", params.get("feed")),
                       (True, "--out", None if to_stdout else args.out), (True, "the manifest", manifest)))
    scenario = Scenario(name=args.scenario, params=params, seed=args.seed,
                        duration_secs=args.duration)
    try:
        events = generate(scenario)
    except ValueError as exc:
        return _fail(str(exc), USAGE_EXIT)
    except OSError as exc:
        return _fail(str(exc), RUNTIME_EXIT)

    try:
        with nullcontext(sys.stdout) if to_stdout else _writing(args.out) as out, \
                _writing(manifest) if manifest else nullcontext() as fh:
            for ev in events:
                out.write(serialize_trace_event(ev))
                out.write("\n")
            if manifest:
                json.dump(summarize(scenario, events), fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        return _fail(str(exc), RUNTIME_EXIT)
    return 0


def cmd_blacklist_fetch(args) -> int:
    _refuse_same_file(((True, "--out", args.out),))
    try:
        text = bl.fetch_feed(args.url) if args.url is not None else bl.read_feed(args.path)
    except (OSError, ValueError) as exc:
        return _fail(f"fetch failed, output untouched: {exc}", RUNTIME_EXIT)
    entries, skipped = bl.parse_feed(text)
    try:
        with _writing(args.out) as fh:
            fh.write(bl.serialize_feed(entries))
    except OSError as exc:
        return _fail(f"write failed, output untouched: {exc}", RUNTIME_EXIT)
    print(f"{len(entries)} entries written, {len(skipped)} lines skipped")
    for line_no, reason in skipped:
        print(f"  skipped line {line_no}: {reason}")
    return 0


def cmd_check(args) -> int:
    try:
        ruleset = parse_ruleset(read_text(args.ruleset))
    except (OSError, RulesetError) as exc:
        return _fail(str(exc), USAGE_EXIT)
    print(f"{len(ruleset)} rules")
    return 0


def _ascii_number(convert):
    """An argparse type: ``convert`` of ASCII text only, as config reads numbers."""
    def parse(text: str):
        return convert(_ascii(text))

    parse.__name__ = convert.__name__  # argparse's error names the type: "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddosgate",
                                     description="Layered trace-driven DDoS mitigation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a trace through the four-layer pipeline")
    run_p.add_argument("--config", help="config file (key = value lines)")
    run_p.add_argument("--trace", required=True, help="input trace JSONL, or - for stdin")
    run_p.add_argument("--out", required=True, help="verdict log JSONL output path")
    run_p.add_argument("--stats", help="also write a stats JSON report here")
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True,
                      help="abort on the first malformed or out-of-order line (default)")
    mode.add_argument("--lenient", dest="strict", action="store_false",
                      help="skip malformed/out-of-order lines and count them")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (beats the config file)")
    run_p.set_defaults(func=cmd_run)

    gen_p = sub.add_parser("gen", help="generate a labeled synthetic trace")
    gen_p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    gen_p.add_argument("--seed", type=_ascii_number(int), default=Scenario._field_defaults["seed"])
    gen_p.add_argument("--duration", type=_ascii_number(float),
                       default=Scenario._field_defaults["duration_secs"], metavar="SECONDS")
    gen_p.add_argument("--out", required=True,
                       help="trace output path, or - for stdout (no manifest, nor for a device or FIFO)")
    gen_p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="scenario parameter override")
    gen_p.set_defaults(func=cmd_gen)

    bl_p = sub.add_parser("blacklist", help="blacklist feed utilities")
    bl_sub = bl_p.add_subparsers(dest="subcommand", required=True)
    fetch_p = bl_sub.add_parser("fetch", help="fetch, validate, and normalize a CIDR feed")
    src = fetch_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--url", help="http(s) feed location")
    src.add_argument("--path", help="local feed file")
    fetch_p.add_argument("--out", required=True, help="normalized feed output path")
    fetch_p.set_defaults(func=cmd_blacklist_fetch)

    check_p = sub.add_parser("check", help="parse a WAF ruleset and report")
    check_p.add_argument("--ruleset", required=True)
    check_p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc), USAGE_EXIT)
