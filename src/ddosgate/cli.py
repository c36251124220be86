"""Command-line front end.

    ddosgate run   --trace trace.jsonl --out verdicts.jsonl [--stats s.json]
    ddosgate gen   --scenario mixed --seed 7 --out trace.jsonl
    ddosgate blacklist fetch --url https://feed.example/drop.txt --out feed.txt
    ddosgate check --ruleset custom.rules

`gen --out -` streams the trace to stdout (no manifest sidecar) and
`run --trace -` reads from stdin, so the two pipe together. Exit codes:
0 success, 1 runtime failure (I/O, bad trace data), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext

from . import blacklist as bl
from .config import ConfigError, apply_overrides, build_engine, default_config, parse_config, read_text
from .events import TraceParseError, serialize_trace_event
from .pipeline import OutOfOrderError, SandboxSink
from .trafficgen import SCENARIO_NAMES, Scenario, generate, summarize
from .waf import RulesetError, parse_ruleset

USAGE_EXIT = 2
RUNTIME_EXIT = 1


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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

    try:
        try:
            engine = build_engine(cfg)
        except RulesetError as exc:
            return _fail(f"ruleset: {exc}", USAGE_EXIT)
        # Opened only once the config is known good, so a config error
        # leaves an earlier capture intact.
        with open(cfg["sandbox.log_path"], "w", encoding="utf-8") as sandbox_fh:
            engine.sandbox = SandboxSink(sandbox_fh)
            # Undecodable bytes reach the parser as lone surrogates, which it
            # rejects as one bad line.
            if args.trace == "-":
                trace_fh = sys.stdin
                if isinstance(trace_fh, io.TextIOWrapper):
                    trace_fh.reconfigure(errors="surrogateescape")
            else:
                trace_fh = open(args.trace, encoding="utf-8", errors="surrogateescape")
            try:
                with open(args.out, "w", encoding="utf-8") as out_fh:
                    engine.run_trace(trace_fh, out_fh, strict=args.strict)
            finally:
                if trace_fh is not sys.stdin:
                    trace_fh.close()
            if args.stats:
                with open(args.stats, "w", encoding="utf-8") as stats_fh:
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
    scenario = Scenario(name=args.scenario, params=params, seed=args.seed,
                        duration_secs=args.duration)
    try:
        events = generate(scenario)
    except ValueError as exc:
        return _fail(str(exc), USAGE_EXIT)
    except OSError as exc:
        return _fail(str(exc), RUNTIME_EXIT)

    to_stdout = args.out == "-"
    try:
        with nullcontext(sys.stdout) if to_stdout else open(args.out, "w", encoding="utf-8") as out:
            for ev in events:
                out.write(serialize_trace_event(ev))
                out.write("\n")
        if not to_stdout:
            with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
                json.dump(summarize(scenario, events), fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        return _fail(str(exc), RUNTIME_EXIT)
    return 0


def cmd_blacklist_fetch(args) -> int:
    locator = args.url or args.path
    try:
        text = bl.fetch_feed(locator)
    except (OSError, ValueError) as exc:
        return _fail(f"fetch failed, output untouched: {exc}", RUNTIME_EXIT)
    entries, skipped = bl.parse_feed(text)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(bl.serialize_feed(entries))
    except OSError as exc:
        return _fail(str(exc), RUNTIME_EXIT)
    print(f"{len(entries)} entries written, {len(skipped)} lines skipped")
    for line_no, reason in skipped:
        print(f"  skipped line {line_no}: {reason}")
    return 0


def cmd_check(args) -> int:
    try:
        text = read_text(args.ruleset)
    except OSError as exc:
        return _fail(str(exc), USAGE_EXIT)
    try:
        ruleset = parse_ruleset(text)
    except RulesetError as exc:
        return _fail(str(exc), USAGE_EXIT)
    print(f"{len(ruleset)} rules")
    return 0


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
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--duration", type=float, default=10.0, metavar="SECONDS")
    gen_p.add_argument("--out", required=True,
                       help="trace output path, or - for stdout (no manifest)")
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
