"""End-to-end command behavior, exit codes, and config precedence."""

import json
import os
import random
import resource
import sys
import threading

import pytest

from ddosgate import blacklist, cli
from ddosgate.config import apply_overrides, default_config, parse_config
from ddosgate.events import int_to_ipv4
from ddosgate.pipeline import Engine
from ddosgate.waf import DEFAULT_RULESET_TEXT


def test_gen_writes_trace_and_manifest(tmp_path, cli_run):
    out = tmp_path / "trace.jsonl"
    proc = cli_run(["gen", "--scenario", "normal", "--seed", "1", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    manifest = json.loads((tmp_path / "trace.jsonl.manifest.json").read_text())
    assert manifest["events"] == len(lines) > 0
    assert manifest["label_counts"] == {"benign": len(lines)}


def test_gen_writes_no_manifest_beside_a_fifo(tmp_path, cli_run):
    # a device or FIFO, such as /dev/null, is a stream: nothing is written beside it
    fifo = tmp_path / "trace.pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    args = ["gen", "--scenario", "normal", "--seed", "1", "--duration", "5", "--out"]
    proc = cli_run(args + [str(fifo)], timeout=60)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["trace.pipe"]
    assert cli_run(args + [str(tmp_path / "trace.jsonl")]).returncode == 0
    assert received == [(tmp_path / "trace.jsonl").read_bytes()]


def test_gen_same_seed_identical_files(tmp_path, cli_run):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cli_run(["gen", "--scenario", "mixed", "--seed", "5", "--duration", "2", "--out", str(a)])
    cli_run(["gen", "--scenario", "mixed", "--seed", "5", "--duration", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_unknown_scenario_exits_2(tmp_path, cli_run):
    proc = cli_run(["gen", "--scenario", "smurf", "--out", str(tmp_path / "x")])
    assert proc.returncode == 2


def test_gen_unknown_param_exits_2(tmp_path, cli_run):
    proc = cli_run(["gen", "--scenario", "normal", "--out", str(tmp_path / "x"),
                    "--param", "bogus=1"])
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def test_gen_refuses_values_it_cannot_honour(tmp_path, cli_run):
    # period=0 used to append pulse rows until memory ran out; inf and 1e308
    # used to end in an OverflowError traceback. The timeout makes a hang fail.
    out = tmp_path / "x.jsonl"
    for args in (["--scenario", "low_rate_pulse", "--param", "period=0"],
                 ["--scenario", "mixed", "--param", "pulse_period=-1"],
                 ["--scenario", "syn_flood", "--param", "rate=inf"],
                 ["--scenario", "normal", "--param", "sources=nan"],
                 ["--scenario", "normal", "--duration", "inf"],
                 ["--scenario", "normal", "--duration", "1e308"],
                 ["--scenario", "low_rate_pulse", "--param", "period=1e308"],
                 ["--scenario", "syn_flood", "--param", "rate=1e308"],
                 ["--scenario", "low_rate_pulse", "--param", "width=1e308"],
                 ["--scenario", "syn_flood", "--param", "rate=\u0661\u0660"],
                 ["--scenario", "normal", "--param", "sources=\uff11\uff10"]):
        proc = cli_run(["gen", *args, "--out", str(out)], timeout=20)
        assert proc.returncode == 2, args
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), args
        assert not out.exists()


def test_gen_reads_seed_and_duration_as_ascii(tmp_path, cli_run):
    # Arabic-Indic and fullwidth digits, which int() and float() would read
    out = tmp_path / "x.jsonl"
    for flag, text, kind in (("--seed", "\u0667", "int"), ("--seed", "\uff17", "int"),
                             ("--duration", "\u0661\u0660", "float"),
                             ("--duration", "\uff11\uff10", "float")):
        proc = cli_run(["gen", "--scenario", "normal", flag, text, "--out", str(out)])
        assert proc.returncode == 2 and f"argument {flag}: invalid {kind} value" in proc.stderr, text
        assert not out.exists()


def test_gen_stdout_matches_file(tmp_path, cli_run):
    out = tmp_path / "t.jsonl"
    args = ["gen", "--scenario", "udp_flood", "--seed", "4", "--duration", "2"]
    assert cli_run([*args, "--out", str(out)]).returncode == 0
    assert cli_run([*args, "--out", "-"]).stdout == out.read_text()


def test_run_produces_verdicts_and_stats(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    cli_run(["gen", "--scenario", "syn_flood", "--seed", "42", "--out", str(trace)])
    proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                    "--stats", str(tmp_path / "s.json"),
                    "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"])
    assert proc.returncode == 0, proc.stderr
    verdicts = (tmp_path / "v.jsonl").read_text().splitlines()
    assert len(verdicts) == len(trace.read_text().splitlines())
    stats = json.loads((tmp_path / "s.json").read_text())
    assert stats["events"] == len(verdicts)
    assert (tmp_path / "sb.jsonl").read_text()  # flood got sandboxed


def test_run_missing_trace_exits_1(tmp_path, cli_run):
    proc = cli_run(["run", "--trace", str(tmp_path / "absent.jsonl"),
                    "--out", str(tmp_path / "v.jsonl"),
                    "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"])
    assert proc.returncode == 1


# Every output of run, gen and blacklist fetch, named from the test's
# directory, which also holds a trace t.jsonl and a feed raw.txt.
_OUTPUTS = {"out": "o.txt", "stats": "s.json", "sandbox": "sb.jsonl", "manifest": "o.txt.manifest.json"}
_WRITERS = {
    "run": ["run", "--trace", "{trace}", "--out", "{out}", "--stats", "{stats}",
            "--set", "sandbox.log_path={sandbox}"],
    "gen": ["gen", "--scenario", "normal", "--seed", "1", "--duration", "1", "--out", "{out}"],
    "fetch": ["blacklist", "fetch", "--path", "raw.txt", "--out", "{out}"],
}
# (command, output, failure): a missing directory for one output (for
# gen's manifest, which lives beside --out, a directory in its place), a
# strict-mode bad line, a missing trace, or an interrupt once the command's
# work is done: after the whole trace for run, while the manifest is
# written for gen, while the feed is written for fetch.
_FAILURES = [*(("run", output, "missing_dir") for output in ("out", "stats", "sandbox")),
             ("gen", "out", "missing_dir"), ("gen", "manifest", "directory_in_place"),
             ("fetch", "out", "missing_dir"), ("run", None, "bad_line"), ("run", None, "missing_trace"),
             ("run", None, "interrupt"), ("gen", None, "interrupt"), ("fetch", None, "interrupt")]
_INTERRUPTED = {"run": (Engine, "run_trace"), "gen": (cli, "summarize"), "fetch": (blacklist, "serialize_feed")}


def _tree(root):
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


@pytest.mark.parametrize("command, output, failure", _FAILURES,
                         ids=["-".join(filter(None, case)) for case in _FAILURES])
def test_a_failed_command_keeps_every_output(tmp_path, monkeypatch, capsys, command, output, failure):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("203.0.113.0/24\n")
    (tmp_path / "t.jsonl").write_text(_udp_line(1) + ('{"bad": 1}\n' if failure == "bad_line" else _udp_line(2)))
    for name in _OUTPUTS.values():
        (tmp_path / name).write_bytes(b"earlier\n")
    paths = {**_OUTPUTS, "trace": "nope.jsonl" if failure == "missing_trace" else "t.jsonl"}
    if failure == "missing_dir":
        paths[output] = f"nodir/{paths[output]}"
    elif failure == "directory_in_place":
        (tmp_path / paths[output]).unlink()
        (tmp_path / paths[output]).mkdir()
    elif failure == "interrupt":
        owner, name = _INTERRUPTED[command]
        real = getattr(owner, name)

        def interrupted(*args, **kwargs):
            real(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(owner, name, interrupted)
    before = _tree(tmp_path)
    args = [arg.format(**paths) for arg in _WRITERS[command]]
    if failure == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            cli.main(args)
    else:
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        named = f"'{paths[output]}'" if output else {"bad_line": "line 2: ", "missing_trace": "'nope.jsonl'"}[failure]
        assert ".tmp" not in err and named in err, err
    assert _tree(tmp_path) == before  # every file as it was, and no new one, such as a *.tmp


@pytest.mark.parametrize("setting", ["rate.rp=9", "blacklist.url=http://127.0.0.1:9/drop.txt"])
def test_run_unknown_config_key_exits_2(setting, tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                    "--set", setting])
    assert proc.returncode == 2
    key = setting.partition("=")[0]
    assert proc.stderr.splitlines() == [f"error: unknown config key {key!r}"]


def test_run_non_finite_config_value_exits_2_without_traceback(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    for setting in ("tcp.window_secs=nan", "rate.rps=inf"):
        proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                        "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}", "--set", setting])
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and setting.split("=")[0] in proc.stderr


def test_run_meaningless_size_exits_2_without_traceback(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    cli_run(["gen", "--scenario", "mixed", "--seed", "2", "--duration", "1", "--out", str(trace)])
    for setting in ("tcp.window_secs=1e-320", "tcp.conn_table_max_entries=0", "udp.max_len=7"):
        proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                        "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}", "--set", setting])
        assert proc.returncode == 2, setting
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


def test_run_config_error_keeps_existing_capture(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    sandbox = tmp_path / "sb.jsonl"
    sandbox.write_bytes(b'{"earlier":"capture"}\n')
    proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                    "--set", f"sandbox.log_path={sandbox}", "--set", "tcp.bucket_count=0"])
    assert proc.returncode == 2
    assert sandbox.read_bytes() == b'{"earlier":"capture"}\n'
    # a run that starts does replace it
    proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                    "--set", f"sandbox.log_path={sandbox}"])
    assert proc.returncode == 0, proc.stderr
    assert sandbox.read_bytes() == b""


def test_run_sandbox_to_devnull(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    cli_run(["gen", "--scenario", "udp_flood", "--seed", "4", "--duration", "2", "--out", str(trace)])
    proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                    "--set", f"sandbox.log_path={os.devnull}"])
    assert proc.returncode == 0, proc.stderr
    assert '"sandbox"' in (tmp_path / "v.jsonl").read_text()


def test_run_reads_stdin_for_piping(tmp_path, cli_run):
    gen = cli_run(["gen", "--scenario", "normal", "--seed", "3", "--out", "-"])
    assert gen.returncode == 0
    proc = cli_run(
        ["run", "--trace", "-", "--out", str(tmp_path / "v.jsonl"),
         "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"],
        input=gen.stdout)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "v.jsonl").read_text().splitlines()) == len(gen.stdout.splitlines())


# Pairings of an output of run with an input or another output that name
# one file, over the defaults below; a sandbox of None leaves
# sandbox.log_path at its default, sandbox.jsonl. The config-side inputs
# (--config and the three path keys, given by --set) are named only when
# a pairing names them.
_SAME_FILE = {
    "out_is_trace": {"out": "t.jsonl"},
    "stats_is_trace": {"stats": "t.jsonl"},
    "sandbox_is_trace": {"sandbox": "t.jsonl"},
    "trace_is_default_sandbox": {"trace": "sandbox.jsonl", "sandbox": None},
    "out_is_sandbox": {"out": "sb.jsonl"},
    "stats_is_out": {"stats": "v.jsonl"},
    "stats_is_sandbox": {"stats": "sb.jsonl"},
    "out_is_symlink_to_trace": {"out": "link.jsonl"},
    "out_is_config": {"config": "c.conf", "out": "c.conf"},
    "stats_is_config": {"config": "c.conf", "stats": "c.conf"},
    "sandbox_is_config": {"config": "c.conf", "sandbox": "c.conf"},
    "out_is_feed": {"blacklist.path": "feed.txt", "out": "feed.txt"},
    "stats_is_feed": {"blacklist.path": "feed.txt", "stats": "feed.txt"},
    "sandbox_is_ruleset": {"waf.ruleset_path": "r.rules", "sandbox": "r.rules"},
    "out_is_ruleset": {"waf.ruleset_path": "r.rules", "out": "r.rules"},
    "stats_is_signatures": {"tcp.signatures_path": "sig.txt", "stats": "sig.txt"},
    "out_is_signatures": {"tcp.signatures_path": "sig.txt", "out": "sig.txt"},
    "sandbox_is_feed": {"blacklist.path": "feed.txt", "sandbox": "feed.txt"},
}
_INPUT_KEYS = ("blacklist.path", "waf.ruleset_path", "tcp.signatures_path")


def _udp_line(event_id: int) -> str:
    return json.dumps({"event_id": event_id, "ts": float(event_id), "kind": "udp", "src_ip": "10.0.0.2",
                       "dst_ip": "10.0.0.1", "src_port": 1, "dst_port": 53, "length": 8,
                       "checksum": 0, "payload_b64": ""}) + "\n"


@pytest.mark.parametrize("paths", _SAME_FILE.values(), ids=_SAME_FILE)
def test_run_refuses_two_paths_to_one_file(tmp_path, cli_run, paths):
    paths = {"trace": "t.jsonl", "out": "v.jsonl", "stats": "s.json", "sandbox": "sb.jsonl", **paths}
    trace = tmp_path / paths["trace"]
    trace.write_text(_udp_line(1))
    os.symlink(trace.name, tmp_path / "link.jsonl")
    if "config" in paths:
        (tmp_path / paths["config"]).write_text("# no keys\n")
    for name in ("v.jsonl", "s.json", "sb.jsonl", *(paths[key] for key in _INPUT_KEYS if key in paths)):
        if not (tmp_path / name).exists():
            (tmp_path / name).write_bytes(b"earlier\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    args = ["run", "--trace", paths["trace"], "--out", paths["out"], "--stats", paths["stats"]]
    if paths["sandbox"] is not None:
        args += ["--set", f"sandbox.log_path={paths['sandbox']}"]
    if "config" in paths:
        args += ["--config", paths["config"]]
    args += [item for key in _INPUT_KEYS if key in paths for item in ("--set", f"{key}={paths[key]}")]
    proc = cli_run(args, cwd=tmp_path)
    assert _one_error_line(proc) and "name the same file" in proc.stderr, proc.stderr
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# an empty output path, each named from tmp_path; an input's empty path means unset
_EMPTY_OUTPUT = {
    "out": ["run", "--trace", "t.jsonl", "--out", "", "--stats", "s.json", "--set", "sandbox.log_path=sb.jsonl"],
    "stats": ["run", "--trace", "t.jsonl", "--out", "v.jsonl", "--stats", "", "--set", "sandbox.log_path=sb.jsonl"],
    "sandbox": ["run", "--trace", "t.jsonl", "--out", "v.jsonl", "--stats", "s.json", "--set", "sandbox.log_path="],
    "gen_out": ["gen", "--scenario", "normal", "--seed", "1", "--out", ""],
    "fetch_out": ["blacklist", "fetch", "--path", "t.jsonl", "--out", ""],
}


@pytest.mark.parametrize("args", _EMPTY_OUTPUT.values(), ids=_EMPTY_OUTPUT)
def test_an_empty_output_path_is_a_usage_error(tmp_path, cli_run, args):
    (tmp_path / "t.jsonl").write_text(_udp_line(1))
    for name in ("v.jsonl", "s.json", "sb.jsonl"):
        (tmp_path / name).write_bytes(b"earlier\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    proc = cli_run(args, cwd=tmp_path)
    assert _one_error_line(proc) and "the path is empty" in proc.stderr, proc.stderr
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_run_lets_two_inputs_share_a_file(tmp_path, cli_run):
    # the trace is also read as the feed, whose parser skips every line
    trace = tmp_path / "t.jsonl"
    trace.write_text(_udp_line(1) + _udp_line(2))
    before = trace.read_bytes()
    proc = cli_run(["run", "--trace", "t.jsonl", "--out", "v.jsonl", "--stats", "s.json",
                    "--set", "sandbox.log_path=sb.jsonl", "--set", "blacklist.path=t.jsonl"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert trace.read_bytes() == before
    assert len((tmp_path / "v.jsonl").read_text().splitlines()) == 2


def test_run_lets_a_device_repeat_and_reads_stdin(cli_run):
    # every output to the null device, as a set-up-only run has them
    proc = cli_run(["run", "--trace", "-", "--out", os.devnull, "--stats", os.devnull,
                    "--set", f"sandbox.log_path={os.devnull}"], input="")
    assert proc.returncode == 0, proc.stderr


def test_strict_mode_fails_on_garbage_line(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"bad": 1}\n')
    common = ["--out", str(tmp_path / "v.jsonl"),
              "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"]
    assert cli_run(["run", "--trace", str(trace), *common]).returncode == 1
    lenient = cli_run(["run", "--trace", str(trace), "--lenient", *common,
                       "--stats", str(tmp_path / "s.json")])
    assert lenient.returncode == 0
    assert json.loads((tmp_path / "s.json").read_text())["skipped_lines"] == 1


def test_non_utf8_line_is_a_parse_error(tmp_path, cli_run):
    lines = [json.dumps({"event_id": i, "ts": float(i), "kind": "udp", "src_ip": "10.0.0.2",
                         "dst_ip": "10.0.0.1", "src_port": 1, "dst_port": 53, "length": 8,
                         "checksum": 0, "payload_b64": ""}).encode() for i in (1, 2)]
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(lines[0] + b"\n\xff\n" + lines[1] + b"\n")
    common = ["--out", str(tmp_path / "v.jsonl"), "--set", f"sandbox.log_path={os.devnull}",
              "--stats", str(tmp_path / "s.json")]

    strict = cli_run(["run", "--trace", str(trace), *common])
    assert strict.returncode == 1
    assert strict.stderr.splitlines() == ["error: line 2: not valid UTF-8"]

    for source in (str(trace), "-"):  # a file, and the same bytes on stdin
        with open(trace, "rb") as fh:
            lenient = cli_run(["run", "--trace", source, "--lenient", *common], stdin=fh)
        assert lenient.returncode == 0, lenient.stderr
        assert [json.loads(v)["event_id"] for v in (tmp_path / "v.jsonl").read_text().splitlines()] == [1, 2]
        assert json.loads((tmp_path / "s.json").read_text())["skipped_lines"] == 1


class _StrictLines:
    """Stands in for stdin as the benchmark's trace reader does: an
    iterable of lines, each decoded from UTF-8 strictly."""

    def __init__(self, data: bytes):
        self.data = data

    def __iter__(self):
        return (line.decode("utf-8") for line in self.data.splitlines(keepends=True))


def test_a_stdin_stand_in_that_decodes_strictly_fails_on_a_non_utf8_line(tmp_path, monkeypatch, capsys):
    line = json.dumps({"event_id": 1, "ts": 1.0, "kind": "udp", "src_ip": "10.0.0.2", "dst_ip": "10.0.0.1",
                       "src_port": 1, "dst_port": 53, "length": 8, "checksum": 0, "payload_b64": ""})
    monkeypatch.setattr(sys, "stdin", _StrictLines(line.encode() + b"\n\xff\n"))
    code = cli.main(["run", "--trace", "-", "--out", str(tmp_path / "v.jsonl"),
                     "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"])
    err = capsys.readouterr().err.splitlines()
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith("error: trace is not UTF-8: "), err


def test_carriage_returns_end_lines_on_stdin_as_in_a_file(tmp_path, cli_run):
    """A bare "\\r" ends a line from standard input as it ends a file line,
    so it splits the line it sits in, and a line ending in "\\r\\n" is one line."""
    # length 9 with an empty payload: udp_size_violation, so each event is captured
    lines = [json.dumps({"event_id": i, "ts": float(i), "kind": "udp", "src_ip": "10.0.0.2",
                         "dst_ip": "10.0.0.1", "src_port": 1, "dst_port": 53, "length": 9,
                         "checksum": 0, "payload_b64": ""}).encode() for i in (1, 2, 3)]
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(lines[0] + b"\n" + lines[1].replace(b', "ts"', b',\r"ts"') + b"\n"
                      + lines[2] + b"\r\n")
    outputs = ("v.jsonl", "s.json", "sb.jsonl")
    common = ["--out", str(tmp_path / "v.jsonl"), "--stats", str(tmp_path / "s.json"),
              "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"]

    results = []
    for source in (str(trace), "-"):  # a file, and the same bytes on stdin
        with open(trace, "rb") as fh:
            strict = cli_run(["run", "--trace", source, *common], stdin=fh)
        assert strict.returncode == 1
        assert strict.stderr.startswith("error: line 2: malformed JSON"), strict.stderr
        with open(trace, "rb") as fh:
            lenient = cli_run(["run", "--trace", source, "--lenient", *common], stdin=fh)
        assert lenient.returncode == 0, lenient.stderr
        assert json.loads((tmp_path / "s.json").read_text())["skipped_lines"] == 2
        assert [json.loads(v)["event_id"] for v in (tmp_path / "v.jsonl").read_text().splitlines()] == [1, 3]
        with open(tmp_path / "sb.jsonl") as fh:  # universal newlines
            assert [json.loads(c)["event"]["event_id"] for c in fh] == [1, 3]
        results.append([(tmp_path / name).read_bytes() for name in outputs])
    assert results[0] == results[1]


# The interpreter limits int() to 4,300 digits from Python 3.11 on; before
# that such an integer is read and fails its range check instead.
@pytest.mark.parametrize("bad, malformed", [
    ('{"event_id":' + "9" * 5000 + "}", hasattr(sys, "get_int_max_str_digits")),
    ("[" * 200_000 + "]" * 200_000, True),
], ids=["huge_integer", "deep_nesting"])
def test_huge_integer_or_deep_nesting_is_one_bad_line(tmp_path, cli_run, bad, malformed):
    good = [json.dumps({"event_id": i, "ts": float(i), "kind": "udp", "src_ip": "10.0.0.2",
                        "dst_ip": "10.0.0.1", "src_port": 1, "dst_port": 53, "length": 8,
                        "checksum": 0, "payload_b64": ""}) for i in (1, 2)]
    trace = tmp_path / "t.jsonl"
    trace.write_text(good[0] + "\n" + bad + "\n" + good[1] + "\n")
    common = ["--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
              "--set", f"sandbox.log_path={os.devnull}", "--stats", str(tmp_path / "s.json")]

    strict = cli_run(["run", *common])
    assert strict.returncode == 1
    assert len(strict.stderr.splitlines()) == 1 and strict.stderr.startswith("error: line 2: "), strict.stderr
    assert strict.stderr.startswith("error: line 2: malformed JSON: ") == malformed

    lenient = cli_run(["run", "--lenient", *common])
    assert lenient.returncode == 0, lenient.stderr
    assert [json.loads(v)["event_id"] for v in (tmp_path / "v.jsonl").read_text().splitlines()] == [1, 2]
    assert json.loads((tmp_path / "s.json").read_text())["skipped_lines"] == 1


def test_check_reports_rule_count(tmp_path, cli_run):
    rules = tmp_path / "default.rules"
    rules.write_text(DEFAULT_RULESET_TEXT)
    proc = cli_run(["check", "--ruleset", str(rules)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8 rules"
    empty = tmp_path / "empty.rules"
    empty.write_text("")
    proc = cli_run(["check", "--ruleset", str(empty)])
    assert proc.returncode == 0 and proc.stdout.strip() == "0 rules"


def test_check_duplicate_id_exits_2_with_line(tmp_path, cli_run):
    rules = tmp_path / "dup.rules"
    rules.write_text('RULE 9 uri none contains "a" log\nRULE 9 uri none contains "b" log\n')
    proc = cli_run(["check", "--ruleset", str(rules)])
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_blacklist_fetch_normalizes_and_reports(tmp_path, cli_run):
    feed = tmp_path / "raw.txt"
    feed.write_text("203.0.113.0/24\nnot-a-cidr\n10.77.1.2/16\nalso bad\n")
    out = tmp_path / "clean.txt"
    proc = cli_run(["blacklist", "fetch", "--path", str(feed), "--out", str(out)])
    assert proc.returncode == 0
    assert out.read_text() == "10.77.0.0/16\n203.0.113.0/24\n"
    assert "2 entries written, 2 lines skipped" in proc.stdout


def test_blacklist_fetch_skips_only_an_undecodable_line(tmp_path, cli_run):
    feed = tmp_path / "raw.txt"
    feed.write_bytes(b"10.0.0.0/8\n\xff\n192.168.0.0/16\n")
    out = tmp_path / "clean.txt"
    proc = cli_run(["blacklist", "fetch", "--path", str(feed), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "10.0.0.0/8\n192.168.0.0/16\n"
    assert "2 entries written, 1 lines skipped" in proc.stdout
    assert "skipped line 2: bad_address" in proc.stdout


def test_blacklist_fetch_counts_the_distinct_entries_it_writes(tmp_path, cli_run):
    # 10.1.2.3/24 and 10.1.2.0/24 are one entry; so is a line given twice
    feed = tmp_path / "raw.txt"
    feed.write_text("10.1.2.3/24\n10.1.2.0/24\n10.1.2.0/24\n192.0.2.1\nbad\n")
    out = tmp_path / "clean.txt"
    proc = cli_run(["blacklist", "fetch", "--path", str(feed), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "2 entries written, 1 lines skipped" in proc.stdout
    assert out.read_text() == "10.1.2.0/24\n192.0.2.1/32\n"


def test_a_fetched_feed_loads_the_snapshot_of_its_raw_feed(tmp_path, cli_run):
    r"""What fetch writes is what run loads: the same entries, count and
    answers as the raw feed, whose lines repeat, overlap, carry host bits,
    end in "\r\n" or a lone "\r", and are at times comments or bad."""
    rng = random.Random(43)
    lines = []
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(("# a comment", "not an address", "10.0.0.0/33", "")))
        elif roll < 0.15 and lines:
            lines.append(rng.choice(lines))
        else:
            prefix = rng.choice(("", "/32", "/24", f"/{rng.randint(8, 31)}"))
            lines.append(int_to_ipv4(rng.getrandbits(32)) + prefix)
    raw = tmp_path / "raw.txt"
    raw.write_bytes("".join(line + rng.choice(("\n", "\r\n", "\r")) for line in lines).encode())
    out = tmp_path / "clean.txt"
    proc = cli_run(["blacklist", "fetch", "--path", str(raw), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    loaded, fetched = (blacklist.refresh(blacklist.CidrSnapshot([]), blacklist.read_feed(str(path)), 0.0)
                       for path in (raw, out))
    assert fetched.entries == loaded.entries and len(fetched) == len(loaded) > 2000
    assert proc.stdout.startswith(f"{len(loaded)} entries written, ")
    entries = loaded.entries
    for _ in range(10_000):  # half near an entry's first address, half anywhere
        near = rng.choice(entries).base + rng.randint(-2, 2)
        ip = int_to_ipv4(near % 2**32 if rng.random() < 0.5 else rng.getrandbits(32))
        assert fetched.contains(ip) is loaded.contains(ip), ip


def test_gen_skips_only_an_undecodable_feed_line(tmp_path, cli_run):
    # gen reads its feed as run and blacklist fetch do
    traces = []
    for name, text in (("raw.txt", b"10.0.0.0/8\n\xff\n192.168.0.0/16\n"),
                       ("clean.txt", b"10.0.0.0/8\n192.168.0.0/16\n")):
        feed = tmp_path / name
        feed.write_bytes(text)
        proc = cli_run(["gen", "--scenario", "blacklist_mix", "--param", f"feed={feed}", "--seed", "3",
                        "--out", "-"])
        assert proc.returncode == 0, proc.stderr
        traces.append(proc.stdout)
    assert traces[0] == traces[1] and '"src_ip":"192.168.0.' in traces[0]


def test_a_long_prefix_is_one_skipped_feed_line(tmp_path, cli_run):
    """A prefix of more digits than int() reads is a bad_address line to
    blacklist fetch, gen and run alike, as any other bad prefix is."""
    (tmp_path / "clean.txt").write_text("203.0.113.0/24\n")
    (tmp_path / "long.txt").write_text("203.0.113.0/24\n10.0.0.0/" + "9" * 4301 + "\n")
    proc = cli_run(["blacklist", "fetch", "--path", "long.txt", "--out", "out.txt"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "1 entries written, 1 lines skipped" in proc.stdout
    assert "skipped line 2: bad_address" in proc.stdout
    assert (tmp_path / "out.txt").read_text() == "203.0.113.0/24\n"
    outputs = []
    for feed in ("clean.txt", "long.txt"):
        proc = cli_run(["gen", "--scenario", "blacklist_mix", "--param", f"feed={feed}", "--seed", "3",
                        "--out", f"{feed}.jsonl"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = cli_run(["run", "--trace", f"{feed}.jsonl", "--out", "v.jsonl", "--stats", "s.json",
                        "--set", "sandbox.log_path=sb.jsonl", "--set", f"blacklist.path={feed}"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(tmp_path / name).read_bytes()
                        for name in (f"{feed}.jsonl", "v.jsonl", "s.json", "sb.jsonl")])
    assert outputs[0] == outputs[1]
    assert b'"reject_blacklisted"' in outputs[0][1]


# gen's feed (--param feed) -> its --out, each named from tmp_path
_GEN_OVER_FEED = {
    "trace_is_feed": ("feed.txt", "feed.txt"),
    "manifest_is_feed": ("t.jsonl.manifest.json", "t.jsonl"),
    "out_is_symlink_to_feed": ("feed.txt", "link.txt"),
}


@pytest.mark.parametrize("feed, out", _GEN_OVER_FEED.values(), ids=_GEN_OVER_FEED)
def test_gen_refuses_to_write_over_its_feed(tmp_path, cli_run, feed, out):
    (tmp_path / feed).write_text("203.0.113.0/24\n")
    os.symlink(feed, tmp_path / "link.txt")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    proc = cli_run(["gen", "--scenario", "blacklist_mix", "--param", f"feed={feed}", "--seed", "3",
                    "--out", out], cwd=tmp_path)
    assert _one_error_line(proc) and "name the same file" in proc.stderr, proc.stderr
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_gen_with_a_feed_still_writes_to_a_device(tmp_path, cli_run):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    proc = cli_run(["gen", "--scenario", "blacklist_mix", "--param", f"feed={feed}", "--seed", "3",
                    "--out", os.devnull])
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["feed.txt"]


def test_blacklist_fetch_failure_leaves_out_untouched(tmp_path, cli_run):
    out = tmp_path / "clean.txt"
    proc = cli_run(["blacklist", "fetch", "--path", str(tmp_path / "absent.txt"),
                    "--out", str(out)])
    assert proc.returncode == 1
    assert not out.exists()


def test_config_precedence_flag_beats_file_beats_default(tmp_path):
    """Checked on five keys spanning every value type."""
    sample = {
        "rate.burst": ("25", "35", 10),
        "rate.rps": ("7.5", "9.5", 5.0),
        "tcp.syn_half_open_per_source": ("60", "70", 50),
        "udp.validate_checksum": ("false", "true", True),
        "sandbox.log_path": ("file.jsonl", "flag.jsonl", "sandbox.jsonl"),
    }
    assert {k: default_config()[k] for k in sample} == {k: v[2] for k, v in sample.items()}

    file_text = "".join(f"{k} = {v[0]}\n" for k, v in sample.items())
    cfg = parse_config(file_text)
    assert cfg["rate.burst"] == 25
    assert cfg["rate.rps"] == 7.5
    assert cfg["tcp.syn_half_open_per_source"] == 60
    assert cfg["udp.validate_checksum"] is False
    assert cfg["sandbox.log_path"] == "file.jsonl"

    apply_overrides(cfg, [f"{k}={v[1]}" for k, v in sample.items()])
    assert cfg["rate.burst"] == 35
    assert cfg["rate.rps"] == 9.5
    assert cfg["tcp.syn_half_open_per_source"] == 70
    assert cfg["udp.validate_checksum"] is True
    assert cfg["sandbox.log_path"] == "flag.jsonl"


def test_config_precedence_visible_end_to_end(tmp_path, cli_run):
    """rate.burst: file says 3, flag says 5; exactly 5 of 30 instant
    requests from one source survive layer 1."""
    trace = tmp_path / "t.jsonl"
    lines = []
    for i in range(30):
        lines.append(json.dumps({
            "event_id": i + 1, "ts": 0.0, "kind": "http", "src_ip": "10.50.0.1",
            "dst_ip": "10.0.0.1", "src_port": 40000, "dst_port": 80,
            "method": "GET", "uri": "/", "version": "HTTP/1.1",
            "headers": [["host", "h"]], "body_b64": "", "duration_ms": 10}))
    trace.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("rate.burst = 3\n")
    proc = cli_run(["run", "--config", str(cfg), "--trace", str(trace),
                    "--out", str(tmp_path / "v.jsonl"), "--set", "rate.burst=5",
                    "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"])
    assert proc.returncode == 0, proc.stderr
    verdicts = [json.loads(l) for l in (tmp_path / "v.jsonl").read_text().splitlines()]
    assert sum(1 for v in verdicts if v["decision"] == "forward") == 5


# args (relative to the test's directory) -> (exit code, the whole stderr):
# error lines that no other test reaches
_ERROR_LINES = {
    "trace_line_not_an_object": (["run", "--trace", "t.jsonl", "--out", "v.jsonl"],
                                 1, "error: line 1: trace line is not a JSON object"),
    "set_without_equals": (["run", "--trace", "t.jsonl", "--out", "v.jsonl", "--set", "foo"],
                           2, "error: --set needs key=value, got 'foo'"),
    "missing_config": (["run", "--trace", "t.jsonl", "--out", "v.jsonl", "--config", "missing.cfg"],
                       2, "error: cannot read config: [Errno 2] No such file or directory: 'missing.cfg'"),
    "header_without_name": (["run", "--trace", "t.jsonl", "--out", "v.jsonl", "--set", "waf.ruleset_path=r.rules"],
                            2, "error: ruleset: line 1: header: target needs a header name"),
    "param_without_equals": (["gen", "--scenario", "blacklist_mix", "--param", "feed", "--out", "g.jsonl"],
                             2, "error: --param needs key=value, got 'feed'"),
    "missing_feed": (["gen", "--scenario", "blacklist_mix", "--param", "feed=missing.txt", "--out", "g.jsonl"],
                     1, "error: [Errno 2] No such file or directory: 'missing.txt'"),
    "feed_without_entries": (["gen", "--scenario", "blacklist_mix", "--param", "feed=f.txt", "--out", "g.jsonl"],
                             2, "error: feed 'f.txt' contains no usable entries"),
}


@pytest.mark.parametrize("args, code, stderr", _ERROR_LINES.values(), ids=_ERROR_LINES)
def test_each_refusal_is_one_error_line(tmp_path, cli_run, args, code, stderr):
    (tmp_path / "t.jsonl").write_text("[1,2]\n")
    (tmp_path / "r.rules").write_text('RULE 1001 header: lowercase contains "x" sandbox\n')
    (tmp_path / "f.txt").write_text("# only a comment\nnot an address\n10.0.0.0/33\n")
    proc = cli_run(args, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (code, stderr + "\n")
    assert sorted(os.listdir(tmp_path)) == ["f.txt", "r.rules", "t.jsonl"]


def test_console_script_is_importable_main():
    from ddosgate.cli import main
    assert main(["check", "--ruleset", "/nonexistent"]) == 2


def _one_error_line(proc):
    return (proc.returncode == 2 and len(proc.stderr.splitlines()) == 1
            and proc.stderr.startswith("error: "))


# Rules that used to stop check and run with a traceback, or (num_gt nan)
# to parse into a rule that never fires.
RULE_REFUSALS = {
    "superscript_id": 'RULE \u00b2 uri none contains "x" sandbox',
    "len_gt_nan": "RULE 1 uri none len_gt nan sandbox",
    "len_gt_inf": "RULE 1 uri none len_gt inf sandbox",
    "len_gt_1e400": "RULE 1 uri none len_gt 1e400 sandbox",
    "num_gt_nan": "RULE 1 duration_ms none num_gt nan sandbox",
    "huge_repeat": 'RULE 1 uri none matches "a{99999999999}" sandbox',
    "deep_groups": 'RULE 1 uri none matches "' + "(" * 5000 + ")" * 5000 + '" sandbox',
}


@pytest.mark.parametrize("rule", RULE_REFUSALS.values(), ids=RULE_REFUSALS.keys())
def test_malformed_rule_exits_2_under_check_and_run(rule, tmp_path, cli_run):
    rules = tmp_path / "bad.rules"
    rules.write_text("# pad\n" + rule + "\n", encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    check = cli_run(["check", "--ruleset", str(rules)])
    run = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                   "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}",
                   "--set", f"waf.ruleset_path={rules}"])
    for proc in (check, run):
        assert _one_error_line(proc), proc.stderr
        assert "line 2" in proc.stderr


def test_config_inputs_exit_2_without_traceback(tmp_path, cli_run):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"rate.rps = 5 # caf\xe9\n")
    bad_hex, wide = tmp_path / "hex.sigs", tmp_path / "wide.sigs"
    bad_hex.write_text("\\xZZ\n")
    wide.write_text("\\u0100\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({
        "event_id": 1, "ts": 0.0, "kind": "http", "src_ip": "10.50.0.1", "dst_ip": "10.0.0.1",
        "src_port": 40000, "dst_port": 80, "method": "GET", "uri": "/", "version": "HTTP/1.1",
        "headers": [["host", "h"]], "body_b64": "", "duration_ms": 10}) + "\n")
    run = ["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
           "--set", f"sandbox.log_path={tmp_path / 'sb.jsonl'}"]
    for args in (run + ["--config", str(latin)],
                 run + ["--set", f"waf.ruleset_path={latin}"],
                 ["check", "--ruleset", str(latin)],
                 run + ["--set", f"tcp.signatures_path={latin}"],
                 run + ["--set", f"tcp.signatures_path={bad_hex}"],
                 run + ["--set", f"tcp.signatures_path={wide}"],
                 run + ["--set", "rate.burst=1" + "0" * 400],
                 run[:2] + [os.devnull] + run[3:] + ["--set", "tcp.bucket_count=100000000"]):
        proc = cli_run(args)
        assert _one_error_line(proc), (args[-1], proc.stderr)


def _small_address_space():
    limit = 1 << 30  # a generator that builds the trace fails instead of filling memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_gen_refuses_traces_it_cannot_address_or_bound(tmp_path, cli_run):
    feed = tmp_path / "feed.txt"
    feed.write_text("203.0.113.0/24\n")
    out = tmp_path / "x.jsonl"
    for args, message in (
            (["--scenario", "syn_flood", "--param", "sources=64001", "--param", "rate=0.1",
              "--param", "benign_sources=0", "--duration", "10"], "at most 64000 sources"),
            (["--scenario", "blacklist_mix", "--param", f"feed={feed}", "--param", "sources=300",
              "--param", "fraction=0"], "at most 255 sources"),
            (["--scenario", "low_rate_pulse", "--param", "period=1e-6", "--param", "width=0",
              "--param", "benign_sources=0", "--duration", "1000"], "more than 5,000,000"),
            (["--scenario", "syn_flood", "--param", "rate=1e9", "--duration", "1e9"],
             "more than 5,000,000")):
        proc = cli_run(["gen", *args, "--out", str(out)], timeout=20,
                       preexec_fn=_small_address_space)
        assert _one_error_line(proc) and message in proc.stderr, (args, proc.stderr)
        assert not out.exists()
