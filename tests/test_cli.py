"""End-to-end command behavior, exit codes, and config precedence."""

import json
import os
import resource

import pytest

from ddosgate.config import apply_overrides, default_config, parse_config
from ddosgate.waf import DEFAULT_RULESET_TEXT


def test_gen_writes_trace_and_manifest(tmp_path, cli_run):
    out = tmp_path / "trace.jsonl"
    proc = cli_run(["gen", "--scenario", "normal", "--seed", "1", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    manifest = json.loads((tmp_path / "trace.jsonl.manifest.json").read_text())
    assert manifest["events"] == len(lines) > 0
    assert manifest["label_counts"] == {"benign": len(lines)}


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
                 ["--scenario", "low_rate_pulse", "--param", "width=1e308"]):
        proc = cli_run(["gen", *args, "--out", str(out)], timeout=20)
        assert proc.returncode == 2, args
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), args
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


def test_run_unknown_config_key_exits_2(tmp_path, cli_run):
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    proc = cli_run(["run", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl"),
                    "--set", "rate.rp=9"])
    assert proc.returncode == 2
    assert "rate.rp" in proc.stderr


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
